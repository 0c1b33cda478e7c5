"""Soft-state records.

A record is what a node publishes about itself into the proximity
maps: identity, physical host, landmark vector and number, and --
for the §6 extension -- capacity and current load.  Records are
*soft*: they carry an expiry time and survive only while their owner
keeps refreshing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass
class NodeRecord:
    """Self-description a node stores in the global soft-state."""

    node_id: int
    host: int
    landmark_vector: tuple
    landmark_number: int
    capacity: float = 1.0
    load: float = 0.0
    published_at: float = 0.0
    expires_at: float = math.inf
    #: lazily cached read-only ndarray of ``landmark_vector``; derived
    #: data, so excluded from equality/repr and carried by both copies
    vector_array: object = field(default=None, compare=False, repr=False)

    def vector(self) -> np.ndarray:
        """The landmark vector as a cached read-only float64 array."""
        array = self.vector_array
        if array is None:
            array = np.asarray(self.landmark_vector, dtype=np.float64)
            array.flags.writeable = False
            self.vector_array = array
        return array

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    @property
    def utilization(self) -> float:
        """Fraction of forwarding capacity currently in use."""
        if self.capacity <= 0:
            return math.inf
        return self.load / self.capacity

    def refreshed(self, now: float, ttl: float) -> "NodeRecord":
        """Copy with a renewed lease (every publish makes one, so it is
        built directly rather than through ``dataclasses.replace``)."""
        return NodeRecord(
            node_id=self.node_id,
            host=self.host,
            landmark_vector=self.landmark_vector,
            landmark_number=self.landmark_number,
            capacity=self.capacity,
            load=self.load,
            published_at=now,
            expires_at=now + ttl,
            vector_array=self.vector_array,
        )

    def with_load(self, load: float) -> "NodeRecord":
        """Copy with updated load statistics."""
        return replace(self, load=load)
