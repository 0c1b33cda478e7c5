"""Acceptance gates as data: ``(label, predicate)`` pairs over a record.

One evaluator for every bar the repository sets on a record -- the
smoke scenarios (``scripts/smoke.py``) and the figure shape checks
(:mod:`repro.experiments.registry`).
"""

from __future__ import annotations


class _Reads(dict):
    """A record that remembers which of its fields a predicate read."""

    def __init__(self, record):
        super().__init__(record)
        self.fields = []

    def __getitem__(self, key):
        self.fields.append(key)
        return super().__getitem__(key)


def failed_gates(gates, record) -> list:
    """``"label (field=value, ...)"`` for every gate ``record`` violates.

    The values shown are the fields the predicate read, so a failure
    names its offender without each gate formatting its own message.
    """
    failed = []
    for label, predicate in gates:
        seen = _Reads(record)
        if not predicate(seen):
            values = ", ".join(f"{k}={record[k]!r}" for k in dict.fromkeys(seen.fields))
            failed.append(f"{label} ({values})")
    return failed
