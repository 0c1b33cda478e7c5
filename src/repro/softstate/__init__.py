"""Global soft-state: the paper's central contribution.

The overlay itself stores proximity information about its members,
one *map* per high-order zone, placed so that records of physically
close nodes sit logically close:

* :mod:`repro.softstate.records` -- the soft-state record: landmark
  vector/number, load statistics, expiry.
* :mod:`repro.softstate.maps` -- regions (high-order zones), the
  space-filling-curve hash that positions a record inside a region,
  and the *condense rate* that shrinks a map onto few hosting nodes.
* :mod:`repro.softstate.store` -- the distributed store: publish /
  withdraw / lookup (the paper's Table 1 procedure, including the
  TTL-bounded widening when a map shard is empty), expiry, refresh.
* :mod:`repro.softstate.pubsub` -- publish/subscribe on map events
  with notification delivery along distribution trees embedded in the
  overlay.
* :mod:`repro.softstate.maintenance` -- the three §5.2 staleness
  policies: reactive purge, periodic polling, proactive deregistration.
* :mod:`repro.softstate.neighbor_selection` -- proximity-neighbor
  selection through the maps: landmark pre-selection + RTT probes,
  one policy for eCAN, Chord and Pastry.
* :mod:`repro.softstate.ring` -- the maps on an id ring (regions are
  aligned id intervals, the landmark number is the key): the engine
  the Chord and Pastry ports supply their geometry to.
"""

from repro.softstate.maintenance import MaintenanceDriver, MaintenancePolicy
from repro.softstate.maps import Region, map_position, regions_of_zone
from repro.softstate.neighbor_selection import SoftStateNeighborPolicy
from repro.softstate.pubsub import Condition, PubSubService, Subscription
from repro.softstate.records import NodeRecord
from repro.softstate.ring import RingSoftState, build_soft_state_overlay
from repro.softstate.store import SoftStateStore

__all__ = [
    "Condition",
    "MaintenanceDriver",
    "MaintenancePolicy",
    "NodeRecord",
    "PubSubService",
    "Region",
    "RingSoftState",
    "SoftStateNeighborPolicy",
    "SoftStateStore",
    "Subscription",
    "build_soft_state_overlay",
    "map_position",
    "regions_of_zone",
]
