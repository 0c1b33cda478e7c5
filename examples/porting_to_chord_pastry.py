"""Generality: the same soft-state machinery on eCAN, Chord and Pastry.

"The techniques are generic for overlay networks such as Pastry,
Chord, and eCAN, where there exists flexibility in selecting routing
neighbors."  In this library that sentence is a contract.  One ring
substrate (`repro.overlay.ring.IdRing`: membership, lazy table repair,
stretch) and one soft-state engine (`repro.softstate.ring`: registry,
maps, landmark-number placement, the lookup + RTT-probe policy, the
assembler) serve every id-ring overlay; porting the technique to
overlay X means implementing five geometry hooks:

  on the ring        slot_interval(node, slot)  the id interval a table
                                                slot may point into
                     route(start, key)          the forwarding rule, and
                                                with it who owns a key
  on the soft-state  regions_of(node)           the regions a node
                                                publishes its record into
                     region_bounds(region)      a region's id interval
                     slot_regions(node, slot)   the region(s) to query
                                                when filling a slot

(plus where a node keeps its table and which slots it fills).  Chord
answers with finger intervals, greedy clockwise routing to the
successor, and aligned arcs; Pastry with digit prefixes, leaf sets and
prefix routing to the numerically closest id.  This example builds all
three overlays on the same physical internet and fills their flexible
slots three ways each.

The interesting comparison is *how much* proximity selection buys on
each structure: lots on eCAN and Pastry (base-4 hierarchies, most
hops have many candidates), less on Chord (a binary ring spends more
hops in tiny, low-choice intervals).

Run:  python examples/porting_to_chord_pastry.py
"""

import numpy as np

from repro import NetworkParams, OverlayParams, TopologyAwareOverlay, make_network
from repro.chord.softstate import build_soft_state_ring
from repro.pastry import build_soft_state_pastry

NUM_NODES = 160
POLICIES = ("random", "softstate", "optimal")


def fresh_network():
    return make_network(
        NetworkParams(topology="tsk-large", latency="manual", topo_scale=0.5, seed=2)
    )


def ecan_stretch(policy: str) -> float:
    overlay = TopologyAwareOverlay(
        fresh_network(), OverlayParams(num_nodes=NUM_NODES, policy=policy, seed=5)
    )
    overlay.build()
    return float(overlay.measure_stretch(400, rng=np.random.default_rng(9)).mean())


def ring_stretch(build, policy: str, **geometry) -> float:
    """Both ports go through the one assembler; only the geometry differs."""
    ring, _ = build(
        fresh_network(), NUM_NODES, policy_name=policy, seed=5, **geometry
    )
    return float(ring.measure_stretch(400, rng=np.random.default_rng(9)).mean())


def chord_stretch(policy: str) -> float:
    return ring_stretch(build_soft_state_ring, policy, bits=18)


def pastry_stretch(policy: str) -> float:
    return ring_stretch(build_soft_state_pastry, policy, digits=14)


def main() -> None:
    print(f"building {NUM_NODES}-node overlays on one transit-stub internet...\n")
    builders = {"eCAN": ecan_stretch, "Chord": chord_stretch, "Pastry": pastry_stretch}
    print(f"{'overlay':8s} " + " ".join(f"{p:>10s}" for p in POLICIES) + f" {'saving':>8s}")
    for name, fn in builders.items():
        values = {p: fn(p) for p in POLICIES}
        saving = 100 * (1 - values["softstate"] / values["random"])
        print(
            f"{name:8s} "
            + " ".join(f"{values[p]:10.2f}" for p in POLICIES)
            + f" {saving:7.0f}%"
        )
    print("\n(columns are mean routing stretch; 'saving' is soft-state vs random)")
    print("the base-4 hierarchies (eCAN, Pastry) give proximity selection more")
    print("high-choice hops than the binary Chord ring -- same ordering, bigger win")
    print("\nChord and Pastry are two geometries over one ring substrate and one")
    print("soft-state engine: five hooks each (slot_interval, route, regions_of,")
    print("region_bounds, slot_regions) -- a third prefix overlay costs the same")


if __name__ == "__main__":
    main()
