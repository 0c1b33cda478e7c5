"""§6: publishing load with proximity, and trading one for the other.

Overlay nodes receive heavy-tailed forwarding capacities.  A skewed
(Zipf) lookup workload concentrates forwarding load on a few relays.
Each node publishes its load statistics into the soft-state maps next
to its proximity record; with a non-zero load weight, neighbor
selection scores candidates by RTT x (1 + w * utilization) and steers
traffic around saturated relays.

Run:  python examples/load_aware_routing.py
"""

import numpy as np

from repro import NetworkParams, OverlayParams, TopologyAwareOverlay, make_network, pareto_capacities
from repro.core.qos import LoadTracker
from repro.workloads import zipf_points


def run(load_weight: float, messages: int = 1024) -> dict:
    network = make_network(
        NetworkParams(topology="tsk-large", latency="manual", topo_scale=0.5, seed=8)
    )
    overlay = TopologyAwareOverlay(
        network,
        OverlayParams(num_nodes=192, policy="softstate",
                      load_weight=load_weight, seed=9),
    )
    rng = np.random.default_rng(10)
    for capacity in pareto_capacities(rng, 192, alpha=1.2):
        overlay.add_node(capacity=float(capacity))

    keys = zipf_points(messages, 2, rng, distinct=32)
    tracker = LoadTracker(overlay, window=messages / 8)
    ids = np.array(overlay.node_ids)

    def route_all() -> list:
        stretches = []
        for key in keys:
            src = int(rng.choice(ids))
            result = overlay.ecan.route(src, tuple(key))
            tracker.record_route(result)
            stretch = result.stretch(overlay.ecan.can.nodes, network)
            if stretch is not None:
                stretches.append(stretch)
        return stretches

    # §6 control loop: route, publish load, re-select -- repeatedly, the
    # way nodes "periodically publish these statistics"
    stretches = route_all()
    for _ in range(3):
        tracker.publish_all()
        for node_id in list(overlay.node_ids):
            overlay.ecan.build_table(node_id)
        tracker.reset_window()
        stretches = route_all()
    utilization = np.array(list(tracker.utilization().values()))
    return {
        "w": load_weight,
        "stretch": float(np.mean(stretches)),
        "max_util": float(utilization.max()),
        "p99_util": float(np.percentile(utilization, 99)),
    }


def main() -> None:
    print("routing a Zipf workload over heterogeneous-capacity nodes...\n")
    print(f"{'load weight':>12s} {'stretch':>8s} {'max util':>9s} {'p99 util':>9s}")
    rows = [run(w) for w in (0.0, 0.5, 2.0)]
    for row in rows:
        print(f"{row['w']:12.1f} {row['stretch']:8.2f} "
              f"{row['max_util']:9.2f} {row['p99_util']:9.2f}")
    base, aware = rows[0], rows[-1]
    print(f"\nload-aware selection cut the p99 relay utilization "
          f"{100 * (1 - aware['p99_util'] / base['p99_util']):.0f}% "
          f"for a {100 * (aware['stretch'] / base['stretch'] - 1):+.0f}% stretch change")
    print("(the single hottest relay is usually a default CAN hop the "
          "expressway policy cannot route around)")


if __name__ == "__main__":
    main()
