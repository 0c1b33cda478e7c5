"""Hot-path scale benchmark: wall-clock build + throughput vs N.

Not a paper figure -- this times the stack itself: overlay
construction wall time, routing throughput (the ``measure_stretch``
loop), and soft-state lookup throughput, at a sweep of overlay sizes
on the quick topology.  Correctness columns (``mean_stretch``, sample
counts) are deterministic per seed and make up the committed record;
every timing lives under a ``wall``-prefixed key, which
``_common.emit`` prints but does not commit (the committed timings of
the simulator are ``benchmarks/perf/out/latest.json``).

The sweep defaults to the ISSUE sizes per scale preset and can be
overridden with ``REPRO_PERF_N=256,1024,4096``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _common import emit
from repro.core.builder import TopologyAwareOverlay
from repro.core.config import NetworkParams, OverlayParams, make_network
from repro.experiments import current_scale, format_table
from repro.softstate.maps import Region

#: overlay sizes per scale preset (override with REPRO_PERF_N)
DEFAULT_SWEEP = {
    "quick": (256, 1024),
    "medium": (256, 1024, 4096),
    "paper": (256, 1024, 4096),
}

#: soft-state lookups timed per cell (cycling members x level-1 cells)
LOOKUP_SAMPLES = 1024


def sweep_sizes(scale) -> tuple:
    env = os.environ.get("REPRO_PERF_N")
    if env:
        return tuple(int(part) for part in env.replace(" ", "").split(",") if part)
    return DEFAULT_SWEEP.get(scale.name, DEFAULT_SWEEP["quick"])


def run_cell(n: int, topo_scale: float, seed: int = 0) -> dict:
    """Build an N-node overlay and time its hot paths.

    The physical network is constructed outside the timed section --
    the row is about overlay paths, not topology generation.  A second
    throwaway overlay is built through :meth:`build_bulk` so the row
    records the batched bulk-join fast path's delta over the
    incremental build (same membership and zones; publications are
    deferred to one flush against the final tessellation).
    """
    network = make_network(NetworkParams(topo_scale=topo_scale, seed=seed))
    overlay = TopologyAwareOverlay(network, OverlayParams(num_nodes=n, seed=seed))
    t0 = time.perf_counter()
    overlay.build(n)
    t1 = time.perf_counter()

    bulk = TopologyAwareOverlay(network, OverlayParams(num_nodes=n, seed=seed))
    tb0 = time.perf_counter()
    bulk.build_bulk(n)
    tb1 = time.perf_counter()
    bulk_s = tb1 - tb0
    stretch = overlay.measure_stretch(2 * n)
    t2 = time.perf_counter()

    # lookup throughput: members query the four level-1 region maps
    # round-robin, exactly as neighbor selection does during joins
    members = overlay.node_ids
    dims = overlay.ecan.can.dims
    cells = [
        tuple((index >> d) & 1 for d in range(dims)) for index in range(1 << dims)
    ]
    t3 = time.perf_counter()
    for i in range(LOOKUP_SAMPLES):
        overlay.store.lookup(
            members[i % len(members)], Region(1, cells[i % len(cells)])
        )
    t4 = time.perf_counter()

    build_s = t1 - t0
    stretch_s = t2 - t1
    lookup_s = t4 - t3
    return {
        "n": n,
        "route_samples": int(stretch.size),
        "mean_stretch": float(stretch.mean()),
        "lookup_samples": LOOKUP_SAMPLES,
        "wall_build_s": build_s,
        "wall_bulk_build_s": bulk_s,
        "wall_stretch_s": stretch_s,
        "wall_joins_per_s": n / build_s if build_s > 0 else None,
        "wall_bulk_joins_per_s": n / bulk_s if bulk_s > 0 else None,
        "wall_routes_per_s": (
            float(stretch.size) / stretch_s if stretch_s > 0 else None
        ),
        "wall_lookups_per_s": (
            LOOKUP_SAMPLES / lookup_s if lookup_s > 0 else None
        ),
    }


def bench_perf_scale(benchmark):
    scale = current_scale()
    sizes = sweep_sizes(scale)
    rows = [run_cell(n, scale.topo_scale) for n in sizes]
    emit(
        "perf_scale",
        f"Hot-path scale: build/route/lookup wall-clock vs N ({scale.name})",
        format_table(rows),
        rows=rows,
        params={
            "scale": scale.name,
            "topo_scale": scale.topo_scale,
            "sweep": list(sizes),
            "lookup_samples": LOOKUP_SAMPLES,
            "route_samples": "2*n",
        },
    )

    # the timed unit: a fresh small build, the dominant hot path
    smallest = min(sizes)
    benchmark(lambda: run_cell(min(smallest, 256), scale.topo_scale))

    assert all(row["route_samples"] > 0 for row in rows)
    assert all(np.isfinite(row["mean_stretch"]) for row in rows)
    # routing never beats the direct path, so stretch is >= 1
    assert all(row["mean_stretch"] >= 1.0 for row in rows)
