"""One smoke runner: the six acceptance scenarios, their gates as data.

``make smoke`` and CI run this once.  A scenario is one to three steps;
a step is a function of a seed returning a flat record (``async def``
when it drives the live runtime) plus the tuple of ``(label,
predicate)`` gates that record must pass, and :data:`SCENARIOS` binds
both to the seeds CI runs.  Sizes and workloads are constants -- this
is an acceptance bar, not a tool, so nothing about a scenario is a flag.

Every named scenario runs even when an earlier one failed or raised.
Each leaves ``<out>/<name>.json``; a failed gate prints its label with
the record fields it read, and the exit status is non-zero.

Usage::

    python scripts/smoke.py                  # all six, in table order
    python scripts/smoke.py shard mgmt       # just these
    python scripts/smoke.py runtime shard --uvloop
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import pathlib
import sys
import time
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import DetectorParams, NetworkParams, OverlayParams  # noqa: E402
from repro.core import TopologyAwareOverlay, check_invariants  # noqa: E402
from repro.core import make_network  # noqa: E402
from repro.core.gates import failed_gates  # noqa: E402
from repro.core.recovery import RECOVERY_CATEGORIES  # noqa: E402
from repro.core.soak import SoakConfig, run_live_soak, run_sim_soak  # noqa: E402
from repro.mgmt import Controller, ControllerConfig  # noqa: E402
from repro.mgmt import counter_samples, http_get, parse_exposition  # noqa: E402
from repro.netsim.faults import FaultPlan, Partition  # noqa: E402
from repro.runtime import Cluster, ClusterConfig, ShardedCluster  # noqa: E402
from repro.runtime import NotSupportedError, run_load  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "smoke"


# -- what the live scenarios share -------------------------------------------


def cluster_config(nodes: int, seed: int, **overrides) -> ClusterConfig:
    """The boot block of every live scenario (loopback, packed frames)."""
    return ClusterConfig(
        nodes=nodes,
        network=NetworkParams(topo_scale=0.25, seed=seed),
        overlay=OverlayParams(num_nodes=nodes, seed=seed),
        **overrides,
    )


async def parity_fields(cluster, seed: int) -> dict:
    """Replay a seeded lookup + route sample against a fresh simulator."""
    verdict = await cluster.verify_against_sim(lookups=256, routes=64, seed=seed)
    return {f"parity_{key}": verdict[key] for key in ("checked", "mismatches")}


# -- chaos -------------------------------------------------------------------

CHAOS_NODES = 64
CHAOS_CRASH_FRACTION = 0.2
CHAOS_SETTLE_MS = 20000.0
CHAOS_MAX_SWEEPS = 5


def _chaos_overlay(seed: int, probe_loss: float, partitioned: bool, **extra):
    """A built overlay with faults and the recovery stack armed."""
    network = make_network(NetworkParams(topo_scale=0.25, seed=seed))
    params = OverlayParams(num_nodes=CHAOS_NODES, landmarks=8, seed=seed + 3, **extra)
    overlay = TopologyAwareOverlay(network, params)
    overlay.build()
    now = network.clock.now
    window = (Partition(now + 4000.0, now + 9000.0, (0,)),) if partitioned else ()
    plan = FaultPlan(probe_loss_rate=probe_loss, partitions=window)
    overlay.arm_faults(plan, seed=seed + 11)
    overlay.enable_recovery(DetectorParams(period=500.0))
    return network, overlay


def _violation(overlay):
    """The broken invariant, or None when the stack is legitimate."""
    try:
        check_invariants(overlay, overlay.detector)
    except AssertionError as exc:
        return str(exc)
    return None


def chaos_crash(seed: int) -> dict:
    """Crash-stop 20% of the overlay at once under 15% probe loss and a
    transit-partition window; settle on the sim clock, then sweep."""
    network, overlay = _chaos_overlay(seed, 0.15, True, replication_factor=2)
    start = network.clock.now
    rng = np.random.default_rng(seed + 5)
    count = int(CHAOS_CRASH_FRACTION * CHAOS_NODES)
    victims = sorted(
        int(v) for v in rng.choice(overlay.node_ids, size=count, replace=False)
    )
    # no graceful departure, no instant takeover: orphaned zones, lost copies
    outcomes = [overlay.crash_node(victim) for victim in victims]
    network.clock.run_until(start + CHAOS_SETTLE_MS)
    sweeps, violation = 0, "not swept"
    while violation is not None and sweeps < CHAOS_MAX_SWEEPS:
        sweeps += 1
        network.clock.advance(overlay.maintenance.poll_interval)
        overlay.maintenance.poll_once()
        violation = _violation(overlay)
    detector, recovery = overlay.detector, overlay.recovery
    return {
        "crashed": victims,
        "confirmed": sorted(int(n) for n in detector.confirmed_dead),
        "false_kills": detector.false_kills,
        "sweeps": sweeps,
        "violation": violation,
        "records_lost": sum(o["lost"] for o in outcomes),
        "records_salvageable": sum(o["salvageable"] for o in outcomes),
        "detector_rounds": detector.rounds,
        "refutations": detector.refutations,
        "shielded_verdicts": detector.shielded_verdicts,
        "takeovers": recovery.takeovers,
        "invalidated": recovery.invalidated,
        "rehosted": recovery.rehosted,
        "republished": recovery.republished + overlay.maintenance.republished,
        "reconciliations": recovery.reconciliations,
        "traffic": {c: network.stats.get(c) for c in RECOVERY_CATEGORIES},
    }


def chaos_loss_only(seed: int) -> dict:
    """20% probe loss and nothing else: the detector must kill no one."""
    network, overlay = _chaos_overlay(seed, 0.2, False)
    network.clock.run_until(network.clock.now + CHAOS_SETTLE_MS)
    detector = overlay.detector
    return {
        "confirmed": sorted(int(n) for n in detector.confirmed_dead),
        "false_kills": detector.false_kills,
        "violation": _violation(overlay),
        "detector_rounds": detector.rounds,
        "refutations": detector.refutations,
    }


CRASH_GATES = (
    ("confirmed == crashed", lambda r: r["confirmed"] == r["crashed"]),
    ("zero false kills", lambda r: r["false_kills"] == 0),
    (f"invariants clean within {CHAOS_MAX_SWEEPS} sweeps",
     lambda r: r["violation"] is None and r["sweeps"] <= CHAOS_MAX_SWEEPS),
)
LOSS_ONLY_GATES = (
    ("probe loss alone kills nobody", lambda r: r["confirmed"] == []),
    ("zero false kills", lambda r: r["false_kills"] == 0),
    ("invariants clean", lambda r: r["violation"] is None),
)


# -- runtime -----------------------------------------------------------------

RUNTIME_NODES = 64
RUNTIME_LOOKUPS = 1000
RUNTIME_RATE = 2000.0


async def runtime(seed: int, encoding: str, transport: str = "loopback") -> dict:
    """One-process cluster, joins over the wire, open-loop lookups, then
    bit-identical owners and endpoints against the simulator.  Run under
    both payload encodings it pins the packed path to JSON semantics;
    the ``tcp`` step is the only scenario that opens a socket per node
    (connects, the per-tick outbox write, the write-buffer reads)."""
    config = cluster_config(
        RUNTIME_NODES, seed, wire_encoding=encoding, transport=transport
    )
    async with Cluster(config) as cluster:
        loop = asyncio.get_running_loop()
        pump_tasks = 0

        def counting(_loop, coro, **kwargs):
            nonlocal pump_tasks
            pump_tasks += coro.__qualname__ == "Pump._run"
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(counting)
        report = await run_load(
            cluster, rate=RUNTIME_RATE, count=RUNTIME_LOOKUPS, seed=seed
        )
        loop.set_task_factory(None)
        parity = await parity_fields(cluster, seed)
        # a read costs a task only while a handler waits: with the load
        # settled, no connection may still be owned by one
        readers = sum(
            task.get_coro().__qualname__.endswith("Transport._serve")
            for task in asyncio.all_tasks()
        )
        return {
            **report.summary(), **parity,
            "reader_tasks": readers, "pump_tasks": pump_tasks,
        }  # fmt: skip


RUNTIME_GATES = (
    ("zero lookup errors", lambda r: r["errors"] == 0),
    ("every requested lookup driven", lambda r: r["ops"] == RUNTIME_LOOKUPS),
    ("zero parity mismatches", lambda r: r["parity_mismatches"] == 0),
)
# the open loop restarts an idle pump per arrival, so one per lookup is
# the ceiling; a task per hop would read (hops + 1) times that.  Loopback
# only: on sockets every hop arrives in a loop turn of its own
RUNTIME_LOOPBACK_GATES = RUNTIME_GATES + (
    ("a hop never costs a task: pump tasks <= lookups driven",
     lambda r: r["pump_tasks"] <= r["ops"]),
)
RUNTIME_TCP_GATES = RUNTIME_GATES + (
    ("no reader task alive once the load has settled",
     lambda r: r["reader_tasks"] == 0),
)


# -- shard -------------------------------------------------------------------

SHARD_NODES = 64
SHARD_WORKERS = 4
SHARD_LOOKUPS = 1000
#: ops/s floor for the closed-loop sanity gate -- far below what even a
#: single busy core sustains, so only a real stall trips it
SHARD_MIN_THROUGHPUT = 500.0


async def shard(seed: int) -> dict:
    """The runtime parity bar across worker processes (one loop each,
    cross-shard frames over TCP peering sockets) plus closed-loop load."""
    config = cluster_config(SHARD_NODES, seed, shards=SHARD_WORKERS)
    async with ShardedCluster(config) as cluster:
        boot = cluster.boot_report()
        parity = await parity_fields(cluster, seed)
        report = await cluster.run_load(
            rate=0.0, count=SHARD_LOOKUPS, seed=seed, concurrency=4 * SHARD_WORKERS
        )
        transport = (await cluster.counters())["transport"]
    return {
        **report.summary(),
        **parity,
        "owned_per_shard": boot["owned_per_shard"],
        "wall_boot_s_per_shard": boot["wall_boot_s_per_shard"],
        "frames_intra_shard": transport["local_delivered"],
        "frames_cross_shard": transport["peer_delivered"],
    }


SHARD_GATES = (
    ("zero lookup errors", lambda r: r["errors"] == 0),
    ("zero parity mismatches", lambda r: r["parity_mismatches"] == 0),
    (f"throughput >= {SHARD_MIN_THROUGHPUT:.0f} ops/s",
     lambda r: r["wall_throughput_ops"] >= SHARD_MIN_THROUGHPUT),
    # a sharding bug that kept every hop local would pass the rest
    ("cross-shard frames flowed", lambda r: r["frames_cross_shard"] > 0),
)


# -- soak --------------------------------------------------------------------

SOAK_SIM_NODES = 128
SOAK_LIVE_NODES = 48
SOAK_LIVE_LOOKUPS = 120
SOAK_ROUND_BUDGET = 25


def _soak_fields(result: dict, rounds_key: str) -> dict:
    unconverged = [
        f"{epoch['kind']}: {epoch['violation']}"
        for epoch in result["epochs"]
        if epoch[rounds_key] is None
    ]
    return {**result, "unconverged": unconverged}


def soak_sim(seed: int) -> dict:
    """A sim overlay under continuous join/leave/crash/partition churn
    with adversarial corruption each epoch (scrambled tables, stale
    replicas, poisoned owner index); every epoch must re-converge."""
    config = SoakConfig(
        nodes=SOAK_SIM_NODES, round_budget=SOAK_ROUND_BUDGET, seed=seed
    )
    return _soak_fields(run_sim_soak(config), "rounds_to_converge")


async def soak_live(seed: int) -> dict:
    """The same corruption classes against a live cluster running the
    wire-level SWIM loop, serving lookups through a kill-33% event."""
    config = SoakConfig(
        nodes=SOAK_LIVE_NODES,
        round_budget=SOAK_ROUND_BUDGET,
        lookups=SOAK_LIVE_LOOKUPS,
        seed=seed,
    )
    return _soak_fields(await run_live_soak(config), "wall_rounds_to_converge")


SOAK_GATES = (
    ("every epoch converges within budget", lambda r: r["unconverged"] == []),
    ("zero false kills", lambda r: r["false_kills"] == 0),
    ("zero false purges", lambda r: r["false_purges"] == 0),
)
#: the live cluster must have served something through the kill-33% event
LIVE_SOAK_GATES = (("availability > 0", lambda r: r["wall_availability"] > 0.0),)


# -- overload ----------------------------------------------------------------

OVERLOAD_NODES = 8
OVERLOAD_MAILBOX_CAP = 8
OVERLOAD_OPS = 3000
#: closed-loop pool that saturates the loopback cluster
CAPACITY_POOL = 16
#: goodput under 2x overload must hold this fraction of capacity
GOODPUT_FLOOR = 0.5


async def overload(seed: int, multiplier: int) -> dict:
    """Tiny data-lane mailboxes, capacity measured closed-loop, then
    ``multiplier`` times that pool held in flight -- sustained, not a
    burst -- with the SWIM detector ticking against the saturated nodes."""
    config = cluster_config(
        OVERLOAD_NODES,
        seed,
        mailbox_cap=OVERLOAD_MAILBOX_CAP,
        busy_retries=0,  # fail fast on BUSY: the closed-loop worker reissues
        breaker_threshold=8,
        breaker_reset_s=0.03,
    )
    async with Cluster(config) as cluster:
        recovery = await cluster.enable_recovery()
        probe = await run_load(
            cluster, rate=0.0, count=OVERLOAD_OPS // 2, seed=seed,
            concurrency=CAPACITY_POOL,
        )
        load = asyncio.ensure_future(
            run_load(
                cluster, rate=0.0, count=OVERLOAD_OPS, seed=seed + 1,
                concurrency=multiplier * CAPACITY_POOL,
            )
        )
        ticks = 0
        while not load.done():
            await recovery.tick()
            ticks += 1
            await asyncio.sleep(0.02)
        report = await load
        counters = cluster.overload_counters()
    return {
        **report.summary(),  # wall_throughput_ops counts successes only: goodput
        "capacity_ops": probe.achieved_rate,
        "breaker_opens": counters["breaker_opens"],
        "detector_ticks_during_load": ticks,
        "false_crashes": recovery.false_kills,
        "confirmed_dead": list(recovery.confirmed_dead),
    }


OVERLOAD_SAFETY_GATES = (
    ("protection engaged: shed > 0", lambda r: r["wall_shed"] > 0),
    ("zero false crash verdicts", lambda r: r["false_crashes"] == 0),
    ("nobody confirmed dead", lambda r: r["confirmed_dead"] == []),
    ("detector ticked during saturation",
     lambda r: r["detector_ticks_during_load"] >= 1),
)
#: judged at 2x only: at this size (8 nodes, cap 8) the 4x goodput ratio
#: is not seed-robust, and the calibrated knee belongs to BENCHMARK.json
GOODPUT_GATES = (
    (f"goodput >= {GOODPUT_FLOOR}x capacity",
     lambda r: r["wall_throughput_ops"] >= GOODPUT_FLOOR * r["capacity_ops"]),
)


# -- mgmt --------------------------------------------------------------------

MGMT_NODES = 32
MGMT_SHARD_NODES = 16
MGMT_SHARDS = 2
#: the detection budget: /health reads ground truth, so a scrape within
#: one probe period of the crash must already see it
MGMT_PROBE_PERIOD_S = 0.1
#: wall seconds the live recovery stack gets to repair the crash
MGMT_REPAIR_BUDGET_S = 20.0
STATS_SECTIONS = (
    "events", "gauges", "phases", "transport_counters", "overload", "retries",
)
METRIC_FAMILIES = ("repro_events_total", "repro_health_status")


async def _scrape(port: int) -> dict:
    """GET all five endpoints once; every property the contract names."""
    fields, docs = {"non_json": []}, {}
    status, _, body = await http_get("127.0.0.1", port, "/")
    fields["page_status"] = status
    fields["page_has_svg"] = "<svg" in body.decode("utf-8", "replace")
    for name in ("topology", "stats", "health"):
        status, headers, body = await http_get("127.0.0.1", port, f"/{name}")
        fields[f"{name}_status"] = status
        if not headers.get("content-type", "").startswith("application/json"):
            fields["non_json"].append(name)
        docs[name] = json.loads(body)
    topo, stats, health = docs["topology"], docs["stats"], docs["health"]
    members = topo.get("members", [])
    fields.update(
        topology_schema=topo.get("schema_version"),
        topology_members=len(members),
        topology_shards=topo.get("shards", {}).get("count"),
        members_without_zone_box=[
            m.get("id")
            for m in members
            if not m.get("zones") or "lo" not in m["zones"][0]
        ],
        expressways=len(topo.get("expressways") or ()),
        stats_missing=[s for s in STATS_SECTIONS if s not in stats],
        stats_shards=stats.get("shards"),
        stats_per_shard=len(stats.get("per_shard", [])),
        health_schema=health.get("schema_version"),
        health=health.get("status"),
        recovery_state=health["recovery"]["state"],
    )
    status, _, body = await http_get("127.0.0.1", port, "/metrics")
    fields["metrics_status"] = status
    try:
        families = parse_exposition(body.decode("utf-8"))
        fields["metrics_parse_error"] = None
    except ValueError as exc:
        families = {}
        fields["metrics_parse_error"] = str(exc)
    fields["metrics_missing"] = [f for f in METRIC_FAMILIES if f not in families]
    fields["counter_samples"] = counter_samples(families)
    return fields


async def _decreased_since(controller, fields: dict) -> list:
    """Scrape again: the counter-typed samples that now read lower than
    ``fields`` has them."""
    now = (await _scrape(controller.port))["counter_samples"]
    return [
        name for name, value in fields["counter_samples"].items()
        if now.get(name, 0.0) < value
    ]


async def _poll_health(port: int, want: str, budget_s: float):
    """Poll ``/health`` until it reads ``want`` or the budget runs out;
    ``(elapsed_s, document)`` of the last scrape either way."""
    start = time.monotonic()
    while True:
        _, _, body = await http_get("127.0.0.1", port, "/health")
        health = json.loads(body)
        elapsed = time.monotonic() - start
        if health.get("status") == want or elapsed > budget_s:
            return elapsed, health
        await asyncio.sleep(0.01)


async def mgmt_single(seed: int) -> dict:
    """The HTTP controller on a cluster with SWIM recovery armed: all
    five endpoints, then one crash that ``/health`` must follow to 503
    degraded and back to 200 healthy once the recovery stack repairs."""
    config = cluster_config(MGMT_NODES, seed, heartbeat_period=MGMT_PROBE_PERIOD_S)
    async with Cluster(config) as cluster:
        recovery = await cluster.enable_recovery()
        async with Controller(cluster, ControllerConfig()) as controller:
            port = controller.port
            fields = await _scrape(port)
            boot = int(cluster.bootstrap.host)
            victim = min(n for n, a in cluster.actors.items() if int(a.host) != boot)
            victims = (await cluster.crash(victim))["victims"]
            flip_s, degraded = await _poll_health(port, "degraded", MGMT_PROBE_PERIOD_S)
            repair_s, healed = await _poll_health(port, "healthy", MGMT_REPAIR_BUDGET_S)
            fields.update(
                nodes=MGMT_NODES,
                shards=1,
                victims=victims,
                health_after_crash=degraded.get("status"),
                degraded_after_s=flip_s,
                down_after_crash=[
                    n["id"] for n in degraded["nodes"] if n["verdict"] != "alive"
                ],
                health_after_repair=healed.get("status"),
                repaired_after_s=repair_s,
                members_after_repair=healed["members"],
                takeovers=recovery.manager.takeovers,
                false_kills=recovery.false_kills,
                counters_decreased=await _decreased_since(controller, fields),
                scrapes=controller.server.requests,
            )
    return fields


async def mgmt_sharded(seed: int) -> dict:
    """The same endpoint contract on a multi-process cluster, where
    ``enable_recovery`` must refuse with the typed error and ``/health``
    must say so instead of answering 500; the sums over workers must
    survive a member's crash like one process's counts do."""
    config = cluster_config(
        MGMT_SHARD_NODES, seed, heartbeat_period=MGMT_PROBE_PERIOD_S,
        shards=MGMT_SHARDS,
    )
    async with ShardedCluster(config) as cluster:
        try:
            await cluster.enable_recovery()
            refused = False
        except NotSupportedError:
            refused = True
        async with Controller(cluster, ControllerConfig()) as controller:
            fields = await _scrape(controller.port)
            await cluster.crash(max(cluster.node_ids))
            fields["counters_decreased"] = await _decreased_since(controller, fields)
    fields.update(nodes=MGMT_SHARD_NODES, shards=MGMT_SHARDS, recovery_refused=refused)
    return fields


ENDPOINT_GATES = (
    ("zone-map page serves an <svg>",
     lambda r: r["page_status"] == 200 and r["page_has_svg"]),
    ("/topology /stats /health are application/json", lambda r: r["non_json"] == []),
    ("/topology answers 200", lambda r: r["topology_status"] == 200),
    ("/topology schema_version 1", lambda r: r["topology_schema"] == 1),
    ("/topology lists every member", lambda r: r["topology_members"] == r["nodes"]),
    ("/topology shard count", lambda r: r["topology_shards"] == r["shards"]),
    ("every member has a zone box", lambda r: r["members_without_zone_box"] == []),
    ("/topology exports expressway links", lambda r: r["expressways"] > 0),
    ("/stats answers 200", lambda r: r["stats_status"] == 200),
    ("/stats has every section", lambda r: r["stats_missing"] == []),
    ("/stats shard count", lambda r: r["stats_shards"] == r["shards"]),
    ("/stats per-shard breakdown when sharded",
     lambda r: r["shards"] == 1 or r["stats_per_shard"] == r["shards"]),
    ("/metrics answers 200", lambda r: r["metrics_status"] == 200),
    ("/metrics parses as exposition text", lambda r: r["metrics_parse_error"] is None),
    ("/metrics has the core families", lambda r: r["metrics_missing"] == []),
    ("/health schema_version 1", lambda r: r["health_schema"] == 1),
    ("/health 200 healthy at boot",
     lambda r: r["health_status"] == 200 and r["health"] == "healthy"),
)
MONOTONE_GATE = (
    "no counter-typed sample decreased across the crash",
    lambda r: r["counters_decreased"] == [],
)
HEALTH_FLIP_GATES = (
    ("recovery active", lambda r: r["recovery_state"] == "active"),
    ("degraded within one probe period",
     lambda r: r["health_after_crash"] == "degraded"),
    ("degraded view lists every victim",
     lambda r: set(r["victims"]) <= set(r["down_after_crash"])),
    (f"healthy again within {MGMT_REPAIR_BUDGET_S:.0f} s",
     lambda r: r["health_after_repair"] == "healthy"),
    ("post-repair membership == nodes - victims",
     lambda r: r["members_after_repair"] == r["nodes"] - len(r["victims"])),
    ("zero false kills", lambda r: r["false_kills"] == 0),
    MONOTONE_GATE,
)
REFUSAL_GATES = (
    ("enable_recovery refuses with NotSupportedError", lambda r: r["recovery_refused"]),
    ("recovery unavailable (sharded)",
     lambda r: r["recovery_state"] == "unavailable (sharded)"),
    MONOTONE_GATE,
)


# -- runner ------------------------------------------------------------------

#: scenario -> its steps, in run order: (step name, function of a seed,
#: the seeds CI runs it on, the gates each record must pass)
SCENARIOS = {
    "chaos": (
        ("crash", chaos_crash, (0, 1, 2), CRASH_GATES),
        ("loss-only", chaos_loss_only, (0, 1, 2), LOSS_ONLY_GATES),
    ),
    "runtime": (
        ("json", functools.partial(runtime, encoding="json"), (0,),
         RUNTIME_LOOPBACK_GATES),
        ("packed", functools.partial(runtime, encoding="packed"), (0,),
         RUNTIME_LOOPBACK_GATES),
        ("tcp", functools.partial(runtime, encoding="packed", transport="tcp"), (0,),
         RUNTIME_TCP_GATES),
    ),
    "shard": (("shard", shard, (0,), SHARD_GATES),),
    "soak": (
        ("sim", soak_sim, (0,), SOAK_GATES),
        ("live", soak_live, (0,), SOAK_GATES + LIVE_SOAK_GATES),
    ),
    "overload": (
        ("2x", functools.partial(overload, multiplier=2), (0,),
         OVERLOAD_SAFETY_GATES + GOODPUT_GATES),
        ("4x", functools.partial(overload, multiplier=4), (0,), OVERLOAD_SAFETY_GATES),
    ),
    "mgmt": (
        ("single", mgmt_single, (3,), ENDPOINT_GATES + HEALTH_FLIP_GATES),
        ("sharded", mgmt_sharded, (3,), ENDPOINT_GATES + REFUSAL_GATES),
    ),
}


def run_scenario(name: str) -> dict:
    """Run every step of ``name`` on each of its seeds and judge the records.

    An exception inside a step is that run's failure, not the runner's:
    the remaining seeds, steps and scenarios still run.
    """
    runs, failed = [], []
    for step, function, seeds, gates in SCENARIOS[name]:
        for seed in seeds:
            try:
                record = function(seed)
                if asyncio.iscoroutine(record):
                    record = asyncio.run(record)
            except Exception as exc:
                traceback.print_exc()
                failed.append(f"{step} seed {seed}: raised {type(exc).__name__}: {exc}")
                continue
            runs.append({"step": step, "seed": seed, **record})
            failed += [f"{step} seed {seed}: {g}" for g in failed_gates(gates, record)]
    return {"scenario": name, "ok": not failed, "failed": failed, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help=f"any of: {' '.join(SCENARIOS)} (default: all, in that order)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT, metavar="DIR",
        help="directory for the <scenario>.json records (default %(default)s)",
    )
    parser.add_argument(
        "--uvloop", action="store_true",
        help="install the uvloop event-loop policy first; hard-fails if uvloop "
        "is missing, so a CI leg tests the loop it thinks it is testing",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.scenarios if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; choose from {list(SCENARIOS)}")
    if args.uvloop:
        import uvloop  # no fallback: fail loudly

        uvloop.install()
        print(f"event loop policy: uvloop {uvloop.__version__}")
    args.out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name in args.scenarios or SCENARIOS:
        start = time.perf_counter()
        result = run_scenario(name)
        result["wall_s"] = round(time.perf_counter() - start, 2)
        path = args.out / f"{name}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(
            f"{name}: {'OK' if result['ok'] else 'FAIL'} -- {len(result['runs'])} "
            f"run(s) in {result['wall_s']:.1f} s -> {path}"
        )
        for failure in result["failed"]:
            print(f"  FAIL {name}/{failure}")
        all_ok = all_ok and result["ok"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
