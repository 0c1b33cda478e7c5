"""Command-line interface: regenerate figures without writing code.

Usage (also via ``python -m repro``)::

    python -m repro list                  # the experiment catalogue
    python -m repro run fig02_hops        # one row: its table and gate verdicts
    python -m repro run all               # everything
    python -m repro report                # rewrite EXPERIMENTS.md
    python -m repro quickstart            # the README demo

``--scale quick|medium|paper`` overrides the ``REPRO_SCALE`` environment
variable for the invocation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys


def cmd_list(_args) -> int:
    from repro.experiments import SCALES
    from repro.experiments.registry import FIGURES

    print("experiments:")
    for figure in FIGURES:
        print(f"  {figure.name}")
    print(f"\nrun one with: python -m repro run <name> [--scale {'|'.join(SCALES)}]")
    return 0


def _profiled(fn, top: int):
    """Run ``fn`` under cProfile; return (result, stats text)."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return result, buffer.getvalue()


def cmd_run(args) -> int:
    """Run catalogue rows; print each table and its gates' verdicts."""
    from repro.experiments import current_scale
    from repro.experiments.registry import BY_NAME

    names = list(BY_NAME) if "all" in args.names else args.names
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    for name in names:
        figure = BY_NAME[name]
        run = functools.partial(figure.record, current_scale())
        if args.profile:
            record, profile = _profiled(run, args.profile_top)
        else:
            record = run()
        print(figure.table(record))
        for label, verdict in figure.verdicts(record).items():
            print(f"{verdict}: {label}")
        if args.profile:
            print(f"-- profile ({name}, top {args.profile_top} by cumulative) --")
            print(profile)
        print()
    return 0


def cmd_report(_args) -> int:
    from repro.experiments import report

    report.main()
    return 0


def cmd_quickstart(_args) -> int:
    from repro import NetworkParams, OverlayParams, TopologyAwareOverlay, make_network

    network = make_network(
        NetworkParams(topology="tsk-large", latency="manual", topo_scale=0.5, seed=1)
    )
    overlay = TopologyAwareOverlay(
        network, OverlayParams(num_nodes=192, policy="softstate", seed=7)
    )
    overlay.build()
    stretch = overlay.measure_stretch()
    print(f"built: {overlay.describe()}")
    print(f"mean routing stretch: {stretch.mean():.2f} over {len(stretch)} routes")
    print(f"messages spent: {network.stats.total()}")
    return 0


def _install_uvloop() -> bool:
    """Switch the asyncio policy to uvloop when available.

    The container may not ship uvloop; the switch is best-effort and
    the stdlib event loop remains the (fully supported) fallback.
    """
    try:
        import uvloop
    except ImportError:
        print(
            "uvloop not installed; continuing on the stdlib event loop",
            file=sys.stderr,
        )
        return False
    uvloop.install()
    return True


def _shared_cluster_fields(args) -> dict:
    """The :class:`ClusterConfig` fields set by the flags ``repro
    cluster`` and ``repro controller`` share (:func:`_shared_cluster_flags`)."""
    from repro.core.config import NetworkParams, OverlayParams

    return dict(
        nodes=args.nodes,
        network=NetworkParams(topo_scale=args.topo_scale, seed=args.seed),
        overlay=OverlayParams(num_nodes=args.nodes, seed=args.seed),
        transport=args.transport,
        wire_encoding=args.encoding,
        heartbeat_period=args.heartbeat_period,
        probe_timeout=args.probe_timeout,
        bulk_boot=args.bulk_boot,
        shards=args.shards,
    )


def _cluster_config(args):
    """Build the :class:`ClusterConfig` a ``repro cluster`` run uses.

    Split from :func:`cmd_cluster` so tests can assert every CLI flag
    lands on the config without booting a cluster.
    """
    from repro.core.reliability import RetryPolicy
    from repro.runtime import ClusterConfig

    if args.retries < 1:
        raise ValueError(f"retries must be >= 1, got {args.retries}")
    return ClusterConfig(
        **_shared_cluster_fields(args),
        latency_scale=args.latency_scale,
        request_timeout=args.request_timeout,
        retry=RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None,
        mailbox_cap=args.mailbox_cap,
        breaker_threshold=args.breaker_threshold,
    )


def cmd_cluster(args) -> int:
    """Boot a live cluster, drive lookups, print latency + parity."""
    import asyncio

    from repro.mgmt import Controller, ControllerConfig
    from repro.runtime import make_cluster

    try:
        config = _cluster_config(args)
        status_config = None
        if args.status_port is not None:
            status_config = ControllerConfig(port=args.status_port)
    except ValueError as exc:
        args.usage_error(str(exc))
    if args.uvloop:
        _install_uvloop()

    async def drive():
        cluster = make_cluster(config)
        await cluster.start()
        controller = None
        if status_config is not None:
            controller = Controller(cluster, status_config)
            await controller.start()
            print(
                f"management API on {controller.url} "
                f"(/topology /stats /metrics /health, zone map at /)"
            )
        try:
            report = await cluster.run_load(
                rate=args.rate,
                count=args.lookups,
                seed=args.seed,
                concurrency=args.concurrency,
            )
            verdict = await cluster.verify_against_sim(
                lookups=min(args.lookups, 128), routes=32, seed=args.seed
            )
            overload = (await cluster.counters())["overload"]
        finally:
            if controller is not None:
                await controller.stop()
            await cluster.stop()
        return report, verdict, overload

    report, verdict, overload = asyncio.run(drive())
    pct = report.percentiles()
    offered = (
        f"closed loop, {report.concurrency} in flight"
        if report.mode == "closed"
        else f"open loop at {args.rate:.0f}/s"
    )
    print(
        f"cluster: {args.nodes} nodes over {args.transport} "
        f"({args.encoding} frames), {report.ops} lookups, {offered}"
    )
    print(
        f"latency: p50 {pct['p50']:.3f} ms | p99 {pct['p99']:.3f} ms | "
        f"throughput {report.achieved_rate:.0f} ops/s | errors {report.errors}"
    )
    if report.retries:
        print(
            f"retries: {report.retries} "
            f"(backed off {report.backoff_ms:.0f} ms total)"
        )
    if overload["shed"] or overload["breaker_opens"] or overload["busy_replies"]:
        print(
            f"overload: shed {overload['shed']} | busy replies "
            f"{overload['busy_replies']} | breaker opens "
            f"{overload['breaker_opens']} (fast-fails "
            f"{overload['breaker_fastfails']})"
        )
    status = "ok" if verdict["ok"] else "MISMATCH"
    print(
        f"verify-against-sim: {status} "
        f"({verdict['mismatches']}/{verdict['checked']} mismatches, "
        f"{verdict['unanswered']} unanswered)"
    )
    return 0 if verdict["ok"] and report.errors == 0 else 1


def _controller_configs(args):
    """Build the (cluster, controller) configs a ``repro controller``
    run uses.

    Split from :func:`cmd_controller` so tests can assert every CLI
    flag lands on the right config without booting anything.
    """
    from repro.mgmt import ControllerConfig
    from repro.runtime import ClusterConfig

    cluster_config = ClusterConfig(**_shared_cluster_fields(args))
    controller_config = ControllerConfig(host=args.host, port=args.port)
    return cluster_config, controller_config


def cmd_controller(args) -> int:
    """Boot a cluster and serve the management API until interrupted."""
    import asyncio

    from repro.mgmt import Controller
    from repro.runtime import NotSupportedError, make_cluster

    try:
        cluster_config, controller_config = _controller_configs(args)
    except ValueError as exc:
        args.usage_error(str(exc))
    if args.uvloop:
        _install_uvloop()

    async def serve():
        cluster = make_cluster(cluster_config)
        await cluster.start()
        try:
            if args.recovery:
                try:
                    await cluster.enable_recovery()
                except NotSupportedError as exc:
                    print(f"recovery unavailable: {exc}", file=sys.stderr)
            async with Controller(cluster, controller_config) as controller:
                print(
                    f"controller: {args.nodes} nodes over {args.transport} "
                    f"({cluster_config.shards} shard(s)), serving "
                    f"{controller.url}"
                )
                print(
                    "endpoints: /topology /stats /metrics /health "
                    "(zone map at /)"
                )
                if args.duration > 0:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()  # until Ctrl-C
        finally:
            await cluster.stop()
        return 0

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        print("controller stopped")
        return 0


def _shared_cluster_flags() -> argparse.ArgumentParser:
    """Parent parser: the flags ``repro cluster`` and ``repro
    controller`` share, consumed by :func:`_shared_cluster_fields`
    (and ``--uvloop`` by both commands)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--nodes", type=int, default=64, help="overlay members to boot (default 64)"
    )
    shared.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to shard the membership across; 1 keeps "
        "the classic single-process cluster (default 1)",
    )
    shared.add_argument(
        "--transport",
        choices=["loopback", "tcp"],
        default="loopback",
        help="wire transport (default loopback)",
    )
    shared.add_argument(
        "--encoding",
        choices=["packed", "json"],
        default="packed",
        help="frame payload encoding: struct fast path or JSON-only "
        "(default packed)",
    )
    shared.add_argument(
        "--heartbeat-period",
        type=float,
        default=0.25,
        metavar="S",
        help="wall seconds between failure-detector rounds (default 0.25)",
    )
    shared.add_argument(
        "--probe-timeout",
        type=float,
        default=0.5,
        metavar="S",
        help="wall seconds one HEARTBEAT probe waits (default 0.5)",
    )
    shared.add_argument(
        "--bulk-boot",
        action="store_true",
        help="boot through the builder's batched bulk-join fast path "
        "(parity is checked against a bulk-built reference sim)",
    )
    shared.add_argument(
        "--topo-scale",
        type=float,
        default=0.25,
        help="transit-stub topology scale (default 0.25)",
    )
    shared.add_argument(
        "--uvloop",
        action="store_true",
        help="install the uvloop event-loop policy when available "
        "(falls back to the stdlib loop with a note)",
    )
    shared.add_argument("--seed", type=int, default=0, help="workload/overlay seed")
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Building Topology-Aware Overlays Using "
        "Global Soft-State' (ICDCS 2003)",
    )
    from repro.experiments import SCALES

    parser.add_argument(
        "--scale",
        choices=list(SCALES),
        help="experiment scale preset (overrides REPRO_SCALE)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments").set_defaults(
        func=cmd_list
    )
    run = sub.add_parser("run", help="run experiments and print their tables")
    run.add_argument("names", nargs="+", help="experiment names, or 'all'")
    run.add_argument(
        "--profile",
        action="store_true",
        help="run each experiment under cProfile and print the hot spots",
    )
    run.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="functions shown per profile (default 25, by cumulative time)",
    )
    run.set_defaults(func=cmd_run)
    shared = _shared_cluster_flags()
    cluster = sub.add_parser(
        "cluster",
        parents=[shared],
        help="boot a live asyncio cluster, run lookups, report latency",
    )
    cluster.add_argument(
        "--lookups", type=int, default=1000, help="lookups to drive (default 1000)"
    )
    cluster.add_argument(
        "--rate",
        type=float,
        default=2000.0,
        help="open-loop arrival rate, lookups/second (default 2000)",
    )
    cluster.add_argument(
        "--concurrency",
        type=int,
        default=0,
        metavar="N",
        help="closed-loop worker pool holding N requests in flight; "
        "0 keeps the open-loop Poisson schedule (default 0)",
    )
    cluster.add_argument(
        "--latency-scale",
        type=float,
        default=0.0,
        help="wall seconds per simulated ms of one-way latency (default 0)",
    )
    cluster.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="wall seconds before a pending request times out (default 30)",
    )
    cluster.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per request, at least 1: >1 arms a cluster-wide "
        "RetryPolicy with exponential backoff (default 1 = no resends)",
    )
    cluster.add_argument(
        "--mailbox-cap",
        type=int,
        default=1024,
        metavar="N",
        help="data-lane depth cap per actor, at least 1; an arrival at a "
        "full lane sheds the lane's oldest frame with a BUSY reply "
        "(default 1024)",
    )
    cluster.add_argument(
        "--breaker-threshold",
        type=int,
        default=8,
        metavar="K",
        help="consecutive BUSY/timeout failures, at least 1, that open "
        "a per-peer circuit breaker (default 8)",
    )
    cluster.add_argument(
        "--status-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the management API (/topology /stats /metrics /health "
        "and the zone-map view) on this loopback port while the load "
        "runs (0 picks a free port; default off)",
    )
    cluster.set_defaults(func=cmd_cluster, usage_error=cluster.error)
    controller = sub.add_parser(
        "controller",
        parents=[shared],
        help="boot a cluster and serve the management API / zone-map view",
    )
    controller.add_argument(
        "--host",
        default="127.0.0.1",
        help="management API listen interface (default 127.0.0.1)",
    )
    controller.add_argument(
        "--port",
        type=int,
        default=8642,
        metavar="PORT",
        help="management API listen port; 0 picks a free one (default 8642)",
    )
    controller.add_argument(
        "--duration",
        type=float,
        default=0.0,
        metavar="S",
        help="serve for this many wall seconds then exit; 0 runs until "
        "Ctrl-C (default 0)",
    )
    controller.add_argument(
        "--recovery",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="arm the SWIM failure detector so /health reports live "
        "verdicts (single-process clusters only; default on)",
    )
    controller.set_defaults(func=cmd_controller, usage_error=controller.error)
    sub.add_parser(
        "report", help="rewrite EXPERIMENTS.md from the committed bench records"
    ).set_defaults(func=cmd_report)
    sub.add_parser("quickstart", help="build one overlay and print its stretch")\
        .set_defaults(func=cmd_quickstart)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.scale:
        os.environ["REPRO_SCALE"] = args.scale
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
