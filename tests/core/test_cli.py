"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out and "fig16" in out and "qos" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_scale_flag_sets_env(self, monkeypatch):
        import os

        from repro.experiments import SCALES

        for scale in SCALES:  # medium used to be refused by argparse
            monkeypatch.delenv("REPRO_SCALE", raising=False)
            main(["--scale", scale, "list"])
            assert os.environ["REPRO_SCALE"] == scale


class TestCommands:
    def test_quickstart_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "mean routing stretch" in out

    def test_run_single_figure(self, capsys, monkeypatch):
        """The CLI and the committed record are the same experiment:
        ``repro run <name>`` prints the record's table byte for byte."""
        from repro.experiments.registry import BY_NAME
        from repro.experiments.report import load_record

        monkeypatch.setenv("REPRO_SCALE", "quick")
        for name in ("intro_tacan_imbalance", "gap_breakdown_tsk-large"):
            assert main(["run", name]) == 0
            out = capsys.readouterr().out
            committed = BY_NAME[name].table(load_record(name, "quick"))
            assert out.startswith(committed + "\nPASS: "), name
            assert "FAIL" not in out

    def test_cluster_boots_and_verifies(self, capsys):
        code = main(
            [
                "cluster",
                "--nodes", "12",
                "--lookups", "20",
                "--rate", "4000",
                "--topo-scale", "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster: 12 nodes over loopback" in out
        assert "latency: p50" in out
        assert "verify-against-sim: ok" in out

    def test_an_unanswered_parity_request_is_a_mismatch_not_a_traceback(
        self, capsys, monkeypatch
    ):
        from repro.runtime import Cluster, RequestTimeout

        lookup, calls = Cluster.lookup, []

        async def first_parity_lookup_times_out(self, src_id, point):
            calls.append(src_id)
            if len(calls) == 21:  # 20 load lookups, then the parity replay
                raise RequestTimeout("ROUTE unanswered")
            return await lookup(self, src_id, point)

        monkeypatch.setattr(Cluster, "lookup", first_parity_lookup_times_out)
        code = main(["cluster", "--nodes", "12", "--lookups", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "errors 0" in out
        assert "verify-against-sim: MISMATCH (1/52 mismatches, 1 unanswered)" in out

    def test_shaped_tcp_cluster_verifies(self, capsys):
        """Shaped frames for every node of the process share one
        listener's outbox and still arrive."""
        code = main(
            [
                "cluster",
                "--nodes", "16",
                "--lookups", "16",
                "--transport", "tcp",
                "--latency-scale", "0.0002",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cluster: 16 nodes over tcp" in out
        assert "verify-against-sim: ok (0/48 mismatches, 0 unanswered)" in out

    def test_cluster_overload_flags_reach_config(self):
        from repro.cli import _cluster_config

        args = build_parser().parse_args(
            [
                "cluster",
                "--nodes", "8",
                "--mailbox-cap", "64",
                "--breaker-threshold", "3",
            ]
        )
        config = _cluster_config(args)
        assert config.mailbox_cap == 64
        assert config.breaker_threshold == 3

    def test_cluster_overload_flag_defaults(self):
        from repro.cli import _cluster_config

        args = build_parser().parse_args(["cluster", "--nodes", "8"])
        config = _cluster_config(args)
        assert config.mailbox_cap == 1024
        assert config.breaker_threshold == 8

    #: (command, flag, value the config refuses, name the error gives)
    REFUSED = [
        ("cluster", "--mailbox-cap", "0", "mailbox_cap"),
        ("cluster", "--breaker-threshold", "0", "breaker_threshold"),
        ("cluster", "--request-timeout", "0", "request_timeout"),
        ("controller", "--heartbeat-period", "0", "heartbeat_period"),
        ("controller", "--port", "70000", "port"),
        ("cluster", "--status-port", "-1", "port"),
        ("cluster", "--retries", "0", "retries"),
        ("cluster", "--retries", "-2", "retries"),
    ]

    @pytest.mark.parametrize(
        "command, flag, value, name",
        REFUSED,
        ids=[
            f"{c}-{f}" if v == "0" and f != "--retries" else f"{c}-{f}-{v}"
            for c, f, v, _ in REFUSED
        ],
    )
    def test_a_value_the_config_refuses_is_a_usage_error(
        self, command, flag, value, name, capsys
    ):
        """``--request-timeout 0`` once booted the cluster and died at
        the first lookup with a traceback, an out-of-range port died in
        ``bind`` after the boot, and ``--retries 0`` ran as if it were
        1; now nothing boots."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--nodes", "4", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: repro {command}" in err
        assert name in err

    def test_cluster_shards_flag_reaches_config(self):
        from repro.cli import _cluster_config

        args = build_parser().parse_args(
            ["cluster", "--nodes", "8", "--shards", "2"]
        )
        assert _cluster_config(args).shards == 2
        args = build_parser().parse_args(["cluster", "--nodes", "8"])
        assert _cluster_config(args).shards == 1

    def test_cluster_sharded_run_end_to_end(self, capsys):
        code = main(
            [
                "cluster",
                "--nodes", "12",
                "--lookups", "20",
                "--shards", "2",
                "--concurrency", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster: 12 nodes over loopback" in out
        assert "verify-against-sim: ok" in out

    def test_cluster_rejects_unknown_shed_policy(self):
        """One shed policy leaves nothing for a flag to select."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["cluster", "--shed-policy", "newest"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("flag", ["--refresh=1", "--no-check-invariants"])
    def test_controller_rejects_the_snapshot_flags(self, flag, capsys):
        """Per-request snapshots and an always-run invariant check leave
        nothing for these flags to select."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["controller", flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_controller_flags_reach_configs(self):
        from repro.cli import _controller_configs

        args = build_parser().parse_args(
            [
                "controller",
                "--nodes", "16",
                "--shards", "2",
                "--host", "0.0.0.0",
                "--port", "9999",
                "--no-recovery",
            ]
        )
        cluster_config, controller_config = _controller_configs(args)
        assert cluster_config.nodes == 16
        assert cluster_config.shards == 2
        assert controller_config.host == "0.0.0.0"
        assert controller_config.port == 9999
        assert args.recovery is False

    def test_controller_flag_defaults(self):
        from repro.cli import _controller_configs

        args = build_parser().parse_args(["controller"])
        cluster_config, controller_config = _controller_configs(args)
        assert cluster_config.nodes == 64
        assert cluster_config.shards == 1
        assert controller_config.host == "127.0.0.1"
        assert controller_config.port == 8642
        assert args.recovery is True
        assert args.duration == 0.0

    def test_controller_serves_for_duration(self, capsys):
        code = main(
            [
                "controller",
                "--nodes", "8",
                "--duration", "0.5",
                "--port", "0",
                "--no-recovery",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "controller: 8 nodes over loopback" in out
        assert "serving http://127.0.0.1:" in out

    def test_cluster_status_port_flag_defaults_off(self):
        args = build_parser().parse_args(["cluster", "--nodes", "8"])
        assert args.status_port is None
        args = build_parser().parse_args(
            ["cluster", "--nodes", "8", "--status-port", "0"]
        )
        assert args.status_port == 0

    def test_run_with_profile(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        name = "gap_breakdown_tsk-small"
        assert main(["run", name, "--profile", "--profile-top", "5"]) == 0
        out = capsys.readouterr().out
        assert "softstate_stretch" in out  # the table still prints
        assert f"-- profile ({name}, top 5 by cumulative) --" in out
        assert "cumulative" in out  # pstats header
