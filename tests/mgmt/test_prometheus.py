"""Prometheus exposition: renderer output, escaping, parser strictness."""

import pytest

from repro.mgmt.prometheus import (
    HEALTH_STATUS_VALUES,
    MetricFamily,
    escape_label_value,
    format_value,
    parse_exposition,
    render_exposition,
    render_prometheus,
    stats_families,
)


def minimal_stats(**overrides):
    stats = {
        "events": {"probe": 5, "backoff_ms": 12.5},
        "gauges": {"overlay_size": 64},
        "phases": {"routing": {"sim_ms": 1.0, "wall_s": 0.25, "entries": 3}},
        "transport_counters": {"sent": 10, "delivered": 9, "dropped": 1},
        "overload": {"shed": 2, "breakers_open_now": 1},
        "retries": {"retries": 4, "backoff_ms": 80.0},
        "shards": 2,
    }
    stats.update(overrides)
    return stats


class TestRenderer:
    def test_help_and_type_precede_samples(self):
        text = render_prometheus(minimal_stats())
        lines = text.splitlines()
        for family in (
            "repro_events_total",
            "repro_gauge",
            "repro_transport_frames_total",
            "repro_overload_total",
            "repro_request_retries_total",
            "repro_shards",
        ):
            help_at = lines.index(f"# HELP {family} " + _help_of(lines, family))
            type_at = next(
                i for i, l in enumerate(lines)
                if l.startswith(f"# TYPE {family} ")
            )
            sample_at = next(
                i for i, l in enumerate(lines)
                if l.startswith(family) and not l.startswith("#")
            )
            assert help_at < type_at < sample_at

    def test_health_families_present_when_health_given(self):
        health = {
            "status": "degraded",
            "members": 8,
            "live": 7,
            "recovery": {"suspected": {"3": 1}},
            "partitions_active": 1,
        }
        text = render_prometheus(minimal_stats(), health)
        parsed = parse_exposition(text)
        assert parsed["repro_health_status"]["samples"] == [
            ({}, float(HEALTH_STATUS_VALUES["degraded"]))
        ]
        assert parsed["repro_members"]["samples"] == [({}, 8.0)]
        assert parsed["repro_members_live"]["samples"] == [({}, 7.0)]
        assert parsed["repro_members_suspected"]["samples"] == [({}, 1.0)]
        assert parsed["repro_partitions_active"]["samples"] == [({}, 1.0)]

    def test_no_health_families_without_health(self):
        parsed = parse_exposition(render_prometheus(minimal_stats()))
        assert "repro_health_status" not in parsed
        assert parsed["repro_shards"]["type"] == "gauge"
        assert parsed["repro_events_total"]["type"] == "counter"

    def test_breakers_open_now_splits_into_gauge(self):
        parsed = parse_exposition(render_prometheus(minimal_stats()))
        assert parsed["repro_breakers_open"]["samples"] == [({}, 1.0)]
        kinds = {
            labels["kind"]
            for labels, _ in parsed["repro_overload_total"]["samples"]
        }
        assert "shed" in kinds and "breakers_open_now" not in kinds

    def test_rendering_is_deterministic_and_sorted(self):
        text = render_prometheus(minimal_stats())
        assert text == render_prometheus(minimal_stats())
        family = MetricFamily("demo_total", "counter", "Demo.")
        family.add({"name": "zeta"}, 1).add({"name": "alpha"}, 2)
        rendered = family.render().splitlines()
        assert rendered[2] == 'demo_total{name="alpha"} 2'
        assert rendered[3] == 'demo_total{name="zeta"} 1'

    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"
        assert format_value(2.5) == "2.5"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("nan")) == "NaN"

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="metric name"):
            MetricFamily("bad-name", "counter", "x")
        with pytest.raises(ValueError, match="metric type"):
            MetricFamily("ok_name", "histogram", "x")
        with pytest.raises(ValueError, match="label name"):
            MetricFamily("ok_name", "counter", "x").add({"bad-label": "v"}, 1)


class TestEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_hostile_label_round_trips_through_parser(self):
        hostile = 'quote:" backslash:\\ newline:\n end'
        family = MetricFamily("demo_total", "counter", "Demo.")
        family.add({"name": hostile}, 7)
        parsed = parse_exposition(render_exposition([family]))
        ((labels, value),) = parsed["demo_total"]["samples"]
        assert labels == {"name": hostile}
        assert value == 7.0


class TestParserStrictness:
    def test_sample_before_type_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            parse_exposition("demo_total 1\n# TYPE demo_total counter\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_exposition("# TYPE demo_total widget\ndemo_total 1\n")

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_exposition(
                "# TYPE demo_total counter\ndemo_total{name=unquoted} 1\n"
            )

    def test_unparseable_value_rejected(self):
        with pytest.raises(ValueError, match="unparseable value"):
            parse_exposition("# TYPE demo_total counter\ndemo_total one\n")

    def test_duplicate_sample_rejected(self):
        with pytest.raises(ValueError, match="duplicate sample"):
            parse_exposition(
                "# TYPE demo_total counter\ndemo_total 1\ndemo_total 2\n"
            )

    def test_sample_outside_family_block_rejected(self):
        text = (
            "# TYPE a_total counter\n"
            "# TYPE b_total counter\n"
            "a_total 1\n"
        )
        with pytest.raises(ValueError, match="outside its family block"):
            parse_exposition(text)

    def test_help_without_type_rejected(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_exposition("# HELP demo_total Demo.\n")

    def test_full_render_parse_round_trip(self):
        families = stats_families(minimal_stats())
        parsed = parse_exposition(render_exposition(families))
        assert set(parsed) == {f.name for f in families}
        for family in families:
            assert parsed[family.name]["type"] == family.kind
            assert len(parsed[family.name]["samples"]) == len(family.samples)


def _help_of(lines, family):
    prefix = f"# HELP {family} "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise AssertionError(f"no HELP line for {family}")
