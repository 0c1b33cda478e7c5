"""Prometheus text exposition (format 0.0.4): renderer and mini-parser.

The renderer turns the management plane's ``/stats`` and ``/health``
snapshots into the plain-text format every Prometheus scraper speaks:
one ``# HELP`` and ``# TYPE`` line per metric family followed by its
samples, label values escaped per the spec (backslash, double-quote
and newline).  Families and samples are emitted sorted, so a scrape
of an idle cluster is byte-deterministic.

The parser is the validation half: it re-reads an exposition
strictly -- families must be declared before their samples, types
must be known, label syntax and float values must parse, duplicate
samples are rejected -- and returns the samples grouped by family.
The endpoint tests and the ``mgmt`` scenario of ``scripts/smoke.py``
run every ``/metrics`` response through it, so a malformed exposition
can not ship silently.
"""

from __future__ import annotations

import math
import re

#: metric and label names must match the Prometheus data model
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition spec."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _unescape_label_value(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_value(value) -> str:
    """Render a sample value: integers stay integral, floats use repr."""
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if math.isnan(number):
        return "NaN"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class MetricFamily:
    """One named metric with its type, help text and samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unsupported metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        #: list of ``(labels_dict, value)``
        self.samples: list = []

    def add(self, labels: dict, value) -> "MetricFamily":
        """Append one sample (labels may be empty)."""
        for label in labels:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.samples.append((dict(labels), value))
        return self

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in sorted(
            self.samples, key=lambda sample: sorted(sample[0].items())
        ):
            if labels:
                body = ",".join(
                    f'{name}="{escape_label_value(labels[name])}"'
                    for name in sorted(labels)
                )
                lines.append(f"{self.name}{{{body}}} {format_value(value)}")
            else:
                lines.append(f"{self.name} {format_value(value)}")
        return "\n".join(lines)


#: numeric encoding of the /health status served as a gauge
HEALTH_STATUS_VALUES = {"healthy": 0, "degraded": 1, "unhealthy": 2}


def stats_families(stats: dict, health: dict = None) -> list:
    """Build the metric families for a ``/stats`` (+ ``/health``) snapshot."""
    families = []

    events = MetricFamily(
        "repro_events_total",
        "counter",
        "Telemetry counts by name (occurrences; backoff_ms is milliseconds).",
    )
    for name, value in stats.get("events", {}).items():
        events.add({"event": name}, value)
    families.append(events)

    gauges = MetricFamily(
        "repro_gauge", "gauge", "Last-written telemetry gauges by name."
    )
    for name, value in stats.get("gauges", {}).items():
        gauges.add({"name": name}, value)
    families.append(gauges)

    phase_wall = MetricFamily(
        "repro_phase_wall_seconds_total",
        "counter",
        "Wall seconds accumulated per instrumented phase.",
    )
    phase_entries = MetricFamily(
        "repro_phase_entries_total",
        "counter",
        "Times each instrumented phase was entered.",
    )
    for name, acc in sorted(stats.get("phases", {}).items()):
        phase_wall.add({"phase": name}, acc.get("wall_s", 0.0))
        phase_entries.add({"phase": name}, acc.get("entries", 0))
    families.extend((phase_wall, phase_entries))

    transport = MetricFamily(
        "repro_transport_frames_total",
        "counter",
        "Wire frames by transport accounting category.",
    )
    for name, value in stats.get("transport_counters", {}).items():
        transport.add({"category": name}, value)
    families.append(transport)

    overload = MetricFamily(
        "repro_overload_total",
        "counter",
        "Overload-protection accounting (sheds, BUSY replies, breaker trips).",
    )
    breakers_open = MetricFamily(
        "repro_breakers_open",
        "gauge",
        "Circuit breakers currently not closed, cluster-wide.",
    )
    for name, value in stats.get("overload", {}).items():
        if name == "breakers_open_now":
            breakers_open.add({}, value)
        else:
            overload.add({"kind": name}, value)
    families.extend((overload, breakers_open))

    retries = stats.get("retries", {})
    retry_family = MetricFamily(
        "repro_request_retries_total",
        "counter",
        "Request resends charged to the cluster-wide retry policy.",
    )
    retry_family.add({}, retries.get("retries", 0))
    families.append(retry_family)

    shards = MetricFamily(
        "repro_shards", "gauge", "Worker processes the membership is sharded across."
    )
    shards.add({}, stats.get("shards", 1))
    families.append(shards)

    if health is not None:
        status = MetricFamily(
            "repro_health_status",
            "gauge",
            "Cluster health: 0 healthy, 1 degraded, 2 unhealthy.",
        )
        status.add({}, HEALTH_STATUS_VALUES.get(health.get("status"), 2))
        members = MetricFamily(
            "repro_members", "gauge", "Members the overlay currently lists."
        )
        members.add({}, health.get("members", 0))
        live = MetricFamily(
            "repro_members_live", "gauge", "Members whose verdict is alive."
        )
        live.add({}, health.get("live", 0))
        suspected = MetricFamily(
            "repro_members_suspected",
            "gauge",
            "Members under active SWIM suspicion.",
        )
        suspected.add({}, len(health.get("recovery", {}).get("suspected", {})))
        partitions = MetricFamily(
            "repro_partitions_active", "gauge", "Active partition windows."
        )
        partitions.add({}, health.get("partitions_active", 0))
        families.extend((status, members, live, suspected, partitions))

    return families


def render_exposition(families) -> str:
    """Join rendered families into one exposition document."""
    return "\n".join(family.render() for family in families) + "\n"


def render_prometheus(stats: dict, health: dict = None) -> str:
    """``/stats`` (+ optional ``/health``) as Prometheus text exposition."""
    return render_exposition(stats_families(stats, health))


def parse_exposition(text: str) -> dict:
    """Strictly parse an exposition; raises ``ValueError`` on any flaw.

    Returns ``{family: {"type", "help", "samples": [(labels, value)]}}``.
    Enforces: ``# TYPE`` before samples, known types, valid metric and
    label syntax, parseable float values, no duplicate (name, labels)
    sample and no sample outside a declared family.
    """
    families: dict = {}
    seen: set = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            if not parts or not _NAME_RE.match(parts[0]):
                raise ValueError(f"line {lineno}: malformed HELP line {line!r}")
            families.setdefault(
                parts[0], {"type": None, "help": None, "samples": []}
            )["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2 or not _NAME_RE.match(parts[0]):
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            families.setdefault(name, {"type": None, "help": None, "samples": []})[
                "type"
            ] = kind
            current = name
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        family = families.get(name)
        if family is None or family["type"] is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} precedes its # TYPE declaration"
            )
        if current != name:
            raise ValueError(
                f"line {lineno}: sample {name!r} outside its family block"
            )
        labels = {}
        body = match.group("labels")
        if body is not None:
            consumed = 0
            for found in _LABEL_RE.finditer(body):
                labels[found.group("name")] = _unescape_label_value(
                    found.group("value")
                )
                consumed = found.end()
                if consumed < len(body) and body[consumed] == ",":
                    consumed += 1
            if consumed != len(body):
                raise ValueError(f"line {lineno}: malformed labels {{{body}}}")
        value_text = match.group("value")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: unparseable value {value_text!r}"
            ) from exc
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        seen.add(key)
        family["samples"].append((labels, value))
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has HELP but no TYPE")
    return families


def counter_samples(families: dict) -> dict:
    """Every ``counter``-typed sample of a parsed exposition, by name.

    ``{"family{label=value,...}": value}``: the samples that may never
    read lower on a later scrape of the same process.
    """
    return {
        name + "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}": value
        for name, family in families.items()
        if family["type"] == "counter"
        for labels, value in family["samples"]
    }
