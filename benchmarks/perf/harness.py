"""Measurement plumbing shared by every workload.

The build box is a 2-vCPU microVM whose speed wanders by a factor of
two on every time scale from milliseconds to minutes (the same loop
took 3.6-11 ms within one minute while this file was written).  A
wall-clock number taken on its own therefore has a run-to-run spread
of 20-30 %, which no regression bound survives.  Two things make the
numbers steady:

* the timed phase is cut into short **slices** (tens of ms), and a
  fixed pure-python **calibration** mini-workload (:func:`calibrate`)
  is timed immediately before and after every slice;
* every CPU-bound time is converted, slice by slice, into the time a
  *reference box* would have taken -- one on which the calibration
  takes :data:`CALIB_REF_MS` -- and the workload's value is the
  **median over slices** (throughput, CPU per op) or a percentile of
  the pooled, rescaled samples (latency).

Because the calibration runs within milliseconds of the work it
rescales, both see the same neighbour noise and the ratio is steady
to 2-3 % where the raw numbers move 20 %.  The calibration allocates
objects, probes dicts, calls functions and encodes small payloads so
that contention slows it by the same factor as the runtime (a tight
arithmetic loop slowed down 1.5x when the runtime slowed 1.3x).

:func:`calibrate` is part of the metric definition: changing it
changes every ``*_ref`` number, so it must never be edited.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import struct
import time

import numpy as np

#: the reference box: one on which :func:`calibrate` takes this long
CALIB_REF_MS = 4.0

_CALIB_STRUCT = struct.Struct("!IdH")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class _CalibObject:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def _calib_step(obj, table):
    key = (obj.a * 31 + len(obj.c)) & 1023
    bucket = table.get(key)
    if bucket is None:
        table[key] = bucket = [obj.b]
    else:
        bucket.append(obj.b)
        if len(bucket) > 8:
            del bucket[:4]
    return min(bucket)


def calibrate() -> float:
    """Wall milliseconds of the fixed calibration mini-workload."""
    began = time.perf_counter()
    table = {}
    acc = 0.0
    pack = _CALIB_STRUCT.pack
    for i in range(1500):
        obj = _CalibObject(i, i * 0.37 % 1.0, [i, i + 1, i + 2])
        acc += _calib_step(obj, table)
        payload = {
            "point": [obj.b, 1.0 - obj.b],
            "path": obj.c + [i + 3],
            "op": "lookup",
            "src": i & 63,
        }
        if i % 8 == 0:
            data = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        else:
            data = pack(i, obj.b, i & 0xFFFF)
        acc += len(data)
    return (time.perf_counter() - began) * 1e3


def process_cpu_s(pid: int) -> float:
    """CPU seconds another process has used so far.

    ``/proc/<pid>/schedstat`` counts the main thread's time on a CPU
    in nanoseconds (a shard worker's event loop is its main thread);
    ``/proc/<pid>/stat`` is the fallback, in 10 ms clock ticks.
    """
    try:
        with open(f"/proc/{pid}/schedstat") as stat:
            return int(stat.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def digest(*parts) -> str:
    """Short stable hash of generated inputs (lists, tuples, arrays)."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return sha.hexdigest()[:16]


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Recorder:
    """Per-slice accounting of one timed phase.

    ``cpu_bound`` says whether the workload's wall times scale with
    the box's speed (closed loops and the simulator: yes) or with a
    schedule (the open loop: no).  Only CPU-bound wall times are
    rescaled to the reference box; CPU time always is.
    """

    def __init__(self, cpu_bound: bool = True):
        self.cpu_bound = cpu_bound
        self.calib_ms = []
        self.ops = []
        self.wall_s = []
        self.cpu_s = []
        #: pooled latency samples in ms (rescaled when ``cpu_bound``)
        self.latencies_ms = []

    def add(self, calib_ms, ops, wall_s, cpu_s, latencies_s=()):
        """Record one slice; ``calib_ms`` is the mean of the two
        calibrations that bracket it."""
        self.calib_ms.append(calib_ms)
        self.ops.append(ops)
        self.wall_s.append(wall_s)
        self.cpu_s.append(cpu_s)
        scale = 1e3 * (CALIB_REF_MS / calib_ms if self.cpu_bound else 1.0)
        self.latencies_ms.extend(sample * scale for sample in latencies_s)

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    def ops_per_s_ref(self) -> float:
        """Median over slices of throughput on the reference box."""
        rates = []
        for calib, ops, wall in zip(self.calib_ms, self.ops, self.wall_s):
            scale = calib / CALIB_REF_MS if self.cpu_bound else 1.0
            rates.append(ops / wall * scale)
        return quantile(rates, 50)

    def cpu_us_per_op(self) -> float:
        """Median over slices of reference-box CPU microseconds per op."""
        costs = [
            cpu / ops * 1e6 * CALIB_REF_MS / calib
            for calib, ops, cpu in zip(self.calib_ms, self.ops, self.cpu_s)
            if ops
        ]
        return quantile(costs, 50)

    def raw_ops_per_s(self) -> float:
        return self.total_ops / sum(self.wall_s)

    def latency(self, q: float) -> float:
        return quantile(self.latencies_ms, q)

    def end_to_end(self) -> dict:
        return {
            "ops_per_s_ref": self.ops_per_s_ref(),
            "cpu_us_per_op": self.cpu_us_per_op(),
            "p50_ms": self.latency(50),
        }

    def tails(self) -> dict:
        """Upper percentiles of the pooled samples.  On a shared box
        these are the neighbours' bursts as much as the system's, so
        they are reported per layer, without a bound (README)."""
        return {
            "gen.p90_ms": self.latency(90),
            "gen.p99_ms": self.latency(99),
            "gen.p999_ms": self.latency(99.9),
            "gen.latency_samples": float(len(self.latencies_ms)),
        }


class ReferenceTimer:
    """``with ReferenceTimer() as t: ...`` then ``t.seconds``: the block's
    wall time on the reference box.

    For blocks too long for slices (set-ups, a burst of pings): three
    calibrations are taken before and three after, because one 3 ms
    sample is a poor estimate of the box's speed around seconds of work.
    """

    def __enter__(self):
        self._before = float(np.median([calibrate() for _ in range(3)]))
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self._began
        after = float(np.median([calibrate() for _ in range(3)]))
        #: reference-box seconds per wall second around the block
        self.scale = 2.0 * CALIB_REF_MS / (self._before + after)
        self.seconds = elapsed * self.scale


class Calibrated:
    """Runs slices with a calibration before and after each one.

    Adjacent slices share the calibration between them, so a phase of
    N slices costs N + 1 calibrations.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._before = None

    def begin(self) -> None:
        self._before = calibrate()

    def record(self, ops, wall_s, cpu_s, latencies_s=()) -> None:
        after = calibrate()
        self.recorder.add((self._before + after) / 2.0, ops, wall_s, cpu_s, latencies_s)
        self._before = after
