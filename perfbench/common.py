"""Shared pieces of the benchmark: metric names and units, timing, results.

Every workload reports every end-to-end metric (untraced runs) and every
per-layer metric (traced runs).  ``END_TO_END_UNITS`` and ``PER_LAYER_UNITS``
are the tables of names and units the workloads emit; ``perfbench/tests``
checks them against ``BENCHMARK.json``.
"""

import contextlib
import dataclasses
import heapq
import math
import os
import resource
import signal
import statistics
import time
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Spans and scratch files go here, inside the checkout (git-ignored).
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench-out"
)

#: The pipeline every image workload runs (``standard_pipeline()``).
OP_NAMES = ("Decode", "RandomResizedCrop", "RandomHorizontalFlip", "ToTensor", "Normalize")

#: Layers are the program's modules; self time is reported for each.
LAYERS = (
    "data", "parallel", "core", "compression", "cluster",
    "faults", "codec", "preprocessing", "rpc", "service",
)

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pipeline_samples_per_s": "1/s",
    "sim_epoch_s": "s",
    "traffic_bytes_per_sample": "B",
    "epoch_samples_per_s": "1/s",
    "sample_latency_p50_ms": "ms",
    "sample_latency_p95_ms": "ms",
    "plan_rps": "1/s",
    "plan_latency_p50_ms": "ms",
    "plan_latency_p99_ms": "ms",
}

PER_LAYER_UNITS: Dict[str, str] = {
    "parallel.records_us_per_sample": "us",
    "core.plan_us_per_sample": "us",
    "core.offloaded_share": "share",
    "core.model_error": "share",
    "compression.joint_plan_us_per_sample": "us",
    "compression.compressed_share": "share",
    "cluster.sim_us_per_sample": "us",
    "cluster.gpu_busy_share": "share",
    "cluster.link_busy_share": "share",
    "cluster.storage_cpu_busy_share": "share",
    "cluster.compute_cpu_busy_share": "share",
    "faults.demoted_samples": "count",
    "faults.corrupt_retries": "count",
    "faults.offload_failure_share": "share",
    "faults.recovery_latency_s": "s",
    "data.materialize_ms_per_sample": "ms",
    "codec.encode_mb_per_s": "MB/s",
    "codec.decode_mb_per_s": "MB/s",
    **{f"preprocessing.client_op_ms.{op}": "ms" for op in OP_NAMES},
    **{f"preprocessing.server_op_ms.{op}": "ms" for op in OP_NAMES},
    "rpc.fetch_ms_p50": "ms",
    "rpc.fetch_ms_p95": "ms",
    "rpc.server_handle_ms.raw": "ms",
    "rpc.server_handle_ms.offloaded": "ms",
    "rpc.transport_ms_mean": "ms",
    "rpc.bytes_per_fetch": "B",
    "rpc.offloaded_fetch_share": "share",
    "rpc.fetch_errors": "count",
    "service.planner_ms_p50": "ms",
    "service.planner_ms_p99": "ms",
    "service.records_cache_hit_ratio": "share",
    "service.journal_append_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.replayed_share": "share",
    "service.shed_share": "share",
    "service.retries": "count",
    "service.queue_max_depth": "count",
    **{f"self_share.{layer}": "share" for layer in LAYERS},
    "residual_share": "share",
    "trace.overhead_share": "share",
}


def calibration_work() -> float:
    """Fixed work that uses nothing of the program, shaped like its planners.

    A heap-ordered greedy over a few thousand tuples with dict updates
    (the decision engine's kind of interpreter work) plus numpy passes over
    a 256 KB array; about 2 ms on the box this was tuned on.
    """
    heap = [(-((i * 7919) % 10007) / 10007.0, i) for i in range(1200)]
    heapq.heapify(heap)
    table: Dict[int, float] = {}
    total = 0.0
    while heap:
        value, index = heapq.heappop(heap)
        table[index & 255] = table.get(index & 255, 0.0) - value
        total += value * 0.5
    values = np.arange(32768, dtype=np.float64)
    for _ in range(4):
        values = np.sqrt(values * values + 1.0)
    return total + float(values[-1])


@dataclasses.dataclass(frozen=True)
class Unit:
    """One timed unit of work: wall interval and raw seconds inside it."""

    start: float
    end: float
    raw: float


class HostSpeed:
    """Scales timings to a fixed host speed, measured by a calibration loop.

    The CPU speed this benchmark sees drifts by up to +-30% over tens of
    seconds on a shared machine, for pure-Python and numpy work alike.
    Probes (the best of three runs of :func:`calibration_work`) are taken
    between units of work, at least every ``PROBE_EVERY_S``, and inside
    :meth:`sampling` also from a timer signal while a long unit runs.
    After the run, a unit's raw time (less the probes inside it) is scaled
    by ``REFERENCE_S / median(probes during the unit)``, or of the probes
    within ``WINDOW_S`` of it when fewer than three fell inside: the time
    it would take on a host where the probe takes ``REFERENCE_S``.  One
    probe is too noisy to scale by alone; the median of several is not.
    """

    #: Calibration time the reported figures are scaled to.
    REFERENCE_S = 0.002
    WINDOW_S = 2.0
    PROBE_EVERY_S = 0.25

    def __init__(self) -> None:
        #: (wall time, probe seconds) of every probe.
        self.probes: List[Tuple[float, float]] = []
        #: Wall seconds spent probing so far (excluded from timed units).
        self.probe_s = 0.0
        #: Raw seconds of every unit timed by :meth:`run` so far.
        self.timed_s = 0.0
        self._probing = False
        self.probe()

    def probe(self) -> None:
        if self._probing:  # a timer signal landed inside a probe
            return
        self._probing = True
        try:
            best = math.inf
            entered = time.perf_counter()
            for _ in range(3):
                started = time.perf_counter()
                calibration_work()
                best = min(best, time.perf_counter() - started)
            left = time.perf_counter()
            self.probe_s += left - entered
            self.probes.append(((entered + left) / 2.0, best))
        finally:
            self._probing = False

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Also probe from a SIGALRM timer, inside long units.

        For single-threaded work on the main thread only: the probe runs in
        the signal handler, between the interrupted code's bytecodes.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S, self.PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def maybe_probe(self) -> None:
        """Probe unless the last probe is recent."""
        if time.perf_counter() - self.probes[-1][0] >= self.PROBE_EVERY_S:
            self.probe()

    def run(self, fn: Callable[[], T]) -> Tuple[Unit, T]:
        """Time ``fn()`` (less any probes it makes itself), then maybe probe."""
        probing = self.probe_s
        started = time.perf_counter()
        result = fn()
        ended = time.perf_counter()
        unit = Unit(started, ended, ended - started - (self.probe_s - probing))
        self.timed_s += unit.raw
        self.maybe_probe()
        return unit, result

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe near [start, end].

        Call after the run's last probe, so units at its end have probes
        on both sides.
        """
        near = [p for t, p in self.probes if start <= t <= end]
        if len(near) < 3:
            near = [
                p for t, p in self.probes if start - self.WINDOW_S <= t <= end + self.WINDOW_S
            ]
        if not near:
            middle = (start + end) / 2.0
            near = [p for _, p in sorted(self.probes, key=lambda tp: abs(tp[0] - middle))[:3]]
        return self.REFERENCE_S / median(near)

    def scaled(self, unit: Unit) -> float:
        return unit.raw * self.factor(unit.start, unit.end)

    def total(self, units: Iterable[Unit]) -> float:
        return sum(self.scaled(unit) for unit in units)


class BenchError(Exception):
    """The benchmark cannot produce a result (bad arguments, missing program)."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]; ``inf`` entries sort last."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail(values: Sequence[float], q: float) -> float:
    """The ``q`` percentile, or the highest one with ten values beyond it.

    A percentile with fewer than ten values beyond it is one or two
    outliers, not a tail: with 30 values "p99" reads as p66, and with
    fewer than 20 it reads as the median.
    """
    reachable = 1.0 - 10.0 / len(values)
    if reachable < 0.5:
        return median(values)
    return percentile(values, min(q, reachable))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(
    setup: Callable[[], Tuple[List[Unit], R]], times: int = 3
) -> Tuple[List[List[Unit]], R]:
    """Run ``setup`` ``times`` times; returns (each set-up's units, last result).

    ``setup`` times its own steps.  Earlier results are handed to their
    ``close()`` (when they have one) before the next set-up starts, so only
    one set-up's resources live.
    """
    units: List[List[Unit]] = []
    result: Optional[R] = None
    for _ in range(times):
        if result is not None and hasattr(result, "close"):
            result.close()
        steps, result = setup()
        units.append(steps)
    assert result is not None
    return units, result


def setup_seconds(speed: HostSpeed, setups: List[List[Unit]]) -> float:
    """Median over set-ups of each one's scaled seconds."""
    return median(speed.total(steps) for steps in setups)


class Outcome:
    """Operations attempted and failed, plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; a False check is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def result_line(
    outcome: Outcome,
    values: Dict[str, float],
    units: Dict[str, str],
    idle_is_zero: bool = False,
) -> Dict[str, object]:
    """The final JSON object: every metric of ``units``, in table order.

    With ``idle_is_zero`` (per-layer metrics) a metric the workload did not
    measure is a layer doing no work there and reads 0; otherwise every
    metric must have been measured.
    """
    unknown = sorted(set(values) - set(units))
    missing = [name for name in units if name not in values]
    if unknown or (missing and not idle_is_zero):
        raise BenchError(f"workload measured {unknown}, did not measure {missing}")
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
