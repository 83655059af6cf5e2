"""``plan-sim`` and ``plan-sim-faulted``: profile -> plan -> simulate on a trace.

One *pass* is the whole pipeline over one OpenImages trace: vectorized
``build_records``, a planner (``DecisionEngine.plan``, or ``JointPlanner.plan``
on the faulted workload), then ``TrainerSim.run_epoch``.  The dataset is
metadata only, so codec, rpc and service do no work here.

- ``plan-sim``: 10^5 samples, AlexNet, 48 storage cores, 500 Mbps, fault
  free, so ``run_epoch`` takes the batched cursor engine.
- ``plan-sim-faulted``: 3*10^4 samples on 2 storage cores.  The joint
  planner's compression adjustments, a crash + brownout + corruption
  schedule placed at fractions of the plan's predicted epoch, and
  ``record_spans=True`` send ``run_epoch`` down the generator-process path.
"""

import collections
import dataclasses
import gc
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.bench import span_fingerprint, stats_fingerprint
from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.trainer import EpochStats, TrainerSim
from repro.compression.joint import JointPlanner
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.plan import OffloadPlan
from repro.data.catalog import make_openimages
from repro.faults import FaultSchedule
from repro.parallel import build_records
from repro.preprocessing.pipeline import standard_pipeline
from repro.telemetry.spans import BEGIN, END, trace_id
from repro.workloads.models import get_model_profile

from perfbench.common import (
    HostSpeed, Outcome, Unit, median, peak_rss_mb, percentile, repeat_setup,
    setup_seconds, tail,
)
from perfbench.tracing import SpanRecorder, covered_seconds, layer_self_seconds, layer_shares

#: (samples per pass, samples in the checked slice) per size.
SIZES = {
    "plan-sim": {"full": (100_000, 2_000), "smoke": (600, 200)},
    "plan-sim-faulted": {"full": (30_000, 1_000), "smoke": (400, 200)},
}


def fault_schedule(predicted_epoch_s: float, seed: int) -> FaultSchedule:
    """Crash, brownout and corruption at fixed fractions of the epoch."""
    epoch = predicted_epoch_s
    return (
        FaultSchedule(seed=seed)
        .with_crash(0.3 * epoch, duration=0.1 * epoch)
        .with_brownout(0.6 * epoch, duration=0.1 * epoch, bandwidth_factor=0.4)
        .with_corruption(0.02)
    )


@dataclasses.dataclass
class PassResult:
    records: Unit
    planning: Unit
    simulation: Unit
    plan: OffloadPlan
    stats: EpochStats
    compressed: int = 0

    def seconds(self, speed: HostSpeed) -> float:
        """The pass's scaled seconds (call after the run's last probe)."""
        return speed.total((self.records, self.planning, self.simulation))


class TraceSim:
    """One workload's inputs plus the pass that runs over them."""

    def __init__(self, faulted: bool, num_samples: int, seed: int) -> None:
        self.faulted = faulted
        self.seed = seed
        self.dataset = make_openimages(num_samples=num_samples, seed=seed)
        self.pipeline = standard_pipeline()
        self.spec: ClusterSpec = standard_cluster(storage_cores=2 if faulted else 48)
        self.model = get_model_profile("alexnet")
        self.trainer = TrainerSim(
            dataset=self.dataset, pipeline=self.pipeline, model=self.model,
            spec=self.spec, seed=seed,
        )
        self.gpu_time_s = self.model.epoch_gpu_time_s(num_samples)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def run_pass(self, speed: HostSpeed, kernel: str = "auto") -> PassResult:
        """Records, plan, simulate; each stage timed and scaled on its own."""
        records_unit, records = speed.run(
            lambda: build_records(
                self.pipeline, self.dataset, seed=self.seed, parallel="vectorized"
            )
        )
        if self.faulted:
            plan_unit, joint = speed.run(
                lambda: JointPlanner().plan(
                    records, self.pipeline, self.spec, self.gpu_time_s
                )
            )
            del records
            plan = joint.offload
            assert plan.expected is not None
            faults = fault_schedule(plan.expected.epoch_time_s, self.seed)
            sim_unit, stats = speed.run(
                lambda: self.trainer.run_epoch(
                    plan.splits,
                    epoch=0,
                    adjustments=joint.compression.adjustments(),
                    faults=faults,
                    record_spans=True,
                    kernel=kernel,
                )
            )
            compressed = joint.num_compressed
        else:
            plan_unit, plan = speed.run(
                lambda: DecisionEngine(DecisionConfig()).plan(
                    records, self.spec, self.gpu_time_s
                )
            )
            del records
            sim_unit, stats = speed.run(
                lambda: self.trainer.run_epoch(plan.splits, epoch=0, kernel=kernel)
            )
            compressed = 0
        return PassResult(records_unit, plan_unit, sim_unit, plan, stats, compressed)


def sample_latencies_s(stats: EpochStats, epoch: int = 0) -> Dict[int, float]:
    """Modelled fetch-to-ready time of each sample, from its spans.

    Raises ValueError unless every sample has exactly one ``sample.fetch``
    begin and end: every sample delivered, and delivered once.
    """
    if stats.spans is None:
        raise ValueError("the epoch ran without spans")
    opened: Dict[str, List[float]] = collections.defaultdict(list)
    closed: Dict[str, List[float]] = collections.defaultdict(list)
    for event in stats.spans.events:
        if event.name != "sample.fetch":
            continue
        if event.phase == BEGIN:
            opened[event.trace_id].append(event.t_s)
        elif event.phase == END:
            closed[event.trace_id].append(event.t_s)
    latencies = {}
    for sample_id in range(stats.num_samples):
        key = trace_id(sample_id, epoch)
        if len(opened[key]) != 1 or len(closed[key]) != 1:
            raise ValueError(
                f"sample {sample_id} fetched {len(opened[key])} times, "
                f"delivered {len(closed[key])} times"
            )
        latencies[sample_id] = closed[key][0] - opened[key][0]
    if len(opened) != stats.num_samples:
        raise ValueError(f"{len(opened)} traces for {stats.num_samples} samples")
    return latencies


def check_pass(result: PassResult, reference: Optional[PassResult], sim: TraceSim,
               outcome: Outcome) -> None:
    """One pass is one operation: it must cover the dataset and repeat."""
    stats = result.stats
    batches = math.ceil(sim.num_samples / sim.model.batch_size)
    ok = (
        stats.num_samples == sim.num_samples
        and stats.num_batches == batches
        and stats.offloaded_samples == result.plan.num_offloaded
        and len(result.plan.splits) == sim.num_samples
    )
    if ok and reference is not None:
        ok = stats_fingerprint(_slim(stats)) == stats_fingerprint(_slim(reference.stats))
    outcome.check(ok, f"pass over {sim.num_samples} samples diverged")


def check_slice(slice_sim: TraceSim, speed: HostSpeed, outcome: Outcome) -> Dict[int, float]:
    """Optimized kernel vs the frozen reference kernel on the small slice.

    The reference run records spans (which never change the simulated
    schedule), so it also yields the slice's modelled per-sample latencies
    and proves every sample is delivered exactly once.
    """
    fast = slice_sim.run_pass(speed, kernel="auto")
    if slice_sim.faulted:
        reference = slice_sim.run_pass(speed, kernel="reference").stats
        same = span_fingerprint(fast.stats) == span_fingerprint(reference)
    else:
        reference = slice_sim.trainer.run_epoch(
            fast.plan.splits, epoch=0, record_spans=True, kernel="reference"
        )
        same = True
    same = same and stats_fingerprint(_slim(fast.stats)) == stats_fingerprint(_slim(reference))
    outcome.check(same, "optimized kernel differs from the reference kernel")
    try:
        latencies = sample_latencies_s(reference)
    except ValueError as exc:
        outcome.check(False, f"slice delivery: {exc}")
        return {}
    outcome.check(True, "")
    return latencies


def _setup(workload: str, size: str, seed: int, speed: HostSpeed
           ) -> Tuple[List[Unit], Tuple[TraceSim, TraceSim]]:
    """Inputs and a warm-up pass over the check slice; (timed steps, sims)."""
    num_samples, slice_samples = SIZES[workload][size]
    faulted = workload == "plan-sim-faulted"
    build, sim = speed.run(lambda: TraceSim(faulted, num_samples, seed))
    make_slice, slice_sim = speed.run(lambda: TraceSim(faulted, slice_samples, seed))
    warm = slice_sim.run_pass(speed)  # first calls into every layer
    return [build, make_slice, warm.records, warm.planning, warm.simulation], (sim, slice_sim)


def _passes(sim: TraceSim, seconds: float, speed: HostSpeed, outcome: Outcome,
            first: Optional[PassResult] = None) -> Tuple[List[PassResult], List[float]]:
    """Passes for at least ``seconds``; returns them and the first one's
    modelled per-sample latencies (when the pass records spans)."""
    results: List[PassResult] = []
    latencies: List[float] = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        gc.collect()  # the previous pass's garbage, outside the timed stages
        speed.maybe_probe()
        result = sim.run_pass(speed)
        check_pass(result, first, sim, outcome)
        if result.stats.spans is not None and not results:
            try:
                latencies = list(sample_latencies_s(result.stats).values())
                outcome.check(True, "")
            except ValueError as exc:
                outcome.check(False, f"delivery: {exc}")
        # No pass keeps its ~10^5 span objects alive: they would change how
        # much the collector scans during the passes after it.
        result = dataclasses.replace(result, stats=_slim(result.stats))
        if first is None:
            first = result
        results.append(result)
    return results, latencies


def _slim(stats: EpochStats) -> EpochStats:
    """The stats without spans/timeline (fingerprints would deep-copy them)."""
    return dataclasses.replace(stats, spans=None, timeline=None)


def end_to_end(workload: str, seed: int, seconds: float, size: str
               ) -> Tuple[Outcome, Dict[str, float]]:
    outcome = Outcome()
    speed = HostSpeed()
    with speed.sampling():  # the stages are long and single-threaded
        setups, (sim, slice_sim) = repeat_setup(
            lambda: _setup(workload, size, seed, speed), times=5
        )
        passes, latencies = _passes(sim, seconds, speed, outcome)
    speed.probe()
    first = passes[0]
    n = sim.num_samples
    slice_latencies = list(check_slice(slice_sim, speed, outcome).values())
    if not sim.faulted:
        latencies = slice_latencies
    latencies = latencies or [0.0]
    plan_ms = [speed.scaled(p.planning) * 1e3 for p in passes]
    values = {
        "setup_s": setup_seconds(speed, setups),
        "peak_rss_mb": peak_rss_mb(),
        "pipeline_samples_per_s": n / median(p.seconds(speed) for p in passes),
        "sim_epoch_s": first.stats.epoch_time_s,
        "traffic_bytes_per_sample": first.stats.traffic_bytes / n,
        "epoch_samples_per_s": n / first.stats.epoch_time_s,
        "sample_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sample_latency_p95_ms": tail(latencies, 0.95) * 1e3,
        "plan_rps": 1e3 / median(plan_ms),
        "plan_latency_p50_ms": median(plan_ms),
        "plan_latency_p99_ms": tail(plan_ms, 0.99),
    }
    return outcome, values


def traced(workload: str, seed: int, seconds: float, size: str, spans_path: str
           ) -> Tuple[Outcome, Dict[str, float]]:
    """Half the window untraced, half traced; per-layer numbers from the latter."""
    outcome = Outcome()
    speed = HostSpeed()
    _, (sim, slice_sim) = _setup(workload, size, seed, speed)
    # Spans run on a clock that stops while a probe runs inside them.
    recorder = SpanRecorder(clock=lambda: time.perf_counter() - speed.probe_s)
    with speed.sampling():
        untraced, _ = _passes(sim, seconds / 2, speed, outcome)
        recorder.wrap(sys.modules[__name__], "build_records", "build_records", "parallel")
        recorder.wrap(DecisionEngine, "plan", "DecisionEngine.plan", "core")
        recorder.wrap(JointPlanner, "plan", "JointPlanner.plan", "compression")
        recorder.wrap(sim.trainer, "run_epoch", "TrainerSim.run_epoch", "cluster")
        timed_before = speed.timed_s
        try:
            traced_passes, _ = _passes(sim, seconds / 2, speed, outcome, first=untraced[0])
        finally:
            recorder.restore()
    # The passes' own stage time: probes, collection and checks excluded.
    window = speed.timed_s - timed_before
    speed.probe()
    recorder.write(spans_path)

    n = sim.num_samples
    stats = untraced[0].stats
    plan = untraced[0].plan
    spans = recorder.spans
    per_pass = len(traced_passes)

    def us_per_sample(name: str) -> float:
        found = recorder.named(name)
        return sum(s.duration for s in found) / (per_pass * n) * 1e6 if found else 0.0

    report = stats.faults
    values: Dict[str, float] = {
        "parallel.records_us_per_sample": us_per_sample("build_records"),
        "core.plan_us_per_sample": us_per_sample("DecisionEngine.plan"),
        "core.offloaded_share": plan.offload_fraction,
        "core.model_error": (
            (plan.expected.epoch_time_s - stats.epoch_time_s) / stats.epoch_time_s
            if plan.expected is not None else 0.0
        ),
        "compression.joint_plan_us_per_sample": us_per_sample("JointPlanner.plan"),
        "compression.compressed_share": untraced[0].compressed / n,
        "cluster.sim_us_per_sample": us_per_sample("TrainerSim.run_epoch"),
        "cluster.gpu_busy_share": stats.gpu_utilization,
        "cluster.link_busy_share": stats.link_utilization,
        "cluster.storage_cpu_busy_share": stats.storage_cpu_utilization,
        "cluster.compute_cpu_busy_share": stats.compute_cpu_utilization,
        "faults.demoted_samples": report.demoted_samples if report else 0,
        "faults.corrupt_retries": report.corrupt_retries if report else 0,
        "faults.offload_failure_share": (
            report.offload_failures / report.offload_attempts
            if report and report.offload_attempts else 0.0
        ),
        "faults.recovery_latency_s": (
            report.recovery_latency_s or 0.0 if report else 0.0
        ),
    }
    self_s = layer_self_seconds(spans)
    covered = covered_seconds(spans, ["MainThread"])
    values.update(layer_shares(self_s, covered, window))
    untraced_pass = median(p.seconds(speed) for p in untraced)
    traced_pass = median(p.seconds(speed) for p in traced_passes)
    values["trace.overhead_share"] = traced_pass / untraced_pass - 1.0
    check_slice(slice_sim, speed, outcome)
    return outcome, values
