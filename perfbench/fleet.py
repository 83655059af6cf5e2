"""``service-fleet``: a closed loop of trainers against the decision service.

An in-process ``DecisionService`` with a durable journal (fsync on every
append) runs in a scratch directory.  Two client threads send plan
requests back to back (closed loop, zero think time) and release their
job's cores every few grants.  The request mix:

- most requests ask for one of a few *hot* job shapes, whose profiled
  records sit in the planner's 8-entry LRU, so they pay only the
  decision-engine sweep and the journal append;
- some repeat the client's previous request exactly, which the service
  answers from its grant table (a replay);
- a minority ask for a shape never seen before, which misses the LRU and
  forces the planner's sequential record build.  They are sized so that
  p99 latency falls among them, not in scheduler noise.

Every request is well inside its deadline; none is expected to fail.
"""

import dataclasses
import os
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import repro.core.policy
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.data.catalog import make_openimages
from repro.preprocessing.pipeline import standard_pipeline
from repro.service.client import PlanGrant, ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.journal import PlanJournal
from repro.service.planner import JobSpec, ServicePlanner
from repro.service.server import DecisionService
from repro.workloads.models import get_model_profile

from perfbench.common import (
    OUT_DIR, HostSpeed, Outcome, Unit, median, peak_rss_mb, percentile, repeat_setup,
    setup_seconds, tail,
)
from perfbench.plansim import sample_latencies_s
from perfbench.tracing import SpanRecorder, covered_seconds, layer_self_seconds, layer_shares

#: (samples per planned job, number of hot shapes) per size.
SIZES = {"full": (128, 4), "smoke": (24, 2)}
MISS_SHARE = 0.06
REPLAY_SHARE = 0.15
RELEASE_EVERY = 8
CORES = (4, 8, 12)
CLIENTS = 2
DEADLINE_S = 10.0


@dataclasses.dataclass
class Request:
    """One plan request as a client sent and experienced it."""

    job: str
    num_samples: int
    data_seed: int
    cores: int
    hot: bool
    started: float = 0.0
    latency_s: float = 0.0  # raw; a failed request counts as the deadline
    grant: Optional[PlanGrant] = None

    def latency(self, speed: HostSpeed) -> float:
        if self.grant is None:
            return self.latency_s
        return self.latency_s * speed.factor(self.started, self.started + self.latency_s)

    def spec(self) -> JobSpec:
        return JobSpec(
            job=self.job, dataset="openimages", num_samples=self.num_samples,
            seed=self.data_seed, model="alexnet", gpu="rtx6000",
            storage_cores=self.cores,
        )


def hot_seeds(seed: int, shapes: int) -> List[int]:
    return [seed * 64 + shape for shape in range(shapes)]


class Fleet:
    """One set-up: a started service on a fresh journal, hot shapes cached."""

    def __init__(self, seed: int, size: str, speed: HostSpeed) -> None:
        """Every step is timed on its own into ``steps``."""
        self.seed = seed
        self.job_samples, shapes = SIZES[size]
        self.hot = hot_seeds(seed, shapes)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="fleet-", dir=OUT_DIR)
        self.closed = False
        step, self.service = speed.run(lambda: DecisionService(ServiceConfig(
            journal_path=os.path.join(self.workdir, "journal.jsonl"),
            sync_journal=True,
            workers=2,
        )).start())
        self.steps: List[Unit] = [step]
        warm = ServiceClient(self.service.address, deadline_s=DEADLINE_S, seed=seed)
        for data_seed in self.hot:
            self.steps.append(speed.run(lambda: warm.plan(
                "warm-up", num_samples=self.job_samples, seed=data_seed,
                storage_cores=CORES[0],
            ))[0])
        self.steps.append(speed.run(lambda: warm.release("warm-up"))[0])

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.service.drain()
            shutil.rmtree(self.workdir, ignore_errors=True)


class Client:
    """One trainer: its connection, request stream and job state."""

    def __init__(self, fleet: Fleet, index: int, salt: int) -> None:
        self.fleet = fleet
        self.index = index
        self.salt = salt
        self.rng = random.Random(f"{fleet.seed}/{salt}/{index}")
        self.client = ServiceClient(
            fleet.service.address, deadline_s=DEADLINE_S, seed=fleet.seed * 7 + index
        )
        self.job_index = self.grants = self.fresh = 0
        self.last: Optional[Request] = None

    def next_request(self) -> Request:
        job = f"c{self.index}-s{self.salt}-j{self.job_index}"
        draw = self.rng.random()
        if self.last is not None and draw < REPLAY_SHARE:
            return dataclasses.replace(self.last, grant=None)
        fleet = self.fleet
        if draw < REPLAY_SHARE + MISS_SHARE:
            self.fresh += 1
            data_seed = 1_000_000 * (1 + self.index) + 10_000 * self.salt + self.fresh
            return Request(job, fleet.job_samples, data_seed, self.rng.choice(CORES),
                           hot=False)
        return Request(job, fleet.job_samples, self.rng.choice(fleet.hot),
                       self.rng.choice(CORES), hot=True)

    def run_until(self, end: float, loop: "Loop") -> None:
        """Closed loop: the next request goes out when the last one returns."""
        while time.perf_counter() < end:
            request = self.next_request()
            request.started = time.perf_counter()
            try:
                request.grant = self.client.plan(
                    request.job, num_samples=request.num_samples,
                    seed=request.data_seed, storage_cores=request.cores,
                )
                request.latency_s = time.perf_counter() - request.started
            except ServiceError as exc:
                # A failed request misses every latency limit.
                request.latency_s = DEADLINE_S
                loop.record(request, f"plan {request.job}: {exc}")
            else:
                loop.record(request, None)
            self.last = request if request.grant is not None else None
            if request.grant is None:
                continue
            self.grants += 1
            if self.grants % RELEASE_EVERY == 0:
                try:
                    self.client.release(request.job)
                    loop.record(None, None)
                except ServiceError as exc:
                    loop.record(None, f"release {request.job}: {exc}")
                self.job_index += 1
                self.last = None


class Loop:
    """``CLIENTS`` closed-loop client threads for ``seconds``, in slices.

    Between slices of about a second both clients finish their request in
    flight and the host speed is probed (the probe needs the interpreter
    to itself); each slice is one timed unit.
    """

    SLICE_S = 1.0

    def __init__(self, fleet: Fleet, seconds: float, salt: int, speed: HostSpeed,
                 outcome: Outcome) -> None:
        self.requests: List[Request] = []
        self.clients = [Client(fleet, index, salt) for index in range(CLIENTS)]
        self.slices: List[Unit] = []
        self.threads = [f"fleet-client-{index}" for index in range(CLIENTS)]
        self._lock = threading.Lock()
        self._outcome = outcome
        started = time.perf_counter()
        while not self.requests or time.perf_counter() - started < seconds:
            entered = time.perf_counter()
            end = entered + min(self.SLICE_S, max(seconds - (entered - started), 0.05))
            workers = [
                threading.Thread(target=client.run_until, args=(end, self), name=name)
                for client, name in zip(self.clients, self.threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=self.SLICE_S + 4 * DEADLINE_S)
            if any(worker.is_alive() for worker in workers):
                raise RuntimeError("a fleet client did not finish")
            left = time.perf_counter()
            self.slices.append(Unit(entered, left, left - entered))
            speed.probe()
        self.raw_seconds = sum(unit.raw for unit in self.slices)

    def seconds(self, speed: HostSpeed) -> float:
        return speed.total(self.slices)

    def record(self, request: Optional[Request], problem: Optional[str]) -> None:
        with self._lock:
            self._outcome.attempted += 1
            if problem is not None:
                self._outcome.fail(problem)
            if request is not None:
                self.requests.append(request)

    @property
    def granted(self) -> List[Request]:
        return [r for r in self.requests if r.grant is not None]


def check_grants(loop: Loop, planner: ServicePlanner, outcome: Outcome) -> None:
    """Checked grants equal an in-process plan; replays equal their originals.

    Checks every distinct (hot shape, cores) and the first few misses.
    """
    # A replay answers with the job's latest grant of those parameters;
    # each client's requests are in the order it sent them.
    latest: Dict[str, PlanGrant] = {}
    for request in loop.granted:
        grant = request.grant
        assert grant is not None
        if not grant.replayed:
            latest[grant.params_digest] = grant
            continue
        original = latest.get(grant.params_digest)
        outcome.check(
            original is not None and original.splits == grant.splits
            and original.seq == grant.seq,
            f"replay of {grant.job} differs from its original grant",
        )
    checked: Dict[Tuple[int, int], Request] = {}
    misses = 0
    for request in loop.granted:
        assert request.grant is not None
        key = (request.data_seed, request.cores)
        if request.grant.replayed or key in checked:
            continue
        if request.hot or misses < 3:
            misses += not request.hot
            checked[key] = request
    for _, request in sorted(checked.items()):
        assert request.grant is not None
        expected = planner.plan(request.spec())
        outcome.check(
            expected.splits == request.grant.splits
            and expected.reason == request.grant.reason,
            f"grant for {request.job} differs from an in-process plan",
        )


@dataclasses.dataclass
class Modelled:
    """Every hot shape's plan at every core count, simulated on its cluster."""

    epoch_s: List[float]
    samples: int
    traffic_bytes: int
    latencies_s: List[float]
    model_error: float
    busy: Dict[str, float]


def simulate_shapes(fleet: Fleet, planner: ServicePlanner, outcome: Outcome) -> Modelled:
    """Plans do not depend on request timing, so this is fixed per seed."""
    model = get_model_profile("alexnet")
    epochs: List[float] = []
    latencies: List[float] = []
    errors: List[float] = []
    busy: Dict[str, List[float]] = {"gpu": [], "link": [], "storage_cpu": [], "compute_cpu": []}
    samples = traffic = 0
    for data_seed in fleet.hot:
        dataset = make_openimages(num_samples=fleet.job_samples, seed=data_seed)
        for cores in CORES:
            request = Request("modelled", fleet.job_samples, data_seed, cores, hot=True)
            result = planner.plan(request.spec())
            stats = TrainerSim(
                dataset=dataset, pipeline=standard_pipeline(), model=model,
                spec=standard_cluster(storage_cores=cores), seed=data_seed,
            ).run_epoch(list(result.splits), epoch=0, record_spans=True)
            try:
                latencies.extend(sample_latencies_s(stats).values())
                outcome.check(True, "")
            except ValueError as exc:
                outcome.check(False, f"simulated plan delivery: {exc}")
            epochs.append(stats.epoch_time_s)
            samples += stats.num_samples
            traffic += stats.traffic_bytes
            if result.expected_epoch_s is not None:
                errors.append(
                    (result.expected_epoch_s - stats.epoch_time_s) / stats.epoch_time_s
                )
            busy["gpu"].append(stats.gpu_utilization)
            busy["link"].append(stats.link_utilization)
            busy["storage_cpu"].append(stats.storage_cpu_utilization)
            busy["compute_cpu"].append(stats.compute_cpu_utilization)
    return Modelled(
        epoch_s=epochs,
        samples=samples,
        traffic_bytes=traffic,
        latencies_s=latencies,
        model_error=sum(errors) / len(errors) if errors else 0.0,
        busy={k: sum(v) / len(v) for k, v in busy.items()},
    )


def end_to_end(seed: int, seconds: float, size: str) -> Tuple[Outcome, Dict[str, float]]:
    outcome = Outcome()
    speed = HostSpeed()
    def setup() -> Tuple[List[Unit], Fleet]:
        fleet = Fleet(seed, size, speed)
        return fleet.steps, fleet

    setups, fleet = repeat_setup(setup, times=5)
    try:
        loop = Loop(fleet, seconds, 0, speed, outcome)
    finally:
        fleet.close()
    reference = ServicePlanner()
    check_grants(loop, reference, outcome)
    modelled = simulate_shapes(fleet, reference, outcome)
    latencies_ms = [r.latency(speed) * 1e3 for r in loop.requests]
    fresh = [r for r in loop.granted if r.grant is not None and not r.grant.replayed]
    loop_s = loop.seconds(speed)
    values = {
        "setup_s": setup_seconds(speed, setups),
        "peak_rss_mb": peak_rss_mb(),
        "pipeline_samples_per_s": sum(r.num_samples for r in fresh) / loop_s,
        "sim_epoch_s": median(modelled.epoch_s),
        "traffic_bytes_per_sample": modelled.traffic_bytes / max(modelled.samples, 1),
        "epoch_samples_per_s": modelled.samples / max(sum(modelled.epoch_s), 1e-12),
        "sample_latency_p50_ms": percentile(modelled.latencies_s, 0.50) * 1e3,
        "sample_latency_p95_ms": tail(modelled.latencies_s, 0.95) * 1e3,
        "plan_rps": len(loop.granted) / loop_s,
        "plan_latency_p50_ms": percentile(latencies_ms, 0.50),
        "plan_latency_p99_ms": tail(latencies_ms, 0.99),
    }
    return outcome, values


def _job_key(job: str) -> str:
    return f"job:{job}"


def _trace_fleet(recorder: SpanRecorder, fleet: Fleet) -> None:
    recorder.wrap(
        ServiceClient, "plan", "ServiceClient.plan", "service",
        link_as=lambda client, job, **kwargs: _job_key(job),
        attrs=lambda grant, client, job, **kwargs: {
            "replayed": grant.replayed, "samples": kwargs["num_samples"]},
    )
    recorder.wrap(
        ServiceClient, "release", "ServiceClient.release", "service",
        link_as=lambda client, job, **kwargs: _job_key(job),
    )
    planner = fleet.service.planner
    recorder.wrap(
        planner, "plan", "ServicePlanner.plan", "service",
        link_parent=lambda spec, trace=None: _job_key(spec.job),
    )
    recorder.wrap(planner.engine, "plan", "DecisionEngine.plan", "core")
    # The planner builds records through PolicyContext, which calls the
    # module-level build_records it imported.
    recorder.wrap(
        repro.core.policy, "build_records", "build_records", "parallel",
        attrs=lambda records, *args, **kwargs: {"samples": len(records)},
    )
    recorder.wrap(
        PlanJournal, "append_grant", "PlanJournal.append_grant", "service",
        link_parent=lambda journal, grant, trace=None: _job_key(grant.job),
    )
    recorder.wrap(
        PlanJournal, "append_release", "PlanJournal.append_release", "service",
        link_parent=lambda journal, release, trace=None: _job_key(release.job),
    )


def traced(seed: int, seconds: float, size: str, spans_path: str
           ) -> Tuple[Outcome, Dict[str, float]]:
    """Half the window untraced, half traced; per-layer numbers from the latter."""
    outcome = Outcome()
    speed = HostSpeed()
    fleet = Fleet(seed, size, speed)
    recorder = SpanRecorder()
    try:
        untraced = Loop(fleet, seconds / 2, 0, speed, outcome)
        planner = fleet.service.planner
        hits, misses = planner.cache_hits, planner.cache_misses
        _trace_fleet(recorder, fleet)
        try:
            loop = Loop(fleet, seconds / 2, 1, speed, outcome)
        finally:
            recorder.restore()
        hits, misses = planner.cache_hits - hits, planner.cache_misses - misses
        queue_max_depth = fleet.service.queue.max_depth
    finally:
        fleet.close()
    recorder.write(spans_path)
    reference = ServicePlanner()
    check_grants(untraced, reference, outcome)
    check_grants(loop, reference, outcome)
    modelled = simulate_shapes(fleet, reference, outcome)

    spans = recorder.spans
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration
    requests = recorder.named("ServiceClient.plan")
    planner_ms = [s.duration * 1e3 for s in recorder.named("ServicePlanner.plan")] or [0.0]
    journal_ms = [
        s.duration * 1e3
        for s in recorder.named("PlanJournal.append_grant")
        + recorder.named("PlanJournal.append_release")
    ] or [0.0]
    builds = recorder.named("build_records")
    fresh = [r for r in loop.granted if r.grant is not None and not r.grant.replayed]
    planned_samples = sum(r.num_samples for r in fresh)
    offloaded = sum(
        sum(1 for split in r.grant.splits if split > 0) for r in fresh if r.grant is not None
    )
    stats = [c.client.stats for c in loop.clients]
    attempts = sum(s.attempts for s in stats)
    values: Dict[str, float] = {
        "parallel.records_us_per_sample": (
            sum(s.duration for s in builds)
            / max(sum(s.attrs.get("samples", 0) for s in builds), 1) * 1e6
        ),
        "core.plan_us_per_sample": (
            sum(s.duration for s in recorder.named("DecisionEngine.plan"))
            / max(planned_samples, 1) * 1e6
        ),
        "core.offloaded_share": offloaded / max(planned_samples, 1),
        "core.model_error": modelled.model_error,
        "cluster.gpu_busy_share": modelled.busy["gpu"],
        "cluster.link_busy_share": modelled.busy["link"],
        "cluster.storage_cpu_busy_share": modelled.busy["storage_cpu"],
        "cluster.compute_cpu_busy_share": modelled.busy["compute_cpu"],
        "service.planner_ms_p50": percentile(planner_ms, 0.50),
        "service.planner_ms_p99": tail(planner_ms, 0.99),
        "service.records_cache_hit_ratio": hits / max(hits + misses, 1),
        "service.journal_append_ms_p50": percentile(journal_ms, 0.50),
        "service.overhead_ms_p50": percentile(
            [(s.duration - children.get(s.span_id, 0.0)) * 1e3 for s in requests] or [0.0],
            0.50,
        ),
        "service.replayed_share": (
            sum(1 for r in loop.granted if r.grant is not None and r.grant.replayed)
            / max(len(loop.requests), 1)
        ),
        "service.shed_share": sum(s.sheds for s in stats) / max(attempts, 1),
        "service.retries": sum(s.retries for s in stats),
        "service.queue_max_depth": queue_max_depth,
    }
    total = loop.raw_seconds * len(loop.threads)
    values.update(layer_shares(
        layer_self_seconds(spans), covered_seconds(spans, loop.threads), total))
    per_request_untraced = untraced.seconds(speed) * CLIENTS / max(len(untraced.requests), 1)
    per_request_traced = loop.seconds(speed) * CLIENTS / max(len(loop.requests), 1)
    values["trace.overhead_share"] = per_request_traced / per_request_untraced - 1.0
    return outcome, values
