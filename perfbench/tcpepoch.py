"""``tcp-epoch``: real pixels through the two-node path over loopback TCP.

A real-pixel image set with a fixed size mix (256-1024 px sides, texture
0.3-1.0; see ``imageset.py``) is planned by ``Sophon().plan`` for a 100 Mbps link with 8
storage cores.  A ``StorageServer`` sits behind a ``TcpStorageServer`` on
127.0.0.1 and one ``TcpStorageClient`` feeds a ``DataLoader`` (batch 8),
which runs epochs over the same dataset for the whole window: encoding the
dataset costs several epochs, so it is set-up, not the measured work.
"""

import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.core.policy import PolicyContext
from repro.core.sophon import Sophon
from repro.data.loader import DataLoader, DirectFetcher
from repro.preprocessing.pipeline import standard_pipeline
from repro.rpc.messages import FetchRequest
from repro.rpc.server import StorageServer
from repro.rpc.tcp import TcpStorageClient, TcpStorageServer
from repro.workloads.models import get_model_profile

from perfbench.common import (
    OP_NAMES, HostSpeed, Outcome, Unit, median, peak_rss_mb, percentile, repeat_setup,
    setup_seconds, tail,
)
from perfbench.imageset import StratifiedImages
from perfbench.tracing import SpanRecorder, covered_seconds, layer_self_seconds, layer_shares

SIZES = {"full": 24, "smoke": 6}
BATCH_SIZE = 8
#: Profile -> plan -> simulate repeats per set-up (each a fresh context).
PLAN_REPEATS = 10
#: Every STRIDE-th loaded tensor is compared with a local run.
STRIDE = 13


class Rig:
    """One set-up: materialized dataset, plan, live server, connected loader."""

    def __init__(self, seed: int, num_samples: int, speed: HostSpeed) -> None:
        """Every step is timed on its own into ``steps``."""
        self.seed = seed
        step, self.dataset = speed.run(lambda: StratifiedImages(num_samples, seed))
        self.steps: List[Unit] = [step]
        for sample_id in self.dataset.sample_ids():
            self.steps.append(speed.run(lambda: self.dataset.materialize(sample_id))[0])
        self.spec = standard_cluster(storage_cores=8, bandwidth_mbps=100.0)
        self.model = get_model_profile("alexnet")
        self.plans: List[Tuple[Unit, Unit]] = []
        for _ in range(PLAN_REPEATS):
            context = PolicyContext(
                dataset=self.dataset, pipeline=standard_pipeline(), spec=self.spec,
                model=self.model, seed=seed,
            )
            gc.collect()  # each repeat starts from the same collector state
            planning, self.plan = speed.run(lambda: Sophon().plan(context))
            trainer = TrainerSim(
                dataset=self.dataset, pipeline=context.pipeline, model=self.model,
                spec=self.spec, seed=seed,
            )
            simulation, self.stats = speed.run(
                lambda: trainer.run_epoch(self.plan.splits, epoch=0)
            )
            self.plans.append((planning, simulation))
            self.steps += [planning, simulation]
        self.steps.append(speed.run(self._connect)[0])
        for sample_id in range(min(BATCH_SIZE, num_samples)):  # warm-up
            self.steps.append(speed.run(lambda: self.loader.load_sample(sample_id, 0))[0])

    def _connect(self) -> None:
        # Separate pipeline instances, so traced ops know their side.
        self.server = StorageServer(self.dataset, standard_pipeline(), seed=self.seed)
        # Look ``handle`` up per request, so the traced run can wrap it.
        self.tcp = TcpStorageServer(lambda request: self.server.handle(request)).start()
        self.client = TcpStorageClient(self.tcp.address, read_timeout=60.0)
        self.loader = DataLoader(
            self.dataset, standard_pipeline(), self.client,
            batch_size=BATCH_SIZE, splits=self.plan.splits, seed=self.seed,
        )

    def close(self) -> None:
        self.client.close()
        self.tcp.stop()


class Window:
    """Whole epochs through ``DataLoader.epoch`` for at least ``seconds``.

    Each batch is one timed unit: the time inside the loader's epoch
    iterator.  Per-sample ``load_sample`` latencies are kept with the
    batch they belong to, so both scale by the probes around the batch.
    """

    def __init__(self, rig: Rig, seconds: float, first_epoch: int, speed: HostSpeed,
                 outcome: Outcome) -> None:
        self.batches: List[Tuple[Unit, List[float]]] = []
        self.kept: List[Tuple[int, int, np.ndarray]] = []
        loader = rig.loader
        n = len(rig.dataset)
        load = loader.load_sample
        had_own = "load_sample" in vars(loader)
        pending: List[float] = []

        def timed_load(sample_id: int, epoch: int):
            started = time.perf_counter()
            payload = load(sample_id, epoch)
            pending.append(time.perf_counter() - started)
            return payload

        loader.load_sample = timed_load  # type: ignore[method-assign]
        bytes_before = rig.client.traffic_bytes
        epoch = first_epoch
        started = time.perf_counter()
        try:
            while epoch == first_epoch or time.perf_counter() - started < seconds:
                seen: List[int] = []
                batches = loader.epoch(epoch)
                while True:
                    entered = time.perf_counter()
                    batch = next(batches, None)
                    left = time.perf_counter()
                    if batch is None:
                        break
                    self.batches.append((Unit(entered, left, left - entered), list(pending)))
                    pending.clear()
                    speed.maybe_probe()
                    for row, sample_id in enumerate(batch.sample_ids):
                        if (epoch * n + sample_id) % STRIDE == 0:
                            # A copy, so the whole batch array is not kept.
                            self.kept.append((epoch, sample_id, batch.tensors[row].copy()))
                    seen.extend(batch.sample_ids)
                    outcome.attempted += len(batch.sample_ids)
                if sorted(seen) != list(range(n)):
                    outcome.fail(f"epoch {epoch} delivered {len(seen)} of {n} samples")
                epoch += 1
        except (ConnectionError, TimeoutError, OSError, ValueError) as exc:
            outcome.fail(f"epoch {epoch} aborted: {type(exc).__name__}: {exc}")
        finally:
            if had_own:
                loader.load_sample = load  # type: ignore[method-assign]
            else:
                del loader.load_sample
        self.next_epoch = epoch
        self.samples = sum(len(latencies) for _, latencies in self.batches)
        self.raw_seconds = sum(unit.raw for unit, _ in self.batches)
        self.bytes = rig.client.traffic_bytes - bytes_before

    def seconds(self, speed: HostSpeed) -> float:
        return speed.total(unit for unit, _ in self.batches)

    def latencies(self, speed: HostSpeed) -> List[float]:
        scaled: List[float] = []
        for unit, latencies in self.batches:
            factor = speed.factor(unit.start, unit.end)
            scaled.extend(latency * factor for latency in latencies)
        return scaled


def check_tensors(rig: Rig, kept: List[Tuple[int, int, np.ndarray]], outcome: Outcome) -> None:
    """Kept tensors must equal a local no-offload run of the same sample."""
    local = DataLoader(
        rig.dataset, standard_pipeline(), DirectFetcher(rig.dataset),
        batch_size=BATCH_SIZE, seed=rig.seed,
    )
    for epoch, sample_id, tensor in kept:
        expected = local.load_sample(sample_id, epoch).data
        outcome.check(
            np.array_equal(tensor, expected),
            f"sample {sample_id} epoch {epoch} differs from the local run",
        )


def end_to_end(seed: int, seconds: float, size: str) -> Tuple[Outcome, Dict[str, float]]:
    outcome = Outcome()
    speed = HostSpeed()
    rigs: List[Rig] = []

    def setup() -> Tuple[List[Unit], Rig]:
        rigs.append(Rig(seed, SIZES[size], speed))
        return rigs[-1].steps, rigs[-1]

    setups, rig = repeat_setup(setup)
    try:
        window = Window(rig, seconds, 0, speed, outcome)
    finally:
        rig.close()
    speed.probe()
    check_tensors(rig, window.kept, outcome)
    n = len(rig.dataset)
    plan_ms = [speed.scaled(planning) * 1e3 for r in rigs for planning, _ in r.plans]
    pipeline_s = [speed.total(pair) for r in rigs for pair in r.plans]
    latencies = window.latencies(speed)
    values = {
        "setup_s": setup_seconds(speed, setups),
        "peak_rss_mb": peak_rss_mb(),
        "pipeline_samples_per_s": n / median(pipeline_s),
        "sim_epoch_s": rig.stats.epoch_time_s,
        "traffic_bytes_per_sample": window.bytes / max(window.samples, 1),
        "epoch_samples_per_s": window.samples / window.seconds(speed),
        "sample_latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sample_latency_p95_ms": tail(latencies, 0.95) * 1e3,
        "plan_rps": 1e3 / median(plan_ms),
        "plan_latency_p50_ms": median(plan_ms),
        "plan_latency_p99_ms": tail(plan_ms, 0.99),
    }
    return outcome, values


def _trace_rig(recorder: SpanRecorder, rig: Rig) -> None:
    recorder.wrap(rig.loader, "load_sample", "DataLoader.load_sample", "data")
    recorder.wrap(
        rig.client, "fetch", "TcpStorageClient.fetch", "rpc",
        link_as=lambda *args, **kwargs: "fetch",
        attrs=lambda result, sample_id, epoch, split: {"split": split},
    )
    recorder.wrap(
        rig.server, "handle", "StorageServer.handle", "rpc",
        link_parent=lambda request: "fetch",
        attrs=lambda result, request: {"split": FetchRequest.from_bytes(request).split},
    )
    for side, pipeline in (("client", rig.loader.pipeline), ("server", rig.server.pipeline)):
        for op in pipeline.ops:
            recorder.wrap(
                op, "apply", f"{side}.{op.name}",
                "codec" if op.name == "Decode" else "preprocessing",
                attrs=lambda result, payload, params: {"in_bytes": payload.nbytes},
            )


def _mean_ms(durations: List[float]) -> float:
    return sum(durations) / len(durations) * 1e3 if durations else 0.0


def traced(seed: int, seconds: float, size: str, spans_path: str
           ) -> Tuple[Outcome, Dict[str, float]]:
    """Half the window untraced, half traced; per-layer numbers from the latter."""
    outcome = Outcome()
    speed = HostSpeed()
    rig = Rig(seed, SIZES[size], speed)
    recorder = SpanRecorder()
    try:
        untraced = Window(rig, seconds / 2, 0, speed, outcome)
        _trace_rig(recorder, rig)
        errors_before = rig.client.checksum_failures
        try:
            window = Window(rig, seconds / 2, untraced.next_epoch, speed, outcome)
        finally:
            recorder.restore()
    finally:
        rig.close()
    recorder.write(spans_path)
    check_tensors(rig, untraced.kept + window.kept, outcome)

    dataset = rig.dataset
    n = len(dataset)
    spans = recorder.spans
    fetches = recorder.named("TcpStorageClient.fetch")
    handles = recorder.named("StorageServer.handle")
    handle_of = {span.parent: span for span in handles}
    decodes = recorder.named("client.Decode") + recorder.named("server.Decode")
    decode_s = sum(span.duration for span in decodes)
    values: Dict[str, float] = {
        "core.offloaded_share": rig.plan.offload_fraction,
        "core.model_error": (
            (rig.plan.expected.epoch_time_s - rig.stats.epoch_time_s) / rig.stats.epoch_time_s
            if rig.plan.expected is not None else 0.0
        ),
        "cluster.gpu_busy_share": rig.stats.gpu_utilization,
        "cluster.link_busy_share": rig.stats.link_utilization,
        "cluster.storage_cpu_busy_share": rig.stats.storage_cpu_utilization,
        "cluster.compute_cpu_busy_share": rig.stats.compute_cpu_utilization,
        "data.materialize_ms_per_sample": dataset.generate_s / n * 1e3,
        "codec.encode_mb_per_s": dataset.pixel_bytes / dataset.encode_s / 1e6,
        "codec.decode_mb_per_s": (
            sum(span.attrs["in_bytes"] for span in decodes) / decode_s / 1e6
            if decode_s > 0 else 0.0
        ),
        "rpc.fetch_ms_p50": percentile([s.duration for s in fetches], 0.50) * 1e3,
        "rpc.fetch_ms_p95": tail([s.duration for s in fetches], 0.95) * 1e3,
        "rpc.server_handle_ms.raw": _mean_ms(
            [s.duration for s in handles if s.attrs.get("split") == 0]),
        "rpc.server_handle_ms.offloaded": _mean_ms(
            [s.duration for s in handles if s.attrs.get("split", 0) > 0]),
        "rpc.transport_ms_mean": _mean_ms([
            fetch.duration - handle_of[fetch.span_id].duration
            for fetch in fetches if fetch.span_id in handle_of
        ]),
        "rpc.bytes_per_fetch": window.bytes / len(fetches),
        "rpc.offloaded_fetch_share": (
            sum(1 for s in fetches if s.attrs.get("split", 0) > 0) / len(fetches)
        ),
        "rpc.fetch_errors": (
            sum(1 for s in fetches if "error" in s.attrs)
            + rig.client.checksum_failures - errors_before
        ),
    }
    for op in OP_NAMES:
        for side in ("client", "server"):
            values[f"preprocessing.{side}_op_ms.{op}"] = _mean_ms(
                [s.duration for s in recorder.named(f"{side}.{op}")])
    covered = covered_seconds(spans, ["MainThread"])
    values.update(layer_shares(layer_self_seconds(spans), covered, window.raw_seconds))
    speed.probe()
    per_sample_untraced = untraced.seconds(speed) / untraced.samples
    per_sample_traced = window.seconds(speed) / window.samples
    values["trace.overhead_share"] = per_sample_traced / per_sample_untraced - 1.0
    return outcome, values
