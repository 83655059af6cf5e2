"""Event-driven simulation of one training epoch on the two-node cluster.

Per sample: the compute node issues a fetch; the storage node runs the
sample's offloaded pipeline prefix on its CPU pool; the (partially
preprocessed) payload crosses the bandwidth-capped link; the compute node
runs the remaining ops on its own CPU pool; completed batches feed the GPU
in order, with the input pipeline allowed to work ``prefetch_batches`` ahead
(PyTorch DataLoader-style flow control).

Everything the paper measures falls out: epoch time (makespan), data
traffic (bytes that crossed the link), and GPU utilization.

``run_epoch(faults=...)`` additionally injects a deterministic
:class:`~repro.faults.FaultSchedule`: storage-node crash windows interrupt
offloaded prefixes in flight (the sample demotes to a split-0 raw fetch and
finishes locally -- the No-Off fallback, so no sample is ever lost), link
brownouts stretch transfers and RTTs, CPU drift slows the storage cores,
and corrupted payloads are re-transmitted (the extra bytes count as
traffic, exactly as a checksum-triggered re-fetch would on the wire).  An
empty schedule leaves the simulation byte-identical to the fault-free
path.
"""

import dataclasses
import functools
import itertools
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.cluster import refsim as _reference_kernel
from repro.cluster import sim as _fast_kernel
from repro.cluster.engine import _MAX_PAYLOAD_SENDS, launch_training_job
from repro.cluster.epoch_model import EpochMetrics
from repro.cluster.sim import Environment, Interrupt, Resource
from repro.cluster.spec import ClusterSpec
from repro.data.dataset import Dataset
from repro.data.sampler import BatchSampler, Sampler, SequentialSampler
from repro.faults.schedule import FaultReport, FaultSchedule
from repro.metrics.timeline import Timeline
from repro.preprocessing.pipeline import Pipeline
from repro.telemetry.spans import Tracer, trace_id
from repro.workloads.models import ModelProfile

#: run_epoch(kernel=...) choices.  "auto" runs the batched cursor engine
#: (repro.cluster.engine) on the optimized kernel with the vectorized work
#: builder -- faults, spans and timeline included; "reference" replays the
#: frozen seed kernel (repro.cluster.refsim) with generator processes and
#: the sequential work builder -- the byte-identity oracle the bench and
#: the identity tests gate against.
KERNEL_CHOICES = ("auto", "reference")


def _kernel_module(kernel: str) -> ModuleType:
    if kernel not in KERNEL_CHOICES:
        raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}")
    return _reference_kernel if kernel == "reference" else _fast_kernel


@dataclasses.dataclass(frozen=True)
class SampleWork:
    """Precomputed per-sample work for one epoch."""

    sample_id: int
    split: int
    wire_bytes: int
    prefix_cpu_s: float
    suffix_cpu_s: float


@dataclasses.dataclass(frozen=True)
class WorkAdjustment:
    """Extension hook: per-sample deltas applied on top of the plan.

    Used by the selective-compression extension (paper section 6): shrink
    the wire payload and charge the compress/decompress CPU time to the
    respective nodes.
    """

    wire_bytes_delta: int = 0
    extra_storage_cpu_s: float = 0.0
    extra_compute_cpu_s: float = 0.0

    def apply(self, work: SampleWork) -> SampleWork:
        wire = work.wire_bytes + self.wire_bytes_delta
        if wire < 0:
            raise ValueError(
                f"adjustment drives sample {work.sample_id} wire size negative"
            )
        return SampleWork(
            sample_id=work.sample_id,
            split=work.split,
            wire_bytes=wire,
            prefix_cpu_s=work.prefix_cpu_s + self.extra_storage_cpu_s,
            suffix_cpu_s=work.suffix_cpu_s + self.extra_compute_cpu_s,
        )


@dataclasses.dataclass
class EpochStats:
    """What one simulated epoch measured."""

    epoch_time_s: float
    traffic_bytes: int
    num_samples: int
    num_batches: int
    offloaded_samples: int
    gpu_utilization: float
    compute_cpu_utilization: float
    storage_cpu_utilization: float
    link_utilization: float
    analytic: EpochMetrics
    #: Per-batch timeline, populated when run_epoch(record_timeline=True).
    timeline: Optional[Timeline] = None
    #: Fault accounting, populated when run_epoch(faults=...) injected any.
    faults: Optional[FaultReport] = None
    #: Per-sample span tracer (virtual timestamps), populated when
    #: run_epoch(record_spans=True).
    spans: Optional[Tracer] = None

    def __str__(self) -> str:
        return (
            f"EpochStats(time={self.epoch_time_s:.2f}s, "
            f"traffic={self.traffic_bytes / 1e6:.1f}MB, "
            f"gpu={self.gpu_utilization:.0%}, offloaded={self.offloaded_samples})"
        )


@dataclasses.dataclass
class JobHandles:
    """The simulation resources one training job runs against.

    In single-job runs every resource is private; in multi-job runs the
    link (and possibly the storage CPU pool) is shared across jobs -- see
    :mod:`repro.cluster.multijob`.  On sharded storage clusters the single
    ``storage_cpu`` pool is replaced by ``storage_pools`` plus a
    ``shard_of`` placement map: an offloaded prefix runs on the pool of
    the shard holding its sample -- see :mod:`repro.cluster.sharded`.
    """

    compute_cpu: Resource
    storage_cpu: Optional[Resource]
    link: Resource
    gpu: Resource
    prefetch: Resource
    #: Flow identifier for fair-queued shared links (None on private links).
    flow_key: object = None
    #: Per-shard storage CPU pools (sharded clusters); when set, offloaded
    #: prefixes route through ``shard_of`` instead of ``storage_cpu``.
    storage_pools: Optional[Sequence[Resource]] = None
    #: sample id -> shard index; required alongside ``storage_pools`` and
    #: also used to stamp a ``shard`` label onto per-sample spans.
    shard_of: Optional[Callable[[int], int]] = None
    #: Tenant name stamped as a ``job`` label onto every span this job
    #: emits (multi-job runs share one tracer across tenants).
    job_label: Optional[str] = None

    def storage_pool(self, sample_id: int) -> Optional[Resource]:
        """The storage CPU pool an offloaded prefix of ``sample_id`` uses."""
        if self.storage_pools is not None:
            if self.shard_of is None:
                raise ValueError("storage_pools requires a shard_of placement map")
            return self.storage_pools[self.shard_of(sample_id)]
        return self.storage_cpu

    def span_attrs(self, sample_id: Optional[int] = None) -> Dict[str, object]:
        """Shard/tenant labels for spans about ``sample_id`` (or job-wide)."""
        attrs: Dict[str, object] = {}
        if self.job_label is not None:
            attrs["job"] = self.job_label
        if sample_id is not None and self.shard_of is not None:
            attrs["shard"] = self.shard_of(sample_id)
        return attrs


def launch_training_processes(
    env: Environment,
    spec: ClusterSpec,
    work: Dict[int, SampleWork],
    batches: List[List[int]],
    model: ModelProfile,
    handles: JobHandles,
    timeline: Optional["Timeline"] = None,
    faults: Optional[FaultSchedule] = None,
    fault_report: Optional[FaultReport] = None,
    fallback_work: Optional[Callable[[int], SampleWork]] = None,
    tracer: Optional[Tracer] = None,
    epoch: int = 0,
) -> Dict[str, int]:
    """Register one training job's generator processes on ``env``.

    The driver of the frozen ``kernel="reference"`` oracle (a
    :mod:`repro.cluster.refsim` environment fed by :meth:`TrainerSim._epoch_work`);
    the optimized kernel runs the cursor mirror of these processes,
    :func:`repro.cluster.engine.launch_training_job`.

    Returns the job's live traffic counter (key ``"bytes"``); the job is
    finished when the environment drains (or when the returned
    ``handles.gpu`` has processed ``len(batches)`` batches -- multi-job
    callers watch the counter dict's ``"done"`` flag).

    faults: optional fault schedule on virtual time.  When present (and
        non-empty), ``fallback_work`` must map a sample id to its split-0
        work so failed offloads can demote; observations accumulate into
        ``fault_report``.  An empty/None schedule takes the exact
        fault-free code path.
    tracer: optional per-sample span collector; ``epoch`` names the traces
        (trace id = sample id + epoch).  Emission never touches the event
        queue, so a run with a tracer simulates identically to one without.
    """
    traffic = {"bytes": 0, "done": 0}
    bandwidth = spec.bandwidth_bytes_per_s
    batch_ready = [env.event() for _ in batches]
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None and fallback_work is None:
        raise ValueError("fault injection needs fallback_work for demotions")
    report = fault_report if fault_report is not None else FaultReport()

    def sample_proc(item: SampleWork):
        trace = trace_id(item.sample_id, epoch) if tracer is not None else ""
        if tracer is not None:
            tracer.begin(
                trace, "sample.fetch", split=item.split, wire_bytes=item.wire_bytes,
                **handles.span_attrs(item.sample_id),
            )
        # Request leaves the compute node; half an RTT to arrive.
        yield env.timeout(spec.network_rtt_s / 2.0)
        if item.split > 0:
            if tracer is not None:
                tracer.begin(
                    trace, "storage.prefix", split=item.split,
                    **handles.span_attrs(item.sample_id),
                )
            pool = handles.storage_pool(item.sample_id)
            assert pool is not None  # split > 0 implies an offload-capable spec
            grant = pool.acquire()
            yield grant
            yield env.timeout(item.prefix_cpu_s * spec.storage_cpu_factor)
            pool.release(grant)
            if tracer is not None:
                tracer.end(trace, "storage.prefix", cpu_s=item.prefix_cpu_s)
        # Transmit in chunks: releasing the link between chunks lets
        # concurrent flows interleave (fair sharing) instead of
        # serializing whole payloads behind each other.
        payload_bytes = item.wire_bytes + spec.response_overhead_bytes
        if tracer is not None:
            tracer.begin(trace, "link.transmit", payload_bytes=payload_bytes)
        remaining = payload_bytes
        first_chunk = True
        while remaining > 0:
            chunk = min(remaining, spec.link_chunk_bytes)
            grant = handles.link.acquire(handles.flow_key, front=not first_chunk)
            yield grant
            yield env.timeout(chunk / bandwidth)
            handles.link.release(grant)
            remaining -= chunk
            first_chunk = False
        traffic["bytes"] += payload_bytes
        if tracer is not None:
            tracer.end(trace, "link.transmit")
        yield env.timeout(spec.network_rtt_s / 2.0)
        if item.suffix_cpu_s > 0:
            if tracer is not None:
                tracer.begin(trace, "compute.suffix")
            grant = handles.compute_cpu.acquire()
            yield grant
            yield env.timeout(item.suffix_cpu_s * spec.compute_cpu_factor)
            handles.compute_cpu.release(grant)
            if tracer is not None:
                tracer.end(trace, "compute.suffix", cpu_s=item.suffix_cpu_s)
        if tracer is not None:
            tracer.end(trace, "sample.fetch")

    # -- fault-aware variant ------------------------------------------------
    # Kept separate from sample_proc so the fault-free path stays
    # byte-identical (acceptance criterion: an empty schedule changes
    # nothing, not even float rounding order).

    active_offloads: Dict[object, int] = {}  # prefix Process -> sample id
    message_counter = itertools.count()

    def crash_watch(window):
        yield env.timeout(window.start)
        victims = [p for p in list(active_offloads) if not p.triggered]
        for proc in victims:
            # Popped, not read: a second window opening at the same instant
            # must not interrupt an offload whose first interrupt is queued.
            sample_id = active_offloads.pop(proc)
            report.crash_interrupts += 1
            if timeline is not None:
                timeline.record_fault(env.now, "crash-interrupt", sample_id)
            if tracer is not None:
                tracer.instant(trace_id(sample_id, epoch), "fault.crash_interrupt")
            proc.interrupt("storage-crash")

    def prefix_proc(item: SampleWork):
        """Run the offloaded prefix; returns True unless interrupted."""
        pool = handles.storage_pool(item.sample_id)
        assert pool is not None  # split > 0 implies an offload-capable spec
        grant = pool.acquire()
        try:
            yield grant
            yield env.timeout(
                item.prefix_cpu_s
                * spec.storage_cpu_factor
                * faults.storage_cpu_factor(env.now)
            )
        except Interrupt:
            if pool.holds(grant):
                pool.release(grant)
            else:
                pool.cancel(grant)
            return False
        pool.release(grant)
        return True

    def transmit(payload_bytes: int):
        """Move one payload across the (possibly browned-out) link."""
        remaining = payload_bytes
        first_chunk = True
        while remaining > 0:
            chunk = min(remaining, spec.link_chunk_bytes)
            grant = handles.link.acquire(handles.flow_key, front=not first_chunk)
            yield grant
            factor = faults.bandwidth_factor(env.now)
            if factor < 1.0:
                report.brownout_chunks += 1
            yield env.timeout(chunk / (bandwidth * factor))
            handles.link.release(grant)
            remaining -= chunk
            first_chunk = False
        traffic["bytes"] += payload_bytes

    def faulty_sample_proc(item: SampleWork):
        trace = trace_id(item.sample_id, epoch) if tracer is not None else ""
        if tracer is not None:
            tracer.begin(
                trace, "sample.fetch", split=item.split, wire_bytes=item.wire_bytes,
                **handles.span_attrs(item.sample_id),
            )
        yield env.timeout((spec.network_rtt_s + faults.extra_rtt_s(env.now)) / 2.0)
        if item.split > 0:
            offloaded = False
            if faults.storage_down(env.now):
                # Fetch refused outright: the node is down right now.
                report.note_failure(env.now)
                if tracer is not None:
                    tracer.instant(trace, "fault.storage_down")
            else:
                report.offload_attempts += 1
                if tracer is not None:
                    tracer.begin(
                        trace, "storage.prefix", split=item.split,
                        **handles.span_attrs(item.sample_id),
                    )
                proc = env.process(prefix_proc(item))
                active_offloads[proc] = item.sample_id
                outcome = yield proc
                active_offloads.pop(proc, None)
                offloaded = outcome is True
                if tracer is not None:
                    tracer.end(
                        trace,
                        "storage.prefix",
                        outcome="ok" if offloaded else "interrupted",
                    )
                if offloaded:
                    recovering = (
                        report.first_failure_s is not None
                        and report.recovered_at_s is None
                    )
                    report.note_success(env.now)
                    if recovering and timeline is not None:
                        timeline.record_fault(env.now, "recovery", item.sample_id)
                else:
                    report.note_failure(env.now)
            if not offloaded:
                # Degrade to No-Off: raw fetch + local preprocessing.  The
                # sample is served either way -- never lost.
                report.demoted_samples += 1
                if timeline is not None:
                    timeline.record_fault(env.now, "demotion", item.sample_id)
                if tracer is not None:
                    tracer.instant(trace, "fault.demote", planned_split=item.split)
                item = fallback_work(item.sample_id)
        payload_bytes = item.wire_bytes + spec.response_overhead_bytes
        if tracer is not None:
            tracer.begin(trace, "link.transmit", payload_bytes=payload_bytes)
        for send in range(_MAX_PAYLOAD_SENDS):
            yield from transmit(payload_bytes)
            if not faults.corrupts(next(message_counter)):
                break
            # Checksum caught a damaged payload: it never reaches the
            # pipeline; the re-transmission's bytes count as traffic.
            report.corrupted_payloads += 1
            if send + 1 < _MAX_PAYLOAD_SENDS:
                report.corrupt_retries += 1
            if timeline is not None:
                timeline.record_fault(env.now, "corruption", item.sample_id)
            if tracer is not None:
                tracer.instant(trace, "fault.corruption", send=send)
        if tracer is not None:
            tracer.end(trace, "link.transmit")
        yield env.timeout((spec.network_rtt_s + faults.extra_rtt_s(env.now)) / 2.0)
        if item.suffix_cpu_s > 0:
            if tracer is not None:
                tracer.begin(trace, "compute.suffix")
            grant = handles.compute_cpu.acquire()
            yield grant
            yield env.timeout(item.suffix_cpu_s * spec.compute_cpu_factor)
            handles.compute_cpu.release(grant)
            if tracer is not None:
                tracer.end(trace, "compute.suffix", cpu_s=item.suffix_cpu_s)
        if tracer is not None:
            tracer.end(trace, "sample.fetch")

    make_sample_proc = sample_proc if faults is None else faulty_sample_proc

    def batch_proc(index: int, ids: List[int]):
        token = handles.prefetch.acquire()
        yield token
        children = [env.process(make_sample_proc(work[i])) for i in ids]
        yield env.all_of(children)
        if timeline is not None:
            timeline.trace(index).ready_at = env.now
        batch_ready[index].trigger(token)

    def gpu_proc():
        for index, ids in enumerate(batches):
            yield batch_ready[index]
            token = batch_ready[index].value
            grant = handles.gpu.acquire()
            yield grant
            if timeline is not None:
                timeline.trace(index).gpu_start = env.now
            if tracer is not None:
                tracer.begin(
                    f"b{index}-e{epoch}", "gpu.batch", batch=index,
                    **handles.span_attrs(),
                )
            yield env.timeout(model.batch_time_s(len(ids)))
            if timeline is not None:
                timeline.trace(index).gpu_end = env.now
            if tracer is not None:
                tracer.end(f"b{index}-e{epoch}", "gpu.batch")
            handles.gpu.release(grant)
            handles.prefetch.release(token)
        traffic["done"] = 1
        traffic["finished_at"] = env.now
        if timeline is not None:
            timeline.epoch_end = env.now

    for index, ids in enumerate(batches):
        env.process(batch_proc(index, ids))
    env.process(gpu_proc())
    if faults is not None:
        for window in faults.crashes:
            env.process(crash_watch(window))
    return traffic


class TrainerSim:
    """Simulate training epochs for a (dataset, pipeline, model) workload."""

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        model: ModelProfile,
        spec: ClusterSpec,
        batch_size: Optional[int] = None,
        sampler: Optional[Sampler] = None,
        seed: int = 0,
        job_label: Optional[str] = None,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.model = model
        self.spec = spec
        self.batch_size = batch_size if batch_size is not None else model.batch_size
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.sampler = sampler if sampler is not None else SequentialSampler(len(dataset))
        self.seed = seed
        #: Tenant name stamped onto spans as a ``job`` label (None = no label).
        self.job_label = job_label

    # -- work precomputation ------------------------------------------------

    def sample_work(self, sample_id: int, split: int, epoch: int) -> SampleWork:
        """Wire size and CPU cost split for one sample at one split point."""
        meta = self.dataset.raw_meta(sample_id)
        run = self.pipeline.simulate(
            meta, seed=self.seed, epoch=epoch, sample_id=sample_id
        )
        if not 0 <= split <= len(run.stages):
            raise ValueError(f"bad split {split} for {len(run.stages)}-op pipeline")
        sizes = [meta.nbytes] + [s.out_meta.nbytes for s in run.stages]
        costs = [s.cost_s for s in run.stages]
        return SampleWork(
            sample_id=sample_id,
            split=split,
            wire_bytes=sizes[split],
            prefix_cpu_s=sum(costs[:split]),
            suffix_cpu_s=sum(costs[split:]),
        )

    def _epoch_work(
        self,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
    ) -> Dict[int, SampleWork]:
        work: Dict[int, SampleWork] = {}
        for sample_id in self.dataset.sample_ids():
            split = 0 if splits is None else splits[sample_id]
            item = self.sample_work(sample_id, split, epoch)
            if adjustments is not None and sample_id in adjustments:
                item = adjustments[sample_id].apply(item)
            if item.split == 0 and item.prefix_cpu_s > 0:
                raise ValueError(
                    f"sample {sample_id} has storage-side work but split 0"
                )
            if item.split > 0 and not self.spec.can_offload:
                raise ValueError(
                    f"sample {sample_id} plans split {item.split} but the "
                    "cluster has no storage cores; clamp the plan first"
                )
            if item.prefix_cpu_s > 0 and not self.spec.can_offload:
                raise ValueError(
                    f"sample {sample_id} has storage-side work but the cluster "
                    "has no storage cores; clamp the plan first"
                )
            work[sample_id] = item
        return work

    def _epoch_work_fast(
        self,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
    ) -> Dict[int, SampleWork]:
        """Vectorized twin of :meth:`_epoch_work` -- same outputs, bit for bit.

        The per-sample ``pipeline.simulate`` loop is replaced by one
        :func:`~repro.parallel.vectorized.simulate_batch` call (whose rows
        are bit-identical to the sequential stages) plus column-wise
        left-fold prefix/suffix sums in the exact association order
        ``sum(costs[:split])`` uses.  Validation errors carry the same
        messages, raised at the same sample.
        """
        return self._batch_work(splits, epoch, adjustments)[0]

    def _batch_work(
        self,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
        fallback: bool = False,
    ) -> Tuple[Dict[int, SampleWork], Optional[Callable[[int], SampleWork]]]:
        """:meth:`_epoch_work_fast` plus, when ``fallback`` is set, the
        split-0 (No-Off) work a demoted sample falls back to.

        The fallback equals ``sample_work(i, 0, epoch)`` for every id (no
        adjustments applied): raw size ``sizes[:, 0]`` and the column
        left-fold from 0, read off the same ``simulate_batch`` matrices
        instead of re-simulating the sample.
        """
        from repro.parallel.vectorized import simulate_batch

        ids = list(self.dataset.sample_ids())
        raw_metas = [self.dataset.raw_meta(i) for i in ids]
        kind = raw_metas[0].kind if raw_metas else None
        if not ids or any(meta.kind is not kind for meta in raw_metas):
            # The batch simulator wants one payload kind per batch; rare
            # mixed-kind datasets take the sequential reference instead.
            work = self._epoch_work(splits, epoch, adjustments)
            if not fallback:
                return work, None
            return work, functools.partial(self.sample_work, split=0, epoch=epoch)
        sizes, costs = simulate_batch(
            self.pipeline, raw_metas, ids, seed=self.seed, epoch=epoch
        )
        n = len(ids)
        n_ops = int(costs.shape[1])
        split_list = [0] * n if splits is None else [splits[i] for i in ids]

        # Column-wise left folds per split group: each element accumulates
        # ((c0 + c1) + c2) ... in the same order the scalar fold does, so
        # every float matches the sequential path bit for bit.  Empty folds
        # stay int 0, exactly like sum([]).
        prefix: List[float] = [0] * n  # type: ignore[list-item]
        suffix: List[float] = [0] * n  # type: ignore[list-item]
        rows_by_split: Dict[int, List[int]] = {}
        for row, split in enumerate(split_list):
            if 0 <= split <= n_ops:
                rows_by_split.setdefault(split, []).append(row)
        for split, rows in rows_by_split.items():
            sub = costs[rows]
            if split > 0:
                acc = sub[:, 0].copy()
                for col in range(1, split):
                    acc = acc + sub[:, col]
                for row, value in zip(rows, acc.tolist()):
                    prefix[row] = value
            if split < n_ops:
                acc = sub[:, split].copy()
                for col in range(split + 1, n_ops):
                    acc = acc + sub[:, col]
                for row, value in zip(rows, acc.tolist()):
                    suffix[row] = value
        size_rows = sizes.tolist()

        work: Dict[int, SampleWork] = {}
        for row, sample_id in enumerate(ids):
            split = split_list[row]
            if not 0 <= split <= n_ops:
                raise ValueError(f"bad split {split} for {n_ops}-op pipeline")
            item = SampleWork(
                sample_id=sample_id,
                split=split,
                wire_bytes=size_rows[row][split],
                prefix_cpu_s=prefix[row],
                suffix_cpu_s=suffix[row],
            )
            if adjustments is not None and sample_id in adjustments:
                item = adjustments[sample_id].apply(item)
            if item.split == 0 and item.prefix_cpu_s > 0:
                raise ValueError(
                    f"sample {sample_id} has storage-side work but split 0"
                )
            if item.split > 0 and not self.spec.can_offload:
                raise ValueError(
                    f"sample {sample_id} plans split {item.split} but the "
                    "cluster has no storage cores; clamp the plan first"
                )
            if item.prefix_cpu_s > 0 and not self.spec.can_offload:
                raise ValueError(
                    f"sample {sample_id} has storage-side work but the cluster "
                    "has no storage cores; clamp the plan first"
                )
            work[sample_id] = item
        if not fallback:
            return work, None

        size0 = sizes[:, 0].tolist()
        suffix0: List[float] = [0] * n  # type: ignore[list-item]
        if n_ops > 0:
            acc = costs[:, 0].copy()
            for col in range(1, n_ops):
                acc = acc + costs[:, col]
            suffix0 = acc.tolist()
        row_of = dict(zip(ids, range(n)))

        def fallback_work(sample_id: int) -> SampleWork:
            row = row_of[sample_id]
            return SampleWork(
                sample_id=sample_id,
                split=0,
                wire_bytes=size0[row],
                prefix_cpu_s=0,
                suffix_cpu_s=suffix0[row],
            )

        return work, fallback_work

    # -- simulation -----------------------------------------------------------

    def _build_handles(
        self, env: Environment, kernel: ModuleType = _fast_kernel
    ) -> JobHandles:
        """The resource set one epoch runs against (overridden by subclasses:
        sharded clusters swap the single storage pool for per-shard pools).

        ``kernel`` supplies the Resource classes so reference-kernel runs
        build refsim resources against a refsim environment.
        """
        spec = self.spec
        return JobHandles(
            compute_cpu=kernel.Resource(env, spec.compute_cores, "compute-cpu"),
            storage_cpu=(
                kernel.Resource(env, spec.storage_cores, "storage-cpu")
                if spec.can_offload
                else None
            ),
            link=kernel.Resource(env, 1, "link"),
            gpu=kernel.Resource(env, 1, "gpu"),
            prefetch=kernel.Resource(env, spec.prefetch_batches, "prefetch-window"),
            job_label=self.job_label,
        )

    def _storage_utilization(self, handles: JobHandles, horizon: float) -> float:
        """Aggregate storage-CPU busy fraction across however many pools."""
        pools = handles.storage_pools
        if pools is not None:
            capacity = sum(pool.capacity for pool in pools)
            if horizon <= 0 or capacity == 0:
                return 0.0
            return sum(pool.busy_time for pool in pools) / (capacity * horizon)
        if handles.storage_cpu is None:
            return 0.0
        return handles.storage_cpu.utilization(horizon)

    def _wrap_stats(
        self, stats: EpochStats, handles: JobHandles, horizon: float
    ) -> EpochStats:
        """Subclass hook: decorate the epoch stats (e.g. per-shard columns)."""
        return stats

    def run_epoch(
        self,
        splits: Optional[Sequence[int]] = None,
        epoch: int = 0,
        adjustments: Optional[Dict[int, WorkAdjustment]] = None,
        record_timeline: bool = False,
        faults: Optional[FaultSchedule] = None,
        record_spans: bool = False,
        kernel: str = "auto",
    ) -> EpochStats:
        """Simulate one epoch under the given per-sample offload splits.

        splits: index = sample id, value = number of leading ops executed on
            the storage node (0 = fetch raw).  None means no offloading.
        adjustments: optional per-sample work deltas (see WorkAdjustment).
        record_timeline: attach a per-batch Timeline to the stats (for
            stall-breakdown analysis via repro.metrics).
        faults: optional deterministic fault schedule (virtual-time axis);
            the epoch survives every fault class by demoting failed
            offloads to the split-0 No-Off path.  Empty/None schedules are
            byte-identical to the fault-free run.
        record_spans: attach a per-sample span Tracer (stats.spans) whose
            clock is the simulator's virtual time; the simulated schedule
            is identical with or without it.
        kernel: "auto" (default) runs the batched cursor engine
            (:func:`repro.cluster.engine.launch_training_job`) on the
            optimized kernel -- faults, spans and timeline included;
            "reference" replays the frozen seed kernel with generator
            processes end to end.  Both produce byte-identical stats, fault
            reports and span streams -- the contract
            ``repro.cluster.bench`` gates on.
        """
        kernel_mod = _kernel_module(kernel)
        if splits is not None and len(splits) != len(self.dataset):
            raise ValueError(
                f"splits has {len(splits)} entries, dataset has {len(self.dataset)}"
            )
        if faults is not None and faults.is_empty:
            faults = None
        reference = kernel == "reference"

        fallback_work: Optional[Callable[[int], SampleWork]] = None
        if reference:
            work = self._epoch_work(splits, epoch, adjustments)
            if faults is not None:
                fallback_work = functools.partial(self.sample_work, split=0, epoch=epoch)
        else:
            work, fallback_work = self._batch_work(
                splits, epoch, adjustments, fallback=faults is not None
            )
        batches = list(BatchSampler(self.sampler, self.batch_size).epoch_batches(epoch))
        fault_report = FaultReport() if faults is not None else None

        # The two kernels are duck-compatible; refsim environments carry
        # refsim resources (built below), so the cast is safe.
        env = cast(Environment, kernel_mod.Environment())
        spec = self.spec
        handles = self._build_handles(env, kernel_mod)
        timeline = Timeline() if record_timeline else None
        tracer = Tracer(clock=lambda: env.now) if record_spans else None
        launch = launch_training_processes if reference else launch_training_job
        traffic = launch(
            env,
            spec,
            work,
            batches,
            self.model,
            handles,
            timeline=timeline,
            faults=faults,
            fault_report=fault_report,
            fallback_work=fallback_work,
            tracer=tracer,
            epoch=epoch,
        )
        env.run()

        horizon = env.now
        analytic = EpochMetrics(
            gpu_time_s=sum(self.model.batch_time_s(len(ids)) for ids in batches),
            # Raw single-core seconds; EpochModel applies the CPU factors.
            compute_cpu_s=sum(w.suffix_cpu_s for w in work.values()),
            storage_cpu_s=sum(w.prefix_cpu_s for w in work.values() if w.split > 0),
            traffic_bytes=sum(
                w.wire_bytes + spec.response_overhead_bytes for w in work.values()
            ),
        )
        stats = EpochStats(
            epoch_time_s=horizon,
            traffic_bytes=traffic["bytes"],
            num_samples=len(work),
            num_batches=len(batches),
            offloaded_samples=sum(1 for w in work.values() if w.split > 0),
            gpu_utilization=handles.gpu.utilization(horizon),
            compute_cpu_utilization=handles.compute_cpu.utilization(horizon),
            storage_cpu_utilization=self._storage_utilization(handles, horizon),
            link_utilization=handles.link.utilization(horizon),
            analytic=analytic,
            timeline=timeline,
            faults=fault_report,
            spans=tracer,
        )
        return self._wrap_stats(stats, handles, horizon)
