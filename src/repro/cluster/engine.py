"""Batched cursor execution of one training job's epoch.

:func:`launch_training_job` runs every training job on the optimized
kernel: fault-free or faulted, with or without a span tracer or a batch
timeline.  Instead of one generator :class:`~repro.cluster.sim.Process`
per sample (plus relay events for every yield), each sample is a
slot-based cursor: a single ``__slots__`` object whose bound ``step``
method is registered directly as the event callback and dispatches on a
small state integer.  Batches join through a plain countdown instead of an
:class:`~repro.cluster.sim.AllOf`, and timeouts go straight onto the heap
as pooled callback slots.

**The mirror contract.**  The cursors replay the generator processes of
:func:`repro.cluster.trainer.launch_training_processes` (the driver of the
frozen ``kernel="reference"`` oracle) push for push: every heap entry lands
at the same ``(time, sequence)`` position the generator code would have
produced, and entries whose pops had no side effects (generator-end events
nobody waits on) are dropped outright.  Resource acquire/release/cancel
calls happen in the same order with the same arguments, so grant order,
``busy_time`` accumulation order, and traffic arithmetic are identical
float-op for float-op; span events and timeline stamps are emitted at the
same steps in the same order.  That is what makes ``kernel="auto"`` and
``kernel="reference"`` produce byte-identical
:class:`~repro.cluster.trainer.EpochStats`, fault reports and span
streams -- the contract ``repro.cluster.bench`` gates on every run.

Per-yield cost drops from a generator frame resume + relay ``Event``
(callback list and all) to one slot fire + an integer compare, and
per-sample allocation drops from a ``Process`` + ~10 events to one cursor
object -- the difference between 10^4- and 10^6-sample epochs.

The cursor classes are chosen once, at launch: the fault-free, untraced
:class:`_SampleRun` carries no instrumentation checks at all;
:class:`_TracedSampleRun` adds ``sample_proc``'s spans;
:class:`_FaultySampleRun` mirrors ``faulty_sample_proc`` (with spans and
timeline stamps when asked for).

The correspondence, step by step (see ``trainer.sample_proc`` and
``trainer.faulty_sample_proc``):

=======================  ===============================================
generator path           cursor mirror
=======================  ===============================================
``env.process(...)``     start slot pushed at construction
``yield timeout(d)``     ``env._call_at(env.now + d, step)``
``yield grant``          ``grant.callbacks.append(step)``
process end event        batch-countdown slot (``_BatchRun.child_end``)
``AllOf`` fires          all-done slot (``_BatchRun.all_done``)
``batch_ready`` wait     same event; relay slot when already processed
process end (unused)     dropped (the pop had no side effects)
``prefix_proc`` start    :class:`_PrefixRun` start slot, kept as pending
``yield proc`` (prefix)  prefix end slot resumes the sample with outcome
``proc.interrupt()``     neuter pending slot or drop the grant callback;
                         push the throw-in slot at ``env.now``
``except Interrupt``     throw-in: ``cancel`` a queued grant, ``release``
                         a held one, then push the end slot (False)
``crash_watch``          :class:`_CrashWatch`: start slot, then one slot
                         at ``window.start`` that interrupts in place
=======================  ===============================================
"""

import itertools
from typing import Any, Callable, Dict, List, Optional, Type

from repro.cluster.sim import Environment, Event, Resource
from repro.cluster.spec import ClusterSpec
from repro.faults.schedule import CrashWindow, FaultReport, FaultSchedule
from repro.metrics.timeline import Timeline
from repro.telemetry.spans import Tracer, trace_id
from repro.workloads.models import ModelProfile

# Imported for type checking only: a runtime import would be circular
# (trainer imports this module's launcher).
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.trainer import JobHandles, SampleWork

__all__ = ["launch_training_job"]

#: Retransmission cap per payload; only reachable when corruption_rate is
#: so close to 1 that the wire is unusable anyway.
_MAX_PAYLOAD_SENDS = 25


class _FastJob:
    """Shared per-job state every cursor reads (spec scalars pre-bound)."""

    __slots__ = (
        "env", "handles", "work", "batches", "model", "traffic", "batch_ready",
        "rtt", "rtt_half", "storage_cpu_factor", "compute_cpu_factor",
        "bandwidth", "link_chunk", "overhead", "flow_key",
        "timeline", "tracer", "epoch", "faults", "report", "fallback",
        "messages", "offloads", "sample_cls",
    )

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        work: Dict[int, "SampleWork"],
        batches: List[List[int]],
        model: ModelProfile,
        handles: "JobHandles",
    ) -> None:
        self.env = env
        self.handles = handles
        self.work = work
        self.batches = batches
        self.model = model
        self.traffic: Dict[str, Any] = {"bytes": 0, "done": 0}
        self.batch_ready: List[Event] = [env.event() for _ in batches]
        self.rtt = spec.network_rtt_s
        self.rtt_half = spec.network_rtt_s / 2.0
        self.storage_cpu_factor = spec.storage_cpu_factor
        self.compute_cpu_factor = spec.compute_cpu_factor
        self.bandwidth = spec.bandwidth_bytes_per_s
        self.link_chunk = spec.link_chunk_bytes
        self.overhead = spec.response_overhead_bytes
        self.flow_key = handles.flow_key
        self.timeline: Optional[Timeline] = None
        self.tracer: Optional[Tracer] = None
        self.epoch = 0
        self.faults: Optional[FaultSchedule] = None
        self.report = FaultReport()
        self.fallback: Optional[Callable[[int], "SampleWork"]] = None
        #: Wire-message index feeding the seeded corruption coin.
        self.messages = itertools.count()
        #: In-flight offloaded prefixes (a crash interrupts them) -> sample id.
        self.offloads: Dict["_PrefixRun", int] = {}
        self.sample_cls: Type[Any] = _SampleRun


# _SampleRun states (the yield points of trainer.sample_proc):
_S_START = 0        # process start slot fired
_S_ARRIVED = 1      # half-RTT request latency elapsed
_S_PREFIX_GRANT = 2  # storage core granted
_S_PREFIX_DONE = 3  # offloaded prefix finished
_S_CHUNK_GRANT = 4  # link granted for one chunk
_S_CHUNK_DONE = 5   # chunk crossed the link
_S_RESPONDED = 6    # trailing half-RTT elapsed
_S_SUFFIX_GRANT = 7  # compute core granted
_S_SUFFIX_DONE = 8  # local suffix finished


class _SampleRun:
    """One sample's fetch, mirroring ``sample_proc`` state for state."""

    __slots__ = ("job", "item", "batch", "step", "state", "grant", "pool",
                 "remaining", "payload")

    def __init__(self, job: _FastJob, item: "SampleWork", batch: "_BatchRun") -> None:
        self.job = job
        self.item = item
        self.batch = batch
        self.step = self._step  # one reusable bound method for every wait
        self.state = _S_START
        self.grant: Optional[Event] = None
        self.pool: Optional[Resource] = None
        self.remaining = 0
        self.payload = 0
        env = job.env
        env._call_at(env.now, self.step)

    def _step(self, event: Any) -> None:
        job = self.job
        env = job.env
        state = self.state
        if state == _S_CHUNK_GRANT:  # hottest states first
            self.state = _S_CHUNK_DONE
            chunk = self.remaining
            if chunk > job.link_chunk:
                chunk = job.link_chunk
            env._call_at(env.now + chunk / job.bandwidth, self.step)
        elif state == _S_CHUNK_DONE:
            link = job.handles.link
            link.release(self.grant)
            chunk = self.remaining
            if chunk > job.link_chunk:
                chunk = job.link_chunk
            self.remaining -= chunk
            if self.remaining > 0:
                self.state = _S_CHUNK_GRANT
                self.grant = link.acquire(job.flow_key, front=True)
                self.grant.callbacks.append(self.step)
            else:
                job.traffic["bytes"] += self.payload
                self.state = _S_RESPONDED
                env._call_at(env.now + job.rtt_half, self.step)
        elif state == _S_START:
            self.state = _S_ARRIVED
            env._call_at(env.now + job.rtt_half, self.step)
        elif state == _S_ARRIVED:
            item = self.item
            if item.split > 0:
                pool = job.handles.storage_pool(item.sample_id)
                assert pool is not None  # split > 0 implies an offload-capable spec
                self.pool = pool
                self.state = _S_PREFIX_GRANT
                self.grant = pool.acquire()
                self.grant.callbacks.append(self.step)
            else:
                self._start_transmit()
        elif state == _S_PREFIX_GRANT:
            self.state = _S_PREFIX_DONE
            env._call_at(
                env.now + self.item.prefix_cpu_s * job.storage_cpu_factor, self.step
            )
        elif state == _S_PREFIX_DONE:
            assert self.pool is not None
            self.pool.release(self.grant)
            self._start_transmit()
        elif state == _S_RESPONDED:
            if self.item.suffix_cpu_s > 0:
                self.state = _S_SUFFIX_GRANT
                self.grant = job.handles.compute_cpu.acquire()
                self.grant.callbacks.append(self.step)
            else:
                env._call_at(env.now, self.batch.child_end)
                self.step = None  # type: ignore[assignment]  # frees the cursor
        elif state == _S_SUFFIX_GRANT:
            self.state = _S_SUFFIX_DONE
            env._call_at(
                env.now + self.item.suffix_cpu_s * job.compute_cpu_factor, self.step
            )
        else:  # _S_SUFFIX_DONE
            job.handles.compute_cpu.release(self.grant)
            env._call_at(env.now, self.batch.child_end)
            self.step = None  # type: ignore[assignment]  # frees the cursor

    def _start_transmit(self) -> None:
        job = self.job
        self.payload = self.item.wire_bytes + job.overhead
        self.remaining = self.payload
        self.state = _S_CHUNK_GRANT
        self.grant = job.handles.link.acquire(job.flow_key, front=False)
        self.grant.callbacks.append(self.step)


class _TracedSampleRun(_SampleRun):
    """:class:`_SampleRun` plus ``sample_proc``'s span emission.

    Each step emits what the generator emits between the same two yields,
    then runs the untraced step; emission never touches the heap.
    """

    __slots__ = ("trace",)

    def __init__(self, job: _FastJob, item: "SampleWork", batch: "_BatchRun") -> None:
        self.trace = trace_id(item.sample_id, job.epoch)
        super().__init__(job, item, batch)

    def _step(self, event: Any) -> None:
        job = self.job
        tracer = job.tracer
        assert tracer is not None
        item = self.item
        trace = self.trace
        state = self.state
        if state == _S_START:
            tracer.begin(
                trace, "sample.fetch", split=item.split, wire_bytes=item.wire_bytes,
                **job.handles.span_attrs(item.sample_id),
            )
        elif state == _S_ARRIVED:
            if item.split > 0:
                tracer.begin(
                    trace, "storage.prefix", split=item.split,
                    **job.handles.span_attrs(item.sample_id),
                )
            else:
                tracer.begin(
                    trace, "link.transmit", payload_bytes=item.wire_bytes + job.overhead
                )
        elif state == _S_PREFIX_DONE:
            tracer.end(trace, "storage.prefix", cpu_s=item.prefix_cpu_s)
            tracer.begin(
                trace, "link.transmit", payload_bytes=item.wire_bytes + job.overhead
            )
        elif state == _S_RESPONDED:
            if item.suffix_cpu_s > 0:
                tracer.begin(trace, "compute.suffix")
            else:
                tracer.end(trace, "sample.fetch")
        elif state == _S_SUFFIX_DONE:
            tracer.end(trace, "compute.suffix", cpu_s=item.suffix_cpu_s)
            tracer.end(trace, "sample.fetch")
        _SampleRun._step(self, event)
        if state == _S_CHUNK_DONE and self.state == _S_RESPONDED:
            tracer.end(trace, "link.transmit")


# _FaultySampleRun states (the yield points of trainer.faulty_sample_proc):
_F_START = 0         # process start slot fired
_F_ARRIVED = 1       # (brownout-stretched) half-RTT request latency elapsed
_F_PREFIX_END = 2    # the prefix sub-cursor ended; event.value is its outcome
_F_CHUNK_GRANT = 3   # link granted for one chunk
_F_CHUNK_DONE = 4    # chunk crossed the (possibly browned-out) link
_F_RESPONDED = 5     # trailing half-RTT elapsed
_F_SUFFIX_GRANT = 6  # compute core granted
_F_SUFFIX_DONE = 7   # local suffix finished


class _FaultySampleRun:
    """One sample's fetch under a fault schedule (``faulty_sample_proc``).

    The offloaded prefix runs on an interruptible :class:`_PrefixRun`; a
    failed or refused offload demotes the sample to its split-0 work, and
    corrupted payloads are re-sent up to ``_MAX_PAYLOAD_SENDS`` times.
    Spans and timeline stamps follow the job's tracer and timeline.
    """

    __slots__ = ("job", "item", "batch", "step", "state", "grant", "remaining",
                 "payload", "send", "trace", "prefix")

    def __init__(self, job: _FastJob, item: "SampleWork", batch: "_BatchRun") -> None:
        self.job = job
        self.item = item
        self.batch = batch
        self.step = self._step
        self.state = _F_START
        self.grant: Optional[Event] = None
        self.remaining = 0
        self.payload = 0
        self.send = 0
        self.trace = trace_id(item.sample_id, job.epoch) if job.tracer is not None else ""
        self.prefix: Optional[_PrefixRun] = None
        env = job.env
        env._call_at(env.now, self.step)

    def _step(self, event: Any) -> None:
        job = self.job
        env = job.env
        state = self.state
        if state == _F_CHUNK_GRANT:  # hottest states first
            assert job.faults is not None
            factor = job.faults.bandwidth_factor(env.now)
            if factor < 1.0:
                job.report.brownout_chunks += 1
            self.state = _F_CHUNK_DONE
            chunk = self.remaining
            if chunk > job.link_chunk:
                chunk = job.link_chunk
            env._call_at(env.now + chunk / (job.bandwidth * factor), self.step)
        elif state == _F_CHUNK_DONE:
            link = job.handles.link
            link.release(self.grant)
            chunk = self.remaining
            if chunk > job.link_chunk:
                chunk = job.link_chunk
            self.remaining -= chunk
            if self.remaining > 0:
                self.state = _F_CHUNK_GRANT
                self.grant = link.acquire(job.flow_key, front=True)
                self.grant.callbacks.append(self.step)
            else:
                job.traffic["bytes"] += self.payload
                self._sent()
        elif state == _F_START:
            assert job.faults is not None
            if job.tracer is not None:
                item = self.item
                job.tracer.begin(
                    self.trace, "sample.fetch", split=item.split,
                    wire_bytes=item.wire_bytes, **job.handles.span_attrs(item.sample_id),
                )
            self.state = _F_ARRIVED
            env._call_at(
                env.now + (job.rtt + job.faults.extra_rtt_s(env.now)) / 2.0, self.step
            )
        elif state == _F_ARRIVED:
            self._arrived()
        elif state == _F_PREFIX_END:
            self._prefix_ended(event.value)
        elif state == _F_RESPONDED:
            item = self.item
            if item.suffix_cpu_s > 0:
                if job.tracer is not None:
                    job.tracer.begin(self.trace, "compute.suffix")
                self.state = _F_SUFFIX_GRANT
                self.grant = job.handles.compute_cpu.acquire()
                self.grant.callbacks.append(self.step)
            else:
                if job.tracer is not None:
                    job.tracer.end(self.trace, "sample.fetch")
                env._call_at(env.now, self.batch.child_end)
                self.step = None  # type: ignore[assignment]  # frees the cursor
        elif state == _F_SUFFIX_GRANT:
            self.state = _F_SUFFIX_DONE
            env._call_at(
                env.now + self.item.suffix_cpu_s * job.compute_cpu_factor, self.step
            )
        else:  # _F_SUFFIX_DONE
            job.handles.compute_cpu.release(self.grant)
            if job.tracer is not None:
                job.tracer.end(self.trace, "compute.suffix", cpu_s=self.item.suffix_cpu_s)
                job.tracer.end(self.trace, "sample.fetch")
            env._call_at(env.now, self.batch.child_end)
            self.step = None  # type: ignore[assignment]  # frees the cursor

    def _arrived(self) -> None:
        job = self.job
        item = self.item
        if item.split > 0:
            faults = job.faults
            assert faults is not None
            now = job.env.now
            if faults.storage_down(now):
                # Fetch refused outright: the node is down right now.
                job.report.note_failure(now)
                if job.tracer is not None:
                    job.tracer.instant(self.trace, "fault.storage_down")
                self._demote()
            else:
                job.report.offload_attempts += 1
                if job.tracer is not None:
                    job.tracer.begin(
                        self.trace, "storage.prefix", split=item.split,
                        **job.handles.span_attrs(item.sample_id),
                    )
                prefix = _PrefixRun(job, item, self)
                job.offloads[prefix] = item.sample_id
                self.prefix = prefix
                self.state = _F_PREFIX_END
                return
        self._start_transmit()

    def _prefix_ended(self, outcome: Any) -> None:
        job = self.job
        prefix = self.prefix
        assert prefix is not None
        job.offloads.pop(prefix, None)
        self.prefix = None
        offloaded = outcome is True
        if job.tracer is not None:
            job.tracer.end(
                self.trace, "storage.prefix",
                outcome="ok" if offloaded else "interrupted",
            )
        report = job.report
        now = job.env.now
        if offloaded:
            recovering = (
                report.first_failure_s is not None and report.recovered_at_s is None
            )
            report.note_success(now)
            if recovering and job.timeline is not None:
                job.timeline.record_fault(now, "recovery", self.item.sample_id)
        else:
            report.note_failure(now)
            self._demote()
        self._start_transmit()

    def _demote(self) -> None:
        """Degrade to No-Off: raw fetch + local preprocessing (never lost)."""
        job = self.job
        item = self.item
        job.report.demoted_samples += 1
        if job.timeline is not None:
            job.timeline.record_fault(job.env.now, "demotion", item.sample_id)
        if job.tracer is not None:
            job.tracer.instant(self.trace, "fault.demote", planned_split=item.split)
        assert job.fallback is not None
        self.item = job.fallback(item.sample_id)

    def _start_transmit(self) -> None:
        job = self.job
        self.payload = self.item.wire_bytes + job.overhead
        if job.tracer is not None:
            job.tracer.begin(self.trace, "link.transmit", payload_bytes=self.payload)
        self.send = 0
        self._send_payload()

    def _send_payload(self) -> None:
        job = self.job
        self.remaining = self.payload
        self.state = _F_CHUNK_GRANT
        self.grant = job.handles.link.acquire(job.flow_key, front=False)
        self.grant.callbacks.append(self.step)

    def _sent(self) -> None:
        """One payload crossed: re-send it if corrupted, else respond."""
        job = self.job
        faults = job.faults
        assert faults is not None
        if faults.corrupts(next(job.messages)):
            # Checksum caught a damaged payload: it never reaches the
            # pipeline; the re-transmission's bytes count as traffic.
            send = self.send
            report = job.report
            report.corrupted_payloads += 1
            if send + 1 < _MAX_PAYLOAD_SENDS:
                report.corrupt_retries += 1
            if job.timeline is not None:
                job.timeline.record_fault(job.env.now, "corruption", self.item.sample_id)
            if job.tracer is not None:
                job.tracer.instant(self.trace, "fault.corruption", send=send)
            self.send = send + 1
            if self.send < _MAX_PAYLOAD_SENDS:
                self._send_payload()
                return
        if job.tracer is not None:
            job.tracer.end(self.trace, "link.transmit")
        env = job.env
        self.state = _F_RESPONDED
        env._call_at(env.now + (job.rtt + faults.extra_rtt_s(env.now)) / 2.0, self.step)


# _PrefixRun states (the yield points of trainer.prefix_proc):
_P_START = 0  # process start slot pending
_P_GRANT = 1  # waiting for a storage core
_P_DONE = 2   # prefix CPU time elapsing


class _PrefixRun:
    """An interruptible offloaded prefix (``prefix_proc``).

    ``triggered`` mirrors ``Process.triggered``: once the end slot is
    pushed, a crash no longer interrupts it.  ``pending`` is the slot the
    generator's process would abandon on interrupt (its start slot or its
    CPU timeout); a grant wait is abandoned by dropping the callback.
    """

    __slots__ = ("job", "item", "owner", "step", "state", "pool", "grant",
                 "pending", "triggered")

    def __init__(self, job: _FastJob, item: "SampleWork", owner: _FaultySampleRun) -> None:
        self.job = job
        self.item = item
        self.owner = owner
        self.step = self._step
        self.state = _P_START
        pool = job.handles.storage_pool(item.sample_id)
        assert pool is not None  # split > 0 implies an offload-capable spec
        self.pool = pool
        self.grant: Optional[Event] = None
        self.triggered = False
        env = job.env
        self.pending: Optional[Any] = env._call_at(env.now, self.step)

    def _step(self, event: Any) -> None:
        self.pending = None
        state = self.state
        if state == _P_START:
            self.state = _P_GRANT
            self.grant = self.pool.acquire()
            self.grant.callbacks.append(self.step)
        elif state == _P_GRANT:
            job = self.job
            env = job.env
            assert job.faults is not None
            self.state = _P_DONE
            self.pending = env._call_at(
                env.now
                + self.item.prefix_cpu_s
                * job.storage_cpu_factor
                * job.faults.storage_cpu_factor(env.now),
                self.step,
            )
        else:  # _P_DONE
            self.pool.release(self.grant)
            self._end(True)

    def _end(self, outcome: bool) -> None:
        self.triggered = True
        env = self.job.env
        env._call_at(env.now, self.owner.step, outcome)
        self.step = None  # type: ignore[assignment]  # frees the cursor

    def interrupt(self) -> None:
        """``Process.interrupt``: abandon the current wait, throw in next."""
        if self.state == _P_GRANT:
            assert self.grant is not None
            self.grant.callbacks.remove(self.step)
        pending = self.pending
        if pending is not None:
            pending.fn = None  # neuter the in-flight slot
        self.pending = None
        env = self.job.env
        env._call_at(env.now, self._throw_in)

    def _throw_in(self, event: Any) -> None:
        if self.state != _P_START:
            # The generator's ``except Interrupt`` block.
            pool = self.pool
            if pool.holds(self.grant):
                pool.release(self.grant)
            else:
                pool.cancel(self.grant)
        # An unstarted generator ends with the Interrupt itself; either
        # way the outcome is not True, so the sample demotes.
        self._end(False)


class _CrashWatch:
    """One crash window's watcher (``crash_watch``)."""

    __slots__ = ("job", "window")

    def __init__(self, job: _FastJob, window: CrashWindow) -> None:
        self.job = job
        self.window = window
        env = job.env
        env._call_at(env.now, self.start)

    def start(self, event: Any) -> None:
        env = self.job.env
        env._call_at(env.now + self.window.start, self.fire)

    def fire(self, event: Any) -> None:
        job = self.job
        offloads = job.offloads
        victims = [prefix for prefix in offloads if not prefix.triggered]
        for prefix in victims:
            # Popped, not read: a second window opening at the same instant
            # must not interrupt an offload whose first interrupt is queued.
            sample_id = offloads.pop(prefix)
            job.report.crash_interrupts += 1
            if job.timeline is not None:
                job.timeline.record_fault(job.env.now, "crash-interrupt", sample_id)
            if job.tracer is not None:
                job.tracer.instant(
                    trace_id(sample_id, job.epoch), "fault.crash_interrupt"
                )
            prefix.interrupt()


class _BatchRun:
    """One batch's prefetch-token wait and child join (``batch_proc``)."""

    __slots__ = ("job", "index", "ids", "token", "pending")

    def __init__(self, job: _FastJob, index: int, ids: List[int]) -> None:
        self.job = job
        self.index = index
        self.ids = ids
        self.token: Optional[Event] = None
        self.pending = 0
        env = job.env
        env._call_at(env.now, self.start)

    def start(self, event: Any) -> None:
        # First resume: claim a prefetch-window token, wait for it.
        token = self.job.handles.prefetch.acquire()
        self.token = token
        token.callbacks.append(self.granted)

    def granted(self, event: Any) -> None:
        # Token granted: launch every sample, join them via countdown
        # (one child_end slot per sample plays the child's process-end
        # event; the final one stands in for the AllOf join).
        job = self.job
        env = job.env
        work = job.work
        sample_cls = job.sample_cls
        self.pending = len(self.ids)
        for sample_id in self.ids:
            sample_cls(job, work[sample_id], self)
        if not self.ids:
            env._call_at(env.now, self.all_done)

    def child_end(self, event: Any) -> None:
        self.pending -= 1
        if self.pending == 0:
            env = self.job.env
            env._call_at(env.now, self.all_done)

    def all_done(self, event: Any) -> None:
        self.job.batch_ready[self.index].trigger(self.token)


class _TimelineBatchRun(_BatchRun):
    """:class:`_BatchRun` that stamps the batch's ``ready_at``."""

    __slots__ = ()

    def all_done(self, event: Any) -> None:
        job = self.job
        assert job.timeline is not None
        job.timeline.trace(self.index).ready_at = job.env.now
        _BatchRun.all_done(self, event)


# _GpuRun states (the yield points of trainer.gpu_proc):
_G_START = 0       # process start slot fired
_G_READY = 1       # batch_ready[index] delivered
_G_GRANT = 2       # GPU granted
_G_BATCH_DONE = 3  # batch compute time elapsed


class _GpuRun:
    """The in-order GPU consumer (``gpu_proc``)."""

    __slots__ = ("job", "index", "token", "grant", "step", "state")

    def __init__(self, job: _FastJob) -> None:
        self.job = job
        self.index = 0
        self.token: Optional[Event] = None
        self.grant: Optional[Event] = None
        self.state = _G_START
        self.step = self._step
        env = job.env
        env._call_at(env.now, self.step)

    def _wait_ready(self) -> None:
        job = self.job
        ready = job.batch_ready[self.index]
        self.state = _G_READY
        if ready.processed:
            # Deliver through the queue, like Process._wait_on on an
            # already-fired event.
            env = job.env
            env._call_at(env.now, self.step, ready.value)
        else:
            ready.callbacks.append(self.step)

    def _step(self, event: Any) -> None:
        job = self.job
        env = job.env
        state = self.state
        if state == _G_READY:
            self.token = event.value
            self.state = _G_GRANT
            self.grant = job.handles.gpu.acquire()
            self.grant.callbacks.append(self.step)
        elif state == _G_GRANT:
            self.state = _G_BATCH_DONE
            ids = job.batches[self.index]
            env._call_at(env.now + job.model.batch_time_s(len(ids)), self.step)
        elif state == _G_BATCH_DONE:
            job.handles.gpu.release(self.grant)
            job.handles.prefetch.release(self.token)
            self.index += 1
            if self.index < len(job.batches):
                self._wait_ready()
            else:
                self._finish()
        else:  # _G_START
            if job.batches:
                self._wait_ready()
            else:
                self._finish()

    def _finish(self) -> None:
        job = self.job
        job.traffic["done"] = 1
        job.traffic["finished_at"] = job.env.now


class _TracedGpuRun(_GpuRun):
    """:class:`_GpuRun` plus ``gpu_proc``'s timeline stamps and spans."""

    __slots__ = ()

    def _step(self, event: Any) -> None:
        job = self.job
        state = self.state
        if state == _G_GRANT or state == _G_BATCH_DONE:
            index = self.index
            now = job.env.now
            tracer = job.tracer
            if state == _G_GRANT:
                if job.timeline is not None:
                    job.timeline.trace(index).gpu_start = now
                if tracer is not None:
                    tracer.begin(
                        f"b{index}-e{job.epoch}", "gpu.batch", batch=index,
                        **job.handles.span_attrs(),
                    )
            else:
                if job.timeline is not None:
                    job.timeline.trace(index).gpu_end = now
                if tracer is not None:
                    tracer.end(f"b{index}-e{job.epoch}", "gpu.batch")
        _GpuRun._step(self, event)

    def _finish(self) -> None:
        _GpuRun._finish(self)
        job = self.job
        if job.timeline is not None:
            job.timeline.epoch_end = job.env.now


def launch_training_job(
    env: Environment,
    spec: ClusterSpec,
    work: Dict[int, "SampleWork"],
    batches: List[List[int]],
    model: ModelProfile,
    handles: "JobHandles",
    timeline: Optional[Timeline] = None,
    faults: Optional[FaultSchedule] = None,
    fault_report: Optional[FaultReport] = None,
    fallback_work: Optional[Callable[[int], "SampleWork"]] = None,
    tracer: Optional[Tracer] = None,
    epoch: int = 0,
) -> Dict[str, Any]:
    """Register one job's epoch on ``env`` as batched cursors.

    Returns the job's live traffic counter (key ``"bytes"``); ``"done"``
    flips to 1 and ``"finished_at"`` is stamped when the GPU consumes the
    last batch.  Arguments and results match
    :func:`~repro.cluster.trainer.launch_training_processes` on the
    reference kernel -- byte-identical stats, traffic, fault accounting,
    resource accounting, timeline and span stream.

    faults: optional fault schedule on virtual time.  When non-empty,
        ``fallback_work`` must map a sample id to its split-0 work so
        failed offloads can demote; observations accumulate into
        ``fault_report``.  An empty/None schedule runs the fault-free
        cursors.
    tracer: optional per-sample span collector; ``epoch`` names the traces
        (trace id = sample id + epoch).
    """
    if faults is not None and faults.is_empty:
        faults = None
    if faults is not None and fallback_work is None:
        raise ValueError("fault injection needs fallback_work for demotions")
    job = _FastJob(env, spec, work, batches, model, handles)
    job.timeline = timeline
    job.tracer = tracer
    job.epoch = epoch
    if faults is not None:
        job.faults = faults
        job.fallback = fallback_work
        if fault_report is not None:
            job.report = fault_report
        job.sample_cls = _FaultySampleRun
    elif tracer is not None:
        job.sample_cls = _TracedSampleRun
    batch_cls = _TimelineBatchRun if timeline is not None else _BatchRun
    for index, ids in enumerate(batches):
        batch_cls(job, index, ids)
    if timeline is not None or tracer is not None:
        _TracedGpuRun(job)
    else:
        _GpuRun(job)
    if faults is not None:
        for window in faults.crashes:
            _CrashWatch(job, window)
    return job.traffic
