"""Byte-identity gates: the optimized kernels vs the frozen seed kernel.

``run_epoch(kernel="reference")`` replays the seed simulator
(:mod:`repro.cluster.refsim`) with generator processes and the sequential
work builder; ``kernel="auto"`` runs the optimized kernel, the vectorized
work builder and the batched cursor engine -- faults, spans and timeline
included.  Every test
here asserts the outputs are *equal down to the last float* -- the same
contract ``repro.cluster.bench`` enforces on every ``make bench`` run.
"""

import dataclasses
import json

import pytest

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.sharded import ShardedTrainerSim, round_robin_placement
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim, WorkAdjustment
from repro.data.catalog import make_openimages
from repro.data.dataset import Dataset
from repro.faults import FaultSchedule
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


def stats_fingerprint(stats) -> str:
    """Every float of an EpochStats, serialized exactly (spans excluded:
    Tracer objects carry no deterministic repr; span events are compared
    separately via span_fingerprint)."""
    payload = dataclasses.asdict(stats)
    payload.pop("spans", None)
    return json.dumps(payload, sort_keys=True, default=repr)


def span_fingerprint(stats) -> list:
    assert stats.spans is not None
    return [repr(event) for event in stats.spans.events]


@pytest.fixture(scope="module")
def world():
    spec = dataclasses.replace(standard_cluster(), prefetch_batches=2)
    dataset = make_openimages(num_samples=240, seed=11)
    trainer = TrainerSim(
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        spec=spec,
        batch_size=16,
        seed=3,
    )
    splits = [i % 6 for i in range(len(dataset))]
    return trainer, splits, spec, dataset


class TestSingleNodeIdentity:
    def test_fault_free_fast_engine(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_auto_matches_fast_when_eligible(self, world):
        trainer, splits, _, _ = world
        fast = trainer.run_epoch(splits, epoch=1, kernel="auto")
        auto = trainer.run_epoch(splits, epoch=1)
        assert stats_fingerprint(fast) == stats_fingerprint(auto)

    def test_no_offload_plan(self, world):
        trainer, _, _, _ = world
        ref = trainer.run_epoch(splits=None, epoch=0, kernel="reference")
        fast = trainer.run_epoch(splits=None, epoch=0, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_adjustments(self, world):
        trainer, splits, _, dataset = world
        adj = {
            i: WorkAdjustment(
                wire_bytes_delta=-64, extra_storage_cpu_s=1e-4, extra_compute_cpu_s=2e-4
            )
            for i in range(0, len(dataset), 7)
            if splits[i] > 0
        }
        ref = trainer.run_epoch(splits, epoch=1, adjustments=adj, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, adjustments=adj, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_faulted_run_on_optimized_kernel(self, world):
        trainer, splits, _, _ = world
        base = trainer.run_epoch(splits, epoch=1, kernel="reference")
        faults = (
            FaultSchedule()
            .with_crash(0.3 * base.epoch_time_s, duration=0.2 * base.epoch_time_s)
            .with_brownout(
                0.6 * base.epoch_time_s,
                duration=0.1 * base.epoch_time_s,
                bandwidth_factor=0.4,
            )
            .with_corruption(0.05)
        )
        ref = trainer.run_epoch(splits, epoch=1, faults=faults, kernel="reference")
        auto = trainer.run_epoch(splits, epoch=1, faults=faults, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(auto)
        assert dataclasses.asdict(ref.faults) == dataclasses.asdict(auto.faults)

    def test_spans_identical(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, record_spans=True, kernel="reference")
        auto = trainer.run_epoch(splits, epoch=1, record_spans=True, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(auto)
        assert span_fingerprint(ref) == span_fingerprint(auto)

    def test_timeline_identical(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, record_timeline=True, kernel="reference")
        auto = trainer.run_epoch(splits, epoch=1, record_timeline=True, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(auto)

    def test_instrumented_runs_match_reference(self, world):
        trainer, splits, _, _ = world
        base = trainer.run_epoch(splits, epoch=1, kernel="reference")
        faults = (
            FaultSchedule(seed=5)
            .with_crash(0.3 * base.epoch_time_s, duration=0.2 * base.epoch_time_s)
            .with_brownout(
                0.5 * base.epoch_time_s,
                duration=0.2 * base.epoch_time_s,
                bandwidth_factor=0.5,
                extra_rtt_s=0.01,
            )
            .with_cpu_drift(0.1 * base.epoch_time_s, 0.5 * base.epoch_time_s, factor=1.7)
            .with_corruption(0.05)
        )
        runs = {
            kernel: trainer.run_epoch(
                splits, epoch=1, faults=faults, record_spans=True,
                record_timeline=True, kernel=kernel,
            )
            for kernel in ("reference", "auto")
        }
        ref, auto = runs["reference"], runs["auto"]
        assert ref.faults.demoted_samples > 0 and ref.faults.corrupted_payloads > 0
        assert ref.timeline.fault_events
        assert stats_fingerprint(ref) == stats_fingerprint(auto)
        assert span_fingerprint(ref) == span_fingerprint(auto)

    def test_unknown_kernel_rejected(self, world):
        trainer, splits, _, _ = world
        with pytest.raises(ValueError, match="kernel must be one of"):
            trainer.run_epoch(splits, epoch=1, kernel="warp")

    def test_fast_work_builder_matches_sequential(self, world):
        trainer, splits, _, _ = world
        seq = trainer._epoch_work(splits, epoch=1)
        fast = trainer._epoch_work_fast(splits, epoch=1)
        assert seq == fast
        # Empty folds stay int 0, exactly like sum([]).
        assert isinstance(fast[0].prefix_cpu_s, int) or splits[0] > 0

    def test_fast_work_builder_validation_messages(self, world):
        trainer, _, _, dataset = world
        bad = [0] * len(dataset)
        bad[3] = 99
        with pytest.raises(ValueError, match="bad split 99"):
            trainer._epoch_work_fast(bad, epoch=0)


class MixedKindDataset(Dataset):
    """Encoded samples interleaved with already-decoded images."""

    name = "mixed-kind"

    def __len__(self) -> int:
        return 24

    def raw_meta(self, sample_id: int) -> StageMeta:
        self._check_id(sample_id)
        height, width = 200 + 7 * sample_id, 300 + 5 * sample_id
        if sample_id % 2:
            return StageMeta.for_image(height, width)
        return StageMeta.for_encoded(60_000 + 97 * sample_id, height, width)


class TestDemotionFallback:
    """Split-0 work for demoted samples, read off the batch matrices."""

    @staticmethod
    def _assert_fallback_is_sample_work(trainer, splits, epoch):
        work, fallback = trainer._batch_work(splits, epoch, fallback=True)
        assert work == trainer._epoch_work(splits, epoch)
        for sample_id in trainer.dataset.sample_ids():
            expected = trainer.sample_work(sample_id, 0, epoch)
            assert repr(fallback(sample_id)) == repr(expected)

    def test_batch_path(self, world):
        trainer, splits, _, _ = world
        self._assert_fallback_is_sample_work(trainer, splits, epoch=1)

    def test_mixed_kind_dataset_stays_on_the_loop(self, world):
        _, _, spec, _ = world
        trainer = TrainerSim(
            dataset=MixedKindDataset(),
            pipeline=standard_pipeline(),
            model=get_model_profile("alexnet"),
            spec=spec,
            batch_size=8,
            seed=3,
        )
        self._assert_fallback_is_sample_work(trainer, [i % 4 for i in range(24)], 2)

    def test_no_fallback_unless_asked(self, world):
        trainer, splits, _, _ = world
        assert trainer._batch_work(splits, 1)[1] is None


class TestShardedIdentity:
    def test_fault_free(self, world):
        _, _, spec, dataset = world
        splits = [i % 6 for i in range(len(dataset))]
        sim = ShardedTrainerSim(
            dataset,
            standard_pipeline(),
            get_model_profile("alexnet"),
            spec,
            placement=round_robin_placement(len(dataset), 4),
            batch_size=16,
            seed=2,
        )
        ref = sim.run_epoch(splits, epoch=0, kernel="reference")
        fast = sim.run_epoch(splits, epoch=0, kernel="auto")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)
        assert ref.shard_utilization == fast.shard_utilization


class TestMultiJobIdentity:
    @staticmethod
    def _fingerprint(stats) -> str:
        return json.dumps(
            {
                "results": {
                    name: dataclasses.asdict(result)
                    for name, result in stats.results.items()
                },
                "makespan_s": stats.makespan_s,
                "total_traffic_bytes": stats.total_traffic_bytes,
                "link_utilization": stats.link_utilization,
                "storage_cpu_utilization": stats.storage_cpu_utilization,
            },
            sort_keys=True,
            default=repr,
        )

    def test_shared_link_identity(self, world):
        _, _, spec, _ = world
        pipeline = standard_pipeline()
        model = get_model_profile("alexnet")
        jobs = [
            SharedJob(
                name="tenant-a",
                dataset=make_openimages(num_samples=120, seed=1),
                pipeline=pipeline,
                model=model,
                splits=[2] * 120,
                batch_size=8,
                seed=1,
            ),
            SharedJob(
                name="tenant-b",
                dataset=make_openimages(num_samples=96, seed=2),
                pipeline=pipeline,
                model=model,
                splits=[i % 6 for i in range(96)],
                batch_size=16,
                seed=2,
            ),
        ]
        sim = SharedLinkSim(spec)
        ref = sim.run_epoch(jobs, epoch=0, kernel="reference")
        fast = sim.run_epoch(jobs, epoch=0, kernel="auto")
        assert self._fingerprint(ref) == self._fingerprint(fast)


def _crash_run(trainer, splits, faults, kernel, monkeypatch, resource_module):
    """One faulted, traced run; returns (stats, cancel calls on the kernel)."""
    calls = []
    cancel = resource_module.Resource.cancel

    def counting_cancel(self, request):
        calls.append(self.name)
        return cancel(self, request)

    with monkeypatch.context() as patch:
        patch.setattr(resource_module.Resource, "cancel", counting_cancel)
        stats = trainer.run_epoch(
            splits, epoch=0, faults=faults, record_spans=True,
            record_timeline=True, kernel=kernel,
        )
    return stats, calls


class TestFaultedCursorIdentity:
    """Interruptible prefixes, crash watchers and instrumented cursors."""

    @staticmethod
    def _trainer(storage_cores):
        spec = dataclasses.replace(
            standard_cluster(storage_cores=storage_cores), prefetch_batches=2
        )
        return TrainerSim(
            dataset=make_openimages(num_samples=160, seed=4),
            pipeline=standard_pipeline(),
            model=get_model_profile("alexnet"),
            spec=spec,
            batch_size=16,
            seed=2,
        )

    def _compare(self, trainer, splits, faults, monkeypatch):
        from repro.cluster import refsim, sim

        ref, ref_cancels = _crash_run(
            trainer, splits, faults, "reference", monkeypatch, refsim
        )
        auto, auto_cancels = _crash_run(
            trainer, splits, faults, "auto", monkeypatch, sim
        )
        assert stats_fingerprint(ref) == stats_fingerprint(auto)
        assert span_fingerprint(ref) == span_fingerprint(auto)
        assert ref_cancels == auto_cancels
        return auto, auto_cancels

    def test_crash_while_prefixes_queue(self, monkeypatch):
        # One storage core and every sample offloaded: prefixes queue, so
        # the crash finds one holding the core and the rest waiting.  Each
        # throw-in releases its core, which grants the next victim before
        # that victim's own throw-in runs -- so it releases too.
        trainer = self._trainer(storage_cores=1)
        splits = [3] * len(trainer.dataset)
        clean = trainer.run_epoch(splits, epoch=0, kernel="reference")
        faults = FaultSchedule().with_crash(
            0.4 * clean.epoch_time_s, duration=0.1 * clean.epoch_time_s
        )
        stats, cancels = self._compare(trainer, splits, faults, monkeypatch)
        assert stats.faults.crash_interrupts > trainer.spec.storage_cores
        assert not cancels

    def test_interrupting_a_queued_prefix_cancels_its_request(self, world):
        # The cancel branch of the prefix cursor, driven directly: a crash
        # reaches a prefix whose storage-core request is still queued.
        from repro.cluster import sim
        from repro.cluster.engine import _FastJob, _PrefixRun
        from repro.cluster.trainer import JobHandles, SampleWork

        _, _, spec, _ = world
        env = sim.Environment()
        pool = sim.Resource(env, 1, "storage-cpu")
        handles = JobHandles(
            compute_cpu=sim.Resource(env, 1), storage_cpu=pool,
            link=sim.Resource(env, 1), gpu=sim.Resource(env, 1),
            prefetch=sim.Resource(env, 1),
        )
        job = _FastJob(env, spec, {}, [], get_model_profile("alexnet"), handles)
        job.faults = FaultSchedule().with_crash(1.0)
        outcomes = []

        class Owner:
            def step(self, slot):
                outcomes.append((env.now, slot.value))

        holder = pool.acquire()
        item = SampleWork(sample_id=0, split=2, wire_bytes=10, prefix_cpu_s=0.5,
                          suffix_cpu_s=0.1)
        queued = _PrefixRun(job, item, Owner())
        held = _PrefixRun(job, item, Owner())
        env.run()
        assert pool.queue_length == 2
        queued.interrupt()
        env.run()
        assert pool.queue_length == 1 and pool.in_use == 1 and pool.holds(holder)
        assert outcomes == [(0.0, False)]
        env.timeout(0.25)
        env.run()
        pool.release(holder)  # the second prefix now holds the core
        env.timeout(0.25)
        env.run(until=0.5)
        held.interrupt()  # mid-prefix: its CPU timeout is abandoned
        env.run()
        assert outcomes == [(0.0, False), (0.5, False)]
        assert pool.in_use == 0 and pool.queue_length == 0
        assert pool.busy_time == 0.25 + 0.25  # the holder, then the held prefix

    def test_crash_releases_held_prefixes(self, monkeypatch):
        # Spare storage cores: nothing queues, so every interrupted prefix
        # holds its core and releases it.
        trainer = self._trainer(storage_cores=8)
        splits = [2] * len(trainer.dataset)
        clean = trainer.run_epoch(splits, epoch=0, kernel="reference")
        faults = FaultSchedule().with_crash(
            0.2 * clean.epoch_time_s, duration=0.1 * clean.epoch_time_s
        )
        stats, cancels = self._compare(trainer, splits, faults, monkeypatch)
        assert 0 < stats.faults.crash_interrupts <= trainer.spec.storage_cores
        assert not cancels

    def test_coincident_crash_windows(self, monkeypatch):
        trainer = self._trainer(storage_cores=2)
        splits = [3] * len(trainer.dataset)
        clean = trainer.run_epoch(splits, epoch=0, kernel="reference")
        start = 0.3 * clean.epoch_time_s
        faults = (
            FaultSchedule()
            .with_crash(start, duration=0.1 * clean.epoch_time_s)
            .with_crash(start, duration=0.05 * clean.epoch_time_s)
        )
        stats, _ = self._compare(trainer, splits, faults, monkeypatch)
        assert stats.faults.crash_interrupts > 0

    def test_sharded_with_faults_and_spans(self, world):
        _, _, spec, dataset = world
        sim = ShardedTrainerSim(
            dataset,
            standard_pipeline(),
            get_model_profile("alexnet"),
            spec,
            placement=round_robin_placement(len(dataset), 3),
            batch_size=16,
            seed=2,
        )
        splits = [i % 6 for i in range(len(dataset))]
        clean = sim.run_epoch(splits, epoch=0, kernel="reference")
        faults = (
            FaultSchedule(seed=9)
            .with_crash(0.3 * clean.epoch_time_s, duration=0.2 * clean.epoch_time_s)
            .with_brownout(0.6 * clean.epoch_time_s, 0.1 * clean.epoch_time_s, 0.3)
            .with_corruption(0.05)
        )
        ref = sim.run_epoch(
            splits, epoch=0, faults=faults, record_spans=True, kernel="reference"
        )
        auto = sim.run_epoch(splits, epoch=0, faults=faults, record_spans=True)
        assert ref.faults.demoted_samples > 0
        assert stats_fingerprint(ref) == stats_fingerprint(auto)
        assert span_fingerprint(ref) == span_fingerprint(auto)
        assert ref.shard_utilization == auto.shard_utilization

    @pytest.mark.parametrize("switch", ["record_spans", "record_timeline"])
    def test_shared_link_telemetry(self, world, switch):
        _, _, spec, _ = world
        pipeline = standard_pipeline()
        model = get_model_profile("alexnet")
        jobs = [
            SharedJob(
                name=f"tenant-{i}",
                dataset=make_openimages(num_samples=64 + 16 * i, seed=i),
                pipeline=pipeline,
                model=model,
                splits=[(j + i) % 6 for j in range(64 + 16 * i)],
                batch_size=8,
                seed=i,
            )
            for i in range(2)
        ]
        sim = SharedLinkSim(spec)
        ref = sim.run_epoch(jobs, epoch=0, kernel="reference", **{switch: True})
        auto = sim.run_epoch(jobs, epoch=0, **{switch: True})
        assert TestMultiJobIdentity._fingerprint(ref) == TestMultiJobIdentity._fingerprint(
            auto
        )
        assert span_fingerprint_or_empty(ref) == span_fingerprint_or_empty(auto)
        assert ref.timelines == auto.timelines


def span_fingerprint_or_empty(stats) -> list:
    return [] if stats.spans is None else span_fingerprint(stats)


def test_optimized_kernel_constructs_no_process(world, monkeypatch):
    """Faulted, traced, timelined runs of all three sims stay on cursors."""
    from repro.cluster import sim

    def refuse(self, *args, **kwargs):
        raise AssertionError("a generator Process ran on the optimized kernel")

    trainer, splits, spec, dataset = world
    clean = trainer.run_epoch(splits, epoch=1)
    faults = (
        FaultSchedule()
        .with_crash(0.3 * clean.epoch_time_s, duration=0.2 * clean.epoch_time_s)
        .with_brownout(0.6 * clean.epoch_time_s, 0.1 * clean.epoch_time_s, 0.4)
        .with_cpu_drift(0.0, 0.5 * clean.epoch_time_s)
        .with_corruption(0.05)
    )
    sharded = ShardedTrainerSim(
        dataset,
        standard_pipeline(),
        get_model_profile("alexnet"),
        spec,
        placement=round_robin_placement(len(dataset), 4),
        batch_size=16,
        seed=3,
    )
    job = SharedJob(
        name="tenant",
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        splits=splits,
        batch_size=16,
    )
    monkeypatch.setattr(sim.Process, "__init__", refuse)
    instrumented = dict(record_spans=True, record_timeline=True)
    for run in (trainer, sharded):
        stats = run.run_epoch(splits, epoch=1, faults=faults, kernel="auto", **instrumented)
        assert stats.faults.demoted_samples > 0
        assert stats.spans.events and stats.timeline.batches
    multi = SharedLinkSim(spec).run_epoch([job], epoch=1, kernel="auto", **instrumented)
    assert multi.spans.events and multi.timelines["tenant"].batches
