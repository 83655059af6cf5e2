"""Fault injection through the event-driven trainer (virtual-time axis)."""

import pytest

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.data.catalog import make_openimages
from repro.faults import FaultSchedule


@pytest.fixture(scope="module")
def dataset():
    return make_openimages(num_samples=60, seed=11)


def make_trainer(dataset, prefetch_batches=2):
    import dataclasses

    spec = dataclasses.replace(
        standard_cluster(), prefetch_batches=prefetch_batches
    )
    from repro.preprocessing.pipeline import standard_pipeline
    from repro.workloads.models import get_model_profile

    return TrainerSim(
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        spec=spec,
        batch_size=8,
        seed=3,
    )


@pytest.fixture(scope="module")
def baseline(dataset):
    trainer = make_trainer(dataset)
    splits = [2] * len(dataset)
    return trainer.run_epoch(splits, epoch=1)


class TestEmptySchedule:
    def test_byte_identical_to_fault_free_run(self, dataset, baseline):
        trainer = make_trainer(dataset)
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=FaultSchedule())
        assert stats.epoch_time_s == baseline.epoch_time_s
        assert stats.traffic_bytes == baseline.traffic_bytes
        assert stats.faults is None


class TestCrash:
    def test_epoch_survives_with_zero_lost_samples(self, dataset, baseline):
        trainer = make_trainer(dataset)
        window = (0.3 * baseline.epoch_time_s, 0.3 * baseline.epoch_time_s)
        faults = FaultSchedule().with_crash(window[0], duration=window[1])
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.num_samples == baseline.num_samples  # zero lost
        assert stats.faults is not None
        assert stats.faults.demoted_samples > 0
        # Demoted samples ship raw bytes: traffic goes up, never down.
        assert stats.traffic_bytes > baseline.traffic_bytes

    def test_recovery_latency_measured_after_restart(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_crash(
            0.3 * baseline.epoch_time_s, duration=0.2 * baseline.epoch_time_s
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        latency = stats.faults.recovery_latency_s
        assert latency is not None and latency > 0

    def test_permanent_crash_demotes_every_remaining_offload(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_crash(0.0)  # down from t=0, never restarts
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.num_samples == baseline.num_samples
        assert stats.faults.demoted_samples == len(dataset)
        assert stats.faults.recovery_latency_s is None

    def test_timeline_records_fault_events(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_crash(
            0.3 * baseline.epoch_time_s, duration=0.3 * baseline.epoch_time_s
        )
        stats = trainer.run_epoch(
            [2] * len(dataset), epoch=1, faults=faults, record_timeline=True
        )
        assert stats.timeline.fault_count("demotion") == stats.faults.demoted_samples
        assert stats.timeline.fault_count() >= stats.timeline.fault_count("demotion")


class TestBrownout:
    def test_epoch_slows_but_traffic_is_unchanged(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_brownout(
            0.2 * baseline.epoch_time_s,
            duration=0.5 * baseline.epoch_time_s,
            bandwidth_factor=0.1,
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.epoch_time_s > baseline.epoch_time_s
        assert stats.traffic_bytes == baseline.traffic_bytes
        assert stats.faults.brownout_chunks > 0


class TestCpuDrift:
    def test_slow_storage_cpu_stretches_the_epoch(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_cpu_drift(
            0.1 * baseline.epoch_time_s,
            duration=0.7 * baseline.epoch_time_s,
            factor=6.0,
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.epoch_time_s > baseline.epoch_time_s
        assert stats.num_samples == baseline.num_samples


class TestCorruption:
    def test_corrupted_payloads_are_resent(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule(seed=7).with_corruption(0.1)
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.faults.corrupted_payloads > 0
        assert stats.faults.corrupt_retries >= stats.faults.corrupted_payloads
        # Retransmissions are extra traffic on the same sample set.
        assert stats.traffic_bytes > baseline.traffic_bytes
        assert stats.num_samples == baseline.num_samples


class TestCoincidentCrashes:
    """Two crash windows opening at the same instant (regression)."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.preprocessing.pipeline import standard_pipeline
        from repro.workloads.models import get_model_profile

        data = make_openimages(num_samples=64, seed=11)
        trainer = TrainerSim(
            dataset=data,
            pipeline=standard_pipeline(),
            model=get_model_profile("alexnet"),
            spec=standard_cluster(storage_cores=2),
            seed=3,
        )
        splits = [3] * len(data)
        return trainer, splits, trainer.run_epoch(splits, epoch=0).epoch_time_s

    @pytest.mark.parametrize("kernel", ["reference", "auto"])
    def test_same_start_windows_interrupt_each_offload_once(self, setup, kernel):
        trainer, splits, clean_s = setup
        start = 0.2 * clean_s
        longer = FaultSchedule().with_crash(start, duration=0.1 * clean_s)
        both = longer.with_crash(start, duration=0.05 * clean_s)
        alone = trainer.run_epoch(splits, epoch=0, faults=longer, kernel=kernel)
        stats = trainer.run_epoch(splits, epoch=0, faults=both, kernel=kernel)
        assert stats.num_samples == len(splits)
        assert stats.faults.crash_interrupts == alone.faults.crash_interrupts > 0
        assert stats.faults.demoted_samples == alone.faults.demoted_samples
