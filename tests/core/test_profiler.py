"""Two-stage profiler tests."""

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.profiler import (
    BottleneckKind,
    StageOneProfiler,
    StageTwoProfiler,
    ThroughputProbe,
)
from repro.workloads.models import get_model_profile


class TestThroughputProbe:
    def test_bottleneck_is_minimum(self):
        probe = ThroughputProbe(5.0, 2.0, 9.0, 50)
        assert probe.bottleneck is BottleneckKind.IO
        assert probe.io_bound

    def test_gpu_bound(self):
        probe = ThroughputProbe(1.0, 2.0, 9.0, 50)
        assert probe.bottleneck is BottleneckKind.GPU
        assert not probe.io_bound

    def test_cpu_bound(self):
        probe = ThroughputProbe(5.0, 6.0, 1.0, 50)
        assert probe.bottleneck is BottleneckKind.CPU


class TestStageOne:
    def test_alexnet_at_500mbps_is_io_bound(self, openimages_small, pipeline, alexnet):
        probe = StageOneProfiler().probe(
            openimages_small, pipeline, standard_cluster(), alexnet, batch_size=64
        )
        assert probe.io_bound

    def test_resnet50_at_high_bandwidth_is_gpu_bound(self, openimages_small, pipeline):
        resnet50 = get_model_profile("resnet50", "rtx6000")
        spec = standard_cluster(bandwidth_mbps=100_000.0)
        probe = StageOneProfiler().probe(
            openimages_small, pipeline, spec, resnet50, batch_size=64
        )
        assert probe.bottleneck is BottleneckKind.GPU

    def test_starved_compute_cores_cpu_bound(self, openimages_small, pipeline, alexnet):
        spec = standard_cluster(
            compute_cores=1, bandwidth_mbps=100_000.0
        )
        probe = StageOneProfiler().probe(
            openimages_small, pipeline, spec, alexnet, batch_size=64
        )
        assert probe.bottleneck is BottleneckKind.CPU

    def test_probe_uses_limited_sample_prefix(self, openimages_small, pipeline, alexnet):
        probe = StageOneProfiler(probe_batches=2).probe(
            openimages_small, pipeline, standard_cluster(), alexnet, batch_size=10
        )
        assert probe.probe_batches == 2

    @pytest.mark.parametrize("audio", [False, True])
    def test_probe_equals_a_hand_fold_over_simulated_runs(
        self, openimages_small, pipeline, alexnet, audio
    ):
        if audio:  # no batch handlers: the records come from the loop
            from repro.data.audio import make_audio_trace
            from repro.preprocessing.audio_ops import audio_pipeline

            dataset, pipeline = make_audio_trace(80, seed=2), audio_pipeline()
        else:
            dataset = openimages_small
        spec = standard_cluster()
        probe = StageOneProfiler(probe_batches=4).probe(
            dataset, pipeline, spec, alexnet, batch_size=16, seed=5
        )
        ids = range(64)
        cpu_s = 0.0
        for i in ids:
            run = pipeline.simulate(dataset.raw_meta(i), seed=5, epoch=0, sample_id=i)
            cpu_s += run.total_cost_s
        cpu_s = cpu_s * spec.compute_cpu_factor / spec.compute_cores
        raw = sum(dataset.raw_meta(i).nbytes for i in ids)
        raw += len(ids) * spec.response_overhead_bytes
        assert probe == ThroughputProbe(
            gpu_batches_per_s=1.0 / alexnet.batch_time_s(16),
            io_batches_per_s=4 / (raw / spec.bandwidth_bytes_per_s),
            cpu_batches_per_s=4 / cpu_s,
            probe_batches=4,
        )

    def test_empty_dataset_rejected(self, pipeline, alexnet):
        from repro.data.trace import TraceDataset

        empty = TraceDataset([], [], [])
        with pytest.raises(ValueError):
            StageOneProfiler().probe(empty, pipeline, standard_cluster(), alexnet)

    def test_validates_probe_batches(self):
        with pytest.raises(ValueError):
            StageOneProfiler(probe_batches=0)


class TestStageTwo:
    def test_profiles_every_sample(self, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        assert len(records) == len(openimages_small)
        assert [r.sample_id for r in records] == list(range(len(openimages_small)))

    def test_records_match_raw_sizes(self, openimages_small, pipeline):
        records = StageTwoProfiler().profile(openimages_small, pipeline)
        for record in records[:20]:
            assert record.raw_size == openimages_small.raw_meta(record.sample_id).nbytes

    def test_real_execution_matches_simulation(self, materialized_tiny, pipeline):
        simulated = StageTwoProfiler(use_real_execution=False).profile(
            materialized_tiny, pipeline, seed=3
        )
        executed = StageTwoProfiler(use_real_execution=True).profile(
            materialized_tiny, pipeline, seed=3
        )
        for sim, real in zip(simulated, executed):
            assert sim.stage_sizes == real.stage_sizes
            assert sim.op_costs == pytest.approx(real.op_costs)

    def test_real_execution_requires_materialized(self, openimages_small, pipeline):
        with pytest.raises(ValueError):
            StageTwoProfiler(use_real_execution=True).profile(
                openimages_small, pipeline
            )

    def test_epoch_changes_costs_not_threshold_sizes(self, openimages_small, pipeline):
        e0 = StageTwoProfiler().profile(openimages_small, pipeline, epoch=0)
        e1 = StageTwoProfiler().profile(openimages_small, pipeline, epoch=1)
        # Stage sizes are epoch-invariant (crop target fixed)...
        assert all(a.stage_sizes == b.stage_sizes for a, b in zip(e0, e1))
        # ...but crop geometry redraws, so some costs change.
        assert any(a.op_costs != b.op_costs for a, b in zip(e0, e1))
