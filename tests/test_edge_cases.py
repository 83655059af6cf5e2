"""Cross-module edge-case tests gathered from interface contracts."""

import numpy as np
import pytest

from repro.cluster.spec import standard_cluster
from repro.compression import JointPlanner, SelectiveCompressor
from repro.core.decision import DecisionEngine
from repro.core.fidelity import FidelityPlanner
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import SampleRecord


class TestDecisionInputValidation:
    def test_unordered_records_rejected(self):
        records = [
            SampleRecord(1, (100, 400, 50, 50, 200, 200), (0.1,) * 5),
            SampleRecord(0, (100, 400, 50, 50, 200, 200), (0.1,) * 5),
        ]
        with pytest.raises(ValueError, match="ordered by sample id"):
            DecisionEngine().plan(records, standard_cluster(), gpu_time_s=0.1)

    def test_gapped_ids_rejected(self):
        records = [SampleRecord(3, (100, 400, 50, 50, 200, 200), (0.1,) * 5)]
        with pytest.raises(ValueError):
            DecisionEngine().plan(records, standard_cluster(), gpu_time_s=0.1)

    def test_empty_records_ok(self):
        plan = DecisionEngine().plan([], standard_cluster(), gpu_time_s=0.1)
        assert len(plan) == 0

    @pytest.mark.parametrize("ids", [[1, 2, 3], [0, 0, 1]], ids=["one-based", "duplicate"])
    @pytest.mark.parametrize("planner", ["selective", "joint", "fidelity"])
    def test_every_planner_rejects_misnumbered_records(self, planner, ids):
        # Offload-worthy records (decode shrinks them), so a planner that
        # skipped the check would index past the plan or overwrite a split.
        records = [
            SampleRecord(i, (100_000, 400_000, 50, 50, 200, 200), (0.001,) * 5)
            for i in ids
        ]
        spec = standard_cluster()
        pipeline = standard_pipeline()
        with pytest.raises(ValueError, match="ordered by sample id"):
            if planner == "selective":
                SelectiveCompressor().plan(
                    records, OffloadPlan(splits=[2, 2, 2]), pipeline, spec, 0.1
                )
            elif planner == "joint":
                JointPlanner().plan(records, pipeline, spec, gpu_time_s=0.1)
            else:
                FidelityPlanner().plan(records, spec, gpu_time_s=0.1)


class TestBaselinesOnOtherPipelines:
    def test_resize_off_rejects_audio_pipeline(self, openimages_small):
        from repro.baselines import ResizeOff
        from repro.core.policy import PolicyContext
        from repro.data.audio import make_audio_trace
        from repro.preprocessing.audio_ops import audio_pipeline
        from repro.workloads.models import get_model_profile

        context = PolicyContext(
            dataset=make_audio_trace(10, seed=0),
            pipeline=audio_pipeline(),
            spec=standard_cluster(),
            model=get_model_profile("alexnet"),
            seed=0,
        )
        with pytest.raises(ValueError, match="RandomResizedCrop"):
            ResizeOff().plan(context)

    def test_all_off_works_on_audio_pipeline(self):
        from repro.baselines import AllOff
        from repro.core.policy import PolicyContext
        from repro.data.audio import make_audio_trace
        from repro.preprocessing.audio_ops import audio_pipeline
        from repro.workloads.models import get_model_profile

        context = PolicyContext(
            dataset=make_audio_trace(10, seed=0),
            pipeline=audio_pipeline(),
            spec=standard_cluster(),
            model=get_model_profile("alexnet"),
            seed=0,
        )
        plan = AllOff().plan(context)
        assert set(plan.splits) == {3}


class TestLoaderDropLast:
    def test_drop_last_discards_partial_batch(self, materialized_tiny, pipeline):
        from repro.data.loader import DataLoader, DirectFetcher

        loader = DataLoader(
            materialized_tiny, pipeline, DirectFetcher(materialized_tiny),
            batch_size=4, drop_last=True, seed=0,
        )
        batches = list(loader.epoch(0))
        assert len(batches) == len(materialized_tiny) // 4
        assert all(len(batch) == 4 for batch in batches)


class TestStatsRendering:
    def test_epoch_stats_str(self, openimages_small, pipeline, alexnet):
        from repro.cluster.trainer import TrainerSim

        trainer = TrainerSim(
            openimages_small, pipeline, alexnet,
            spec=standard_cluster(storage_cores=8), batch_size=64,
        )
        text = str(trainer.run_epoch(None, epoch=0))
        assert "EpochStats" in text and "traffic" in text

    def test_efficiency_summary_str(self):
        from repro.core.efficiency import EfficiencySummary

        text = str(EfficiencySummary(10, 0.2, 1e6, 5e5, 2e6))
        assert "zero=20%" in text

    def test_stall_breakdown_str(self):
        from repro.metrics.timeline import StallBreakdown

        text = str(StallBreakdown(10.0, 3.0, 7.0))
        assert "stall=70%" in text


class TestSharedLinkStatsHelpers:
    def test_mean_epoch_time_empty(self):
        from repro.cluster.multijob import SharedLinkStats

        stats = SharedLinkStats(
            results={}, makespan_s=0.0, total_traffic_bytes=0,
            link_utilization=0.0, storage_cpu_utilization=0.0,
        )
        assert stats.mean_epoch_time_s == 0.0


class TestFig1Determinism:
    def test_representative_samples_stable(self, openimages_small):
        from repro.harness.fig1 import representative_samples

        assert representative_samples(openimages_small) == representative_samples(
            openimages_small
        )
