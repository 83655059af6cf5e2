"""The shared admission loop and the decision engine's outcome counters."""

import collections

import pytest

import repro.cluster.epoch_model as epoch_model
from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import standard_cluster
from repro.core.admission import admit
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.profiler import StageTwoProfiler
from repro.preprocessing.records import RecordTable
from repro.telemetry.audit import AuditLog
from repro.telemetry.registry import use_registry
from repro.workloads.models import get_model_profile

#: (storage cores, bandwidth Mbps): the 1-core cells skip samples under
#: never_worsen; the others cover stops, exhaustion and all-offloaded.
GRID = [(1, 200.0), (1, 1000.0), (2, 200.0), (8, 1000.0)]


@pytest.fixture(scope="module")
def records(openimages_small, pipeline):
    return StageTwoProfiler().profile(openimages_small, pipeline)


@pytest.fixture(scope="module")
def gpu_time_s(records):
    return get_model_profile("alexnet").epoch_gpu_time_s(len(records))


def baseline(compute=10.0, storage=0.0, traffic=1e9):
    return EpochMetrics(
        gpu_time_s=1.0, compute_cpu_s=compute, storage_cpu_s=storage, traffic_bytes=traffic
    )


class TestAdmit:
    @pytest.mark.parametrize(
        "action, field",
        [
            ((0, -11.0, 0.0, 0.0), "compute_cpu_s"),
            ((0, 0.0, -2.0, 0.0), "storage_cpu_s"),
            ((0, 0.0, 0.0, -2e9), "traffic_bytes"),
        ],
    )
    def test_negative_running_total_raises_the_metrics_error(self, action, field):
        model = EpochModel(standard_cluster(storage_cores=8))
        fine = (0, -1.0, 1.0, -1e3)
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            admit(model, baseline(), [fine, action], never_worsen=False)

    def test_matches_estimate_on_the_result(self):
        model = EpochModel(standard_cluster(storage_cores=8))
        actions = [(i, -0.5, 0.5, -1e7) for i in range(5)]
        metrics, estimate, admitted, stop = admit(model, baseline(), actions, never_worsen=True)
        assert admitted == [0, 1, 2, 3, 4] and stop is None
        assert estimate == model.estimate(metrics)
        assert metrics == baseline(compute=7.5, storage=2.5, traffic=1e9 - 5e7)

    def test_visit_sees_the_state_before_each_action(self):
        model = EpochModel(standard_cluster(storage_cores=8))
        seen = []
        actions = [(0, -1.0, 1.0, -1e8), (1, -1.0, 1.0, -1e8)]
        admit(model, baseline(), actions, True, lambda *args: seen.append(args))
        assert seen == [
            (0, (1.0, 10.0, 0.0, 1e9), model.times(1.0, 10.0, 0.0, 1e9), None),
            (1, (1.0, 9.0, 1.0, 9e8), model.times(1.0, 9.0, 1.0, 9e8), None),
        ]

    def test_never_worsen_hands_visit_the_rejected_times(self):
        model = EpochModel(standard_cluster(storage_cores=8))
        seen = []
        _, _, admitted, stop = admit(
            model, baseline(), [(0, 0.0, 1e6, -1.0)], True, lambda *args: seen.append(args)
        )
        assert admitted == [] and stop is None
        assert seen[0][3] == model.times(1.0, 10.0, 1e6, 1e9 - 1.0)


def counting_init(cls, built):
    original = cls.__init__

    def init(self, *args, **kwargs):
        built[cls.__name__] += 1
        original(self, *args, **kwargs)

    return init


class TestNoPerCandidateObjects:
    def constructions(self, monkeypatch, run):
        built = collections.Counter()
        with monkeypatch.context() as patch:
            for cls in (epoch_model.EpochMetrics, epoch_model.EpochEstimate):
                patch.setattr(cls, "__init__", counting_init(cls, built))
            run()
        return built

    def test_plan_builds_a_constant_number_of_model_objects(
        self, monkeypatch, records, gpu_time_s
    ):
        spec = standard_cluster(storage_cores=1).with_bandwidth(1000.0)
        engine = DecisionEngine()
        small = self.constructions(
            monkeypatch, lambda: engine.plan(records[:60], spec, gpu_time_s)
        )
        large = self.constructions(
            monkeypatch, lambda: engine.plan(records, spec, gpu_time_s)
        )
        assert small == large
        assert sum(large.values()) <= 4


class TestOutcomeCounters:
    def deltas(self, engine, records, spec, gpu_time_s, audit):
        with use_registry() as registry:
            engine.plan(records, spec, gpu_time_s, audit=audit)
            counter = registry.counter("decision_outcomes_total", "", labels=["outcome"])
            return {dict(labels)["outcome"]: value for labels, value in counter.series()}

    @pytest.mark.parametrize("cores, bandwidth", GRID)
    @pytest.mark.parametrize("never_worsen", [True, False])
    @pytest.mark.parametrize("as_table", [False, True])
    def test_counter_deltas_equal_audit_tallies(
        self, records, gpu_time_s, cores, bandwidth, never_worsen, as_table
    ):
        spec = standard_cluster(storage_cores=cores).with_bandwidth(bandwidth)
        engine = DecisionEngine(DecisionConfig(never_worsen=never_worsen))
        feed = RecordTable.of(records) if as_table else records
        audit = AuditLog()
        audited = self.deltas(engine, feed, spec, gpu_time_s, audit)
        tallies = collections.Counter(entry["outcome"] for entry in audit.to_dicts())
        assert audited == dict(tallies)  # no 0-valued series either
        assert self.deltas(engine, feed, spec, gpu_time_s, None) == audited

    def test_grid_covers_skipped_samples(self, records, gpu_time_s):
        spec = standard_cluster(storage_cores=1).with_bandwidth(1000.0)
        counts = self.deltas(DecisionEngine(), records, spec, gpu_time_s, None)
        assert counts["skipped-would-worsen"] > 0

    def test_no_storage_cores_counts_every_sample_stopped(self, records, gpu_time_s):
        counts = self.deltas(
            DecisionEngine(), records, standard_cluster(storage_cores=0), gpu_time_s, None
        )
        assert counts == {"planning-stopped": float(len(records))}
