"""Analytic epoch-model tests (the paper's four T metrics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.epoch_model import Bottleneck, EpochMetrics, EpochModel
from repro.cluster.spec import standard_cluster


def metrics(gpu=10.0, cc=480.0, cs=0.0, traffic=6.25e8):
    return EpochMetrics(
        gpu_time_s=gpu, compute_cpu_s=cc, storage_cpu_s=cs, traffic_bytes=traffic
    )


class TestEstimate:
    def test_t_metrics_divide_by_capacity(self):
        model = EpochModel(standard_cluster())  # 48/48 cores, 62.5 MB/s
        est = model.estimate(metrics())
        assert est.t_g == 10.0
        assert est.t_cc == pytest.approx(10.0)  # 480 / 48
        assert est.t_cs == 0.0
        assert est.t_net == pytest.approx(10.0)  # 6.25e8 / 62.5e6

    def test_epoch_time_is_max(self):
        model = EpochModel(standard_cluster())
        est = model.estimate(metrics(gpu=50.0))
        assert est.epoch_time_s == 50.0
        assert est.bottleneck is Bottleneck.GPU

    def test_network_bound_flag(self):
        model = EpochModel(standard_cluster())
        assert model.estimate(metrics(traffic=1e10)).network_bound
        assert not model.estimate(metrics(gpu=1000.0)).network_bound

    def test_storage_cpu_divided_by_storage_cores(self):
        model = EpochModel(standard_cluster(storage_cores=2))
        est = model.estimate(metrics(cs=10.0))
        assert est.t_cs == pytest.approx(5.0)

    def test_cpu_factors_applied(self):
        import dataclasses

        spec = dataclasses.replace(
            standard_cluster(storage_cores=4), storage_cpu_factor=2.0
        )
        est = EpochModel(spec).estimate(metrics(cs=8.0))
        assert est.t_cs == pytest.approx(8.0 * 2.0 / 4)

    def test_storage_work_with_zero_cores_rejected(self):
        model = EpochModel(standard_cluster(storage_cores=0))
        with pytest.raises(ValueError):
            model.estimate(metrics(cs=1.0))

    def test_zero_storage_work_with_zero_cores_ok(self):
        model = EpochModel(standard_cluster(storage_cores=0))
        assert model.estimate(metrics(cs=0.0)).t_cs == 0.0

    def test_gpu_utilization(self):
        model = EpochModel(standard_cluster())
        est = model.estimate(metrics(gpu=5.0, traffic=6.25e8))
        assert est.gpu_utilization == pytest.approx(0.5)

    def test_negative_metrics_rejected(self):
        with pytest.raises(ValueError):
            EpochMetrics(-1.0, 0.0, 0.0, 0.0)

    @given(
        gpu=st.floats(0.0, 100.0),
        cc=st.floats(0.0, 1000.0),
        cs=st.floats(0.0, 1000.0),
        traffic=st.floats(0.0, 1e10),
    )
    @settings(max_examples=50, deadline=None)
    def test_epoch_time_dominates_each_metric(self, gpu, cc, cs, traffic):
        model = EpochModel(standard_cluster())
        est = model.estimate(metrics(gpu, cc, cs, traffic))
        assert est.epoch_time_s >= est.t_g
        assert est.epoch_time_s >= est.t_cc
        assert est.epoch_time_s >= est.t_cs
        assert est.epoch_time_s >= est.t_net
