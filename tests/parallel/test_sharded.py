"""The record-builder byte-identity gate.

Sequential and vectorized record lists -- and the OffloadPlans built
from them -- must be *equal* across two seeds.  Equality on SampleRecord
compares every float exactly, so this is bit-identity.
"""

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.parallel import build_records
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


@pytest.mark.parametrize("seed", [0, 42])
def test_byte_identity_gate(openimages_small, seed):
    """Identical records and plans from every record-building path."""
    pipeline = standard_pipeline()
    spec = standard_cluster(storage_cores=48)
    model = get_model_profile("alexnet")
    engine = DecisionEngine(DecisionConfig())
    gpu_time_s = model.epoch_gpu_time_s(len(openimages_small))

    records_by_mode = {}
    plans_by_mode = {}
    for mode in ("sequential", "vectorized"):
        records_by_mode[mode] = build_records(
            pipeline, openimages_small, seed=seed, parallel=mode
        )
        plans_by_mode[mode] = engine.plan(records_by_mode[mode], spec, gpu_time_s)

    assert records_by_mode["vectorized"] == records_by_mode["sequential"]
    assert plans_by_mode["vectorized"] == plans_by_mode["sequential"]
