"""Sharded record building: order-independent merge, every backend.

The ISSUE-4 byte-identity gate lives here: sequential, vectorized, and
sharded record lists -- and the OffloadPlans built from them -- must be
*equal* across at least two worker counts and two seeds.  Equality on
SampleRecord compares every float exactly, so this is bit-identity.
"""

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.parallel import build_records
from repro.parallel.sharded import build_records_sharded, shard_bounds
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


def test_shard_bounds_cover_everything():
    for total, shards in [(10, 3), (7, 7), (5, 8), (100, 4), (1, 1)]:
        bounds = shard_bounds(total, shards)
        covered = []
        for lo, hi in bounds:
            assert lo <= hi
            covered.extend(range(lo, hi))
        assert covered == list(range(total))


def test_shard_bounds_validation():
    with pytest.raises(ValueError):
        shard_bounds(10, 0)
    with pytest.raises(ValueError):
        shard_bounds(-1, 2)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sharded_matches_sequential(openimages_small, workers, backend):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(200)]
    ids = list(range(200))
    seq = build_records(pipeline, openimages_small, seed=11, sample_ids=ids)
    sharded = build_records_sharded(
        pipeline, metas, ids, seed=11, workers=workers, backend=backend
    )
    assert sharded == seq


def test_sharded_without_vectorization_matches(openimages_small):
    """The per-shard sequential fallback must agree too."""
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(120)]
    ids = list(range(120))
    seq = build_records(pipeline, openimages_small, seed=2, sample_ids=ids)
    sharded = build_records_sharded(
        pipeline, metas, ids, seed=2, workers=2, vectorize=False
    )
    assert sharded == seq


@pytest.mark.parametrize("seed", [0, 42])
def test_byte_identity_gate(openimages_small, seed):
    """ISSUE-4 acceptance: identical records and plans across worker counts."""
    pipeline = standard_pipeline()
    spec = standard_cluster(storage_cores=48)
    model = get_model_profile("alexnet")
    engine = DecisionEngine(DecisionConfig())

    records_by_mode = {}
    plans_by_mode = {}
    for mode in ("sequential", "vectorized", "sharded:2", "sharded:3"):
        context = PolicyContext(
            dataset=openimages_small,
            pipeline=pipeline,
            spec=spec,
            model=model,
            seed=seed,
            parallel=mode,
        )
        records_by_mode[mode] = context.records()
        plans_by_mode[mode] = engine.plan(
            records_by_mode[mode], spec, context.epoch_gpu_time_s
        )

    baseline_records = records_by_mode["sequential"]
    baseline_plan = plans_by_mode["sequential"]
    for mode in ("vectorized", "sharded:2", "sharded:3"):
        assert records_by_mode[mode] == baseline_records, mode
        assert plans_by_mode[mode] == baseline_plan, mode


def test_mismatched_lengths_rejected(openimages_small):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(5)]
    with pytest.raises(ValueError):
        build_records_sharded(pipeline, metas, [0, 1, 2], seed=0)


def test_worker_validation(openimages_small):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(0)]
    with pytest.raises(ValueError):
        build_records_sharded(pipeline, metas, [0], seed=0, workers=0)
    with pytest.raises(ValueError):
        build_records_sharded(pipeline, metas, [0], seed=0, backend="carrier-pigeon")


@pytest.mark.parametrize("vectorize", [True, False])
def test_duplicate_sample_ids_rejected(openimages_small, vectorize):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in (0, 1, 1, 2)]
    with pytest.raises(RuntimeError, match="duplicate"):
        build_records_sharded(pipeline, metas, [0, 1, 1, 2], seed=0, vectorize=vectorize)
