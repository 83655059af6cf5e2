"""Byte-identity of the vectorized simulator against ``Pipeline.simulate``.

SampleRecord equality compares every stage size and cost float exactly, so
``seq == vec`` failing on any sample means a single bit diverged somewhere
in the RNG emulation, the size arithmetic, or the cost fold order.
"""

import numpy as np
import pytest

from repro.data.catalog import make_imagenet, make_openimages
from repro.parallel.vectorized import (
    build_records_vectorized,
    simulate_batch,
    supports_batch,
)
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import RecordTable, build_record


def sequential_records(pipeline, dataset, seed, epoch=0, cost_model=None):
    return [
        build_record(
            pipeline,
            dataset.raw_meta(sample_id),
            sample_id,
            seed=seed,
            epoch=epoch,
            cost_model=cost_model,
        )
        for sample_id in range(len(dataset))
    ]


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("epoch", [0, 3])
def test_openimages_records_bit_identical(seed, epoch):
    dataset = make_openimages(num_samples=400, seed=7)
    pipeline = standard_pipeline()
    seq = sequential_records(pipeline, dataset, seed, epoch)
    vec = build_records_vectorized(
        pipeline,
        [dataset.raw_meta(i) for i in range(len(dataset))],
        list(range(len(dataset))),
        seed=seed,
        epoch=epoch,
    )
    assert seq == vec


def test_imagenet_records_bit_identical(imagenet_small):
    pipeline = standard_pipeline()
    seq = sequential_records(pipeline, imagenet_small, seed=3)
    vec = build_records_vectorized(
        pipeline,
        [imagenet_small.raw_meta(i) for i in range(len(imagenet_small))],
        list(range(len(imagenet_small))),
        seed=3,
    )
    assert seq == vec


def test_identical_under_custom_cost_model(openimages_small):
    pipeline = standard_pipeline()
    model = CostModel(cpu_speed_factor=2.5)
    seq = sequential_records(pipeline, openimages_small, seed=1, cost_model=model)
    vec = build_records_vectorized(
        pipeline,
        [openimages_small.raw_meta(i) for i in range(len(openimages_small))],
        list(range(len(openimages_small))),
        seed=1,
        cost_model=model,
    )
    assert seq == vec


def test_cached_cost_arrays_match_public_api(openimages_small):
    """prefix/suffix/total must equal a fresh fold over op_costs exactly."""
    pipeline = standard_pipeline()
    record = build_record(
        pipeline, openimages_small.raw_meta(0), 0, seed=0, epoch=0
    )
    n_ops = len(record.op_costs)
    for split in range(n_ops + 1):
        assert record.prefix_cost(split) == sum(record.op_costs[:split])
        assert record.suffix_cost(split) == sum(record.op_costs[split:])
    assert record.total_cost == sum(record.op_costs)


def test_simulate_batch_totals_match_sequential_fold(openimages_small):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(64)]
    sizes, costs = simulate_batch(pipeline, metas, list(range(64)), seed=5)
    totals = RecordTable(list(range(64)), sizes, costs).total_cost.tolist()
    for i, total in enumerate(totals):
        record = build_record(
            pipeline, openimages_small.raw_meta(i), i, seed=5, epoch=0
        )
        assert total == record.total_cost


def test_supports_batch_rejects_wide_components():
    pipeline = standard_pipeline()
    assert supports_batch(pipeline, 0, 0)
    assert not supports_batch(pipeline, 2**32, 0)


def test_nonuniform_dims_batch(openimages_small):
    """Lanes with different raw dims must not leak across each other."""
    pipeline = standard_pipeline()
    ids = [0, 17, 101, 33, 2]  # deliberately unsorted
    metas = [openimages_small.raw_meta(i) for i in ids]
    vec = build_records_vectorized(pipeline, metas, ids, seed=9)
    for record, sample_id in zip(vec, ids):
        assert record == build_record(
            pipeline, openimages_small.raw_meta(sample_id), sample_id, seed=9, epoch=0
        )


def test_mixed_kind_batch_rejected():
    from repro.parallel.vectorized import BatchMeta
    from repro.preprocessing.payload import StageMeta

    image = StageMeta.for_image(10, 10)
    tensor = StageMeta.for_tensor(10, 10, 3)
    with pytest.raises(ValueError, match="mixes payload kinds"):
        BatchMeta.from_metas([image, tensor])
