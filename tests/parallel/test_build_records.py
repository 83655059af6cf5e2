"""The one record builder: its default path equals the sequential loop.

``build_records`` takes the batch path when the whole input supports it
and the per-sample loop otherwise; either way its records must equal the
``"sequential"`` reference bit for bit (SampleRecord equality compares
every float exactly).
"""

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.policy import PolicyContext
from repro.data.audio import make_audio_trace
from repro.data.catalog import make_imagenet, make_openimages
from repro.data.dataset import Dataset
from repro.parallel import build_records
from repro.preprocessing.audio_ops import audio_pipeline
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import RecordTable
from repro.workloads.models import get_model_profile


class MixedKindDataset(Dataset):
    """Encoded samples interleaved with already-decoded images."""

    name = "mixed-kind"

    def __len__(self) -> int:
        return 40

    def raw_meta(self, sample_id: int) -> StageMeta:
        self._check_id(sample_id)
        height, width = 200 + 7 * sample_id, 300 + 5 * sample_id
        if sample_id % 2:
            return StageMeta.for_image(height, width)
        return StageMeta.for_encoded(60_000 + 97 * sample_id, height, width)


def assert_default_matches_sequential(pipeline, dataset, batched, **kwargs):
    default = build_records(pipeline, dataset, seed=3, **kwargs)
    sequential = build_records(pipeline, dataset, seed=3, parallel="sequential", **kwargs)
    assert isinstance(sequential, list)
    assert isinstance(default, RecordTable) is batched
    assert default == sequential


@pytest.mark.parametrize("make", [make_openimages, make_imagenet])
def test_standard_pipeline_takes_the_batch_path(make):
    dataset = make(num_samples=300, seed=5)
    assert_default_matches_sequential(standard_pipeline(), dataset, batched=True)


def test_custom_cost_model_and_epoch():
    dataset = make_openimages(num_samples=200, seed=2)
    assert_default_matches_sequential(
        standard_pipeline(), dataset, batched=True,
        cost_model=CostModel(cpu_speed_factor=2.5), epoch=4,
    )


def test_sample_id_subset_keeps_the_given_order():
    dataset = make_openimages(num_samples=100, seed=2)
    ids = [40, 3, 99, 17, 0]
    records = build_records(standard_pipeline(), dataset, seed=3, sample_ids=ids)
    assert [record.sample_id for record in records] == ids
    assert_default_matches_sequential(
        standard_pipeline(), dataset, batched=True, sample_ids=ids
    )


def test_pipeline_without_batch_handlers_falls_back_to_the_loop():
    assert_default_matches_sequential(
        audio_pipeline(), make_audio_trace(60, seed=1), batched=False
    )


def test_mixed_payload_kinds_fall_back_to_the_loop():
    assert_default_matches_sequential(
        standard_pipeline(), MixedKindDataset(), batched=False
    )


def test_oversized_rng_key_falls_back_to_the_loop():
    dataset = make_openimages(num_samples=20, seed=2)
    assert_default_matches_sequential(
        standard_pipeline(), dataset, batched=False, epoch=2**32
    )


def test_empty_selection_builds_no_records():
    dataset = make_openimages(num_samples=10, seed=2)
    assert list(build_records(standard_pipeline(), dataset, seed=0, sample_ids=[])) == []


def test_policy_context_builds_a_mixed_kind_dataset():
    context = PolicyContext(
        dataset=MixedKindDataset(),
        pipeline=standard_pipeline(),
        spec=standard_cluster(),
        model=get_model_profile("alexnet"),
        seed=3,
    )
    assert context.records() == build_records(
        standard_pipeline(), MixedKindDataset(), seed=3, parallel="sequential"
    )


@pytest.mark.parametrize("mode", ["sharded", "sharded:2", "thread", "", None])
def test_only_two_modes_are_accepted(mode):
    dataset = make_openimages(num_samples=4, seed=0)
    with pytest.raises(ValueError, match="parallel must be one of"):
        build_records(standard_pipeline(), dataset, seed=0, parallel=mode)
