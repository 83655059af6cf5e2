"""Deterministic vectorized execution for profiling/planning.

The profiling hot path (``build_record`` over every sample) and the
planning hot path (``DecisionEngine.plan`` re-summing costs) dominate
every figure and benchmark run.  This package accelerates both without
changing a single output bit:

- :mod:`repro.parallel.pcg` -- vectorized bit-exact emulation of the
  ``op_rng`` generator derivation and draw paths.
- :mod:`repro.parallel.vectorized` -- batch twin of
  ``Pipeline.simulate`` producing a :class:`RecordTable` whose rows equal
  the sequential :class:`SampleRecord`\\ s.
- :mod:`repro.parallel.cache` -- keyed record caching across planning
  passes (pipeline fingerprint x dataset fingerprint x seed x epoch).
- :mod:`repro.parallel.bench` -- the ``make bench`` perf-regression
  harness writing ``BENCH_profiling.json``.

Entry point: :func:`build_records`, the one record builder.  It picks
the batch path or the per-sample loop from its input; both yield the
same records bit for bit.
"""

from typing import Optional, Sequence

from repro.data.dataset import Dataset
from repro.parallel.cache import (
    RecordCache,
    dataset_fingerprint,
    pipeline_fingerprint,
    record_key,
)
from repro.parallel.vectorized import (
    build_records_vectorized,
    simulate_batch,
    supports_batch,
)
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import SampleRecord, build_record

_MODES = ("vectorized", "sequential")


def build_records(
    pipeline: Pipeline,
    dataset: Dataset,
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
    sample_ids: Optional[Sequence[int]] = None,
    parallel: str = "vectorized",
) -> Sequence[SampleRecord]:
    """Profile ``dataset`` (or its ``sample_ids``) through ``pipeline``.

    ``"vectorized"`` (the default) returns a
    :class:`~repro.preprocessing.records.RecordTable` from the batch
    simulator when every op has a batch handler, the RNG key fits the
    batch emulation, and all raw metas share one payload kind; otherwise
    it runs the per-sample loop, which is faster for pipelines the batch
    path would only walk lane by lane.  ``"sequential"`` always runs the
    per-sample ``build_record`` loop, returning a list -- the reference
    the identity gates compare against.  Both yield bit-identical
    records, and the planners take either type.
    """
    if parallel not in _MODES:
        raise ValueError(f"parallel must be one of {_MODES}, got {parallel!r}")
    ids = list(dataset.sample_ids()) if sample_ids is None else list(sample_ids)
    metas = [dataset.raw_meta(sample_id) for sample_id in ids]
    if (
        parallel == "vectorized"
        and ids
        and supports_batch(pipeline, seed, epoch, min(ids), max(ids))
        and len({meta.kind for meta in metas}) == 1
    ):
        return build_records_vectorized(
            pipeline, metas, ids, seed=seed, epoch=epoch, cost_model=cost_model
        )
    return [
        build_record(
            pipeline, meta, sample_id, seed=seed, epoch=epoch, cost_model=cost_model
        )
        for meta, sample_id in zip(metas, ids)
    ]


__all__ = [
    "RecordCache",
    "build_records",
    "build_records_vectorized",
    "dataset_fingerprint",
    "pipeline_fingerprint",
    "record_key",
    "simulate_batch",
    "supports_batch",
]
