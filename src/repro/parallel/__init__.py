"""Deterministic parallel + vectorized execution for profiling/planning.

The profiling hot path (``build_record`` over every sample) and the
planning hot path (``DecisionEngine.plan`` re-summing costs) dominate
every figure and benchmark run.  This package accelerates both without
changing a single output bit:

- :mod:`repro.parallel.pcg` -- vectorized bit-exact emulation of the
  ``op_rng`` generator derivation and draw paths.
- :mod:`repro.parallel.vectorized` -- batch twin of
  ``Pipeline.simulate`` producing a :class:`RecordTable` whose rows equal
  the sequential :class:`SampleRecord`\\ s.
- :mod:`repro.parallel.sharded` -- worker-pool sharding over
  contiguous shards, merged in input order.
- :mod:`repro.parallel.cache` -- keyed record caching across planning
  passes (pipeline fingerprint x dataset fingerprint x seed x epoch).
- :mod:`repro.parallel.bench` -- the ``make bench`` perf-regression
  harness writing ``BENCH_profiling.json``.

Entry point: :func:`build_records` dispatches on a
:class:`ParallelConfig` (or its string shorthand, e.g. ``"vectorized"``
or ``"sharded:process:4"``).  ``PolicyContext.records(parallel=...)``,
``Sophon(parallel=...)``, and the harness/CLI ``--parallel`` flags all
funnel through it.
"""

import dataclasses
from typing import Optional, Sequence, Union

from repro.data.dataset import Dataset
from repro.parallel.cache import (
    RecordCache,
    dataset_fingerprint,
    pipeline_fingerprint,
    record_key,
)
from repro.parallel.sharded import build_records_sharded, shard_bounds
from repro.parallel.vectorized import (
    build_records_vectorized,
    simulate_batch,
    supports_batch,
)
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import SampleRecord, build_record

_MODES = ("sequential", "vectorized", "sharded")


@dataclasses.dataclass(frozen=True)
class ParallelConfig:
    """How to execute a record-building pass.

    mode: "sequential" (reference loop), "vectorized" (numpy batch), or
        "sharded" (worker pool over sample shards).
    workers: pool size for sharded mode.
    backend: "thread" or "process" pool for sharded mode.
    vectorize_shards: whether sharded workers use the vectorized builder
        for their shard (the default) or the sequential reference.

    Every mode produces bit-identical records; the knobs trade setup
    overhead against throughput on the host at hand.
    """

    mode: str = "vectorized"
    workers: int = 2
    backend: str = "thread"
    vectorize_shards: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"backend must be 'thread' or 'process', got {self.backend!r}")

    @classmethod
    def parse(cls, value: "ParallelSpec") -> Optional["ParallelConfig"]:
        """Normalize a user-facing parallel spec.

        Accepts None (-> None, i.e. sequential), a ready config, or a
        string shorthand: ``"sequential"``, ``"vectorized"``,
        ``"sharded"``, ``"sharded:4"``, ``"sharded:process"``,
        ``"sharded:process:4"``.
        """
        if value is None or isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TypeError(f"cannot parse parallel spec from {type(value).__name__}")
        parts = value.strip().lower().split(":")
        mode = parts[0]
        if mode in ("sequential", "vectorized"):
            if len(parts) > 1:
                raise ValueError(f"mode {mode!r} takes no options, got {value!r}")
            return cls(mode=mode)
        if mode != "sharded":
            raise ValueError(f"unknown parallel mode {mode!r} (from {value!r})")
        backend = "thread"
        workers = 2
        for part in parts[1:]:
            if part in ("thread", "process"):
                backend = part
            elif part.isdigit() and int(part) >= 1:
                workers = int(part)
            else:
                raise ValueError(f"bad sharded option {part!r} in {value!r}")
        return cls(mode="sharded", workers=workers, backend=backend)


#: Anything the public APIs accept as a parallel spec.
ParallelSpec = Union[None, str, ParallelConfig]


def build_records(
    pipeline: Pipeline,
    dataset: Dataset,
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
    parallel: ParallelSpec = None,
    sample_ids: Optional[Sequence[int]] = None,
) -> Sequence[SampleRecord]:
    """Profile ``dataset`` through ``pipeline`` under a parallel spec.

    With ``parallel=None`` (or "sequential") this is exactly the classic
    per-sample ``build_record`` loop, returning a list; "vectorized" and
    "sharded" (with vectorized shards, the default) return a
    :class:`~repro.preprocessing.records.RecordTable`.  Every mode's
    records are bit-identical, and the planners take either type.
    """
    config = ParallelConfig.parse(parallel)
    ids = list(dataset.sample_ids()) if sample_ids is None else list(sample_ids)
    if config is None or config.mode == "sequential":
        return [
            build_record(
                pipeline,
                dataset.raw_meta(sample_id),
                sample_id,
                seed=seed,
                epoch=epoch,
                cost_model=cost_model,
            )
            for sample_id in ids
        ]
    metas = [dataset.raw_meta(sample_id) for sample_id in ids]
    if config.mode == "vectorized":
        return build_records_vectorized(
            pipeline, metas, ids, seed=seed, epoch=epoch, cost_model=cost_model
        )
    return build_records_sharded(
        pipeline,
        metas,
        ids,
        seed=seed,
        epoch=epoch,
        cost_model=cost_model,
        workers=config.workers,
        backend=config.backend,
        vectorize=config.vectorize_shards,
    )


__all__ = [
    "ParallelConfig",
    "ParallelSpec",
    "RecordCache",
    "build_records",
    "build_records_sharded",
    "build_records_vectorized",
    "dataset_fingerprint",
    "pipeline_fingerprint",
    "record_key",
    "shard_bounds",
    "simulate_batch",
    "supports_batch",
]
