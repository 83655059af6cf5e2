"""Sharded record building over a thread or process pool.

Samples are split into contiguous shards, each shard is profiled by one
worker (vectorized by default, sequential reference on request), and the
per-shard results are merged in input order -- so the merged output is
independent of worker scheduling order and identical to a single
sequential pass.  Determinism is therefore structural: every
(seed, epoch, sample, op) draw is keyed, never shared, so no worker
count or interleaving can change a single record.

Process workers receive ``(pipeline, metas, ids, ...)`` tuples, not the
dataset object, keeping the picklable surface small and dataset-agnostic.
"""

import concurrent.futures
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.vectorized import build_records_vectorized
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, SampleRecord, build_record

_BACKENDS = ("thread", "process")


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` bounds splitting ``total`` items.

    Sizes differ by at most one; empty shards are dropped.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, max(total, 1))
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def _build_shard(
    pipeline: Pipeline,
    metas: Sequence[StageMeta],
    sample_ids: Sequence[int],
    seed: int,
    epoch: int,
    cost_model: Optional[CostModel],
    vectorize: bool,
) -> Sequence[SampleRecord]:
    """One worker's share.  Module-level so process pools can pickle it."""
    if vectorize:
        return build_records_vectorized(
            pipeline, metas, sample_ids, seed=seed, epoch=epoch, cost_model=cost_model
        )
    return [
        build_record(pipeline, meta, sample_id, seed=seed, epoch=epoch, cost_model=cost_model)
        for meta, sample_id in zip(metas, sample_ids)
    ]


def build_records_sharded(
    pipeline: Pipeline,
    raw_metas: Sequence[StageMeta],
    sample_ids: Sequence[int],
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
    workers: int = 2,
    backend: str = "thread",
    vectorize: bool = True,
) -> Sequence[SampleRecord]:
    """Build records for ``sample_ids`` across a worker pool.

    Shards are contiguous and merged in input order, so shard completion
    order cannot influence the output.  Vectorized shards merge into one
    :class:`RecordTable`; sequential shards into a list.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ids = list(sample_ids)
    if len(raw_metas) != len(ids):
        raise ValueError(f"{len(raw_metas)} metas for {len(ids)} sample ids")
    bounds = shard_bounds(len(ids), workers)
    if len(bounds) <= 1:
        return _build_shard(pipeline, raw_metas, ids, seed, epoch, cost_model, vectorize)

    if len(set(ids)) != len(ids):
        raise RuntimeError(
            f"sharded merge got {len(ids)} sample ids, {len(set(ids))} distinct "
            "(duplicate sample ids)"
        )
    pool_cls = (
        concurrent.futures.ThreadPoolExecutor
        if backend == "thread"
        else concurrent.futures.ProcessPoolExecutor
    )
    with pool_cls(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _build_shard,
                pipeline,
                raw_metas[start:stop],
                ids[start:stop],
                seed,
                epoch,
                cost_model,
                vectorize,
            )
            for start, stop in bounds
        ]
        shards = [future.result() for future in futures]
    if vectorize:
        # Contiguous shards in input order: concatenating them is the merge.
        tables = [RecordTable.of(shard) for shard in shards]
        return RecordTable(
            np.concatenate([table.sample_ids for table in tables]),
            np.concatenate([table.sizes for table in tables]),
            np.concatenate([table.costs for table in tables]),
        )
    return [record for shard in shards for record in shard]
