"""Batch twin of ``Pipeline.simulate`` for record building.

``simulate_batch`` pushes every sample in a batch through the pipeline's
size algebra and cost model with NumPy array arithmetic, drawing random
augmentation parameters from :class:`repro.parallel.pcg.LaneGenerators`
-- the vectorized bit-exact emulation of ``op_rng``.  The resulting
stage-size and op-cost matrices (and the :class:`RecordTable`
``build_records_vectorized`` wraps around them) are **bit-identical**
to what the sequential ``build_record`` loop produces, floating point
included.  That contract is what lets every consumer (profilers, the
decision engine, the harnesses) switch freely between the two paths.

Bit-identity fine print, mirrored from the sequential code:

- ``RandomResizedCrop`` computes its aspect ratio with ``math.exp``,
  which differs from ``np.exp`` in the last ulp for ~5% of inputs in the
  crop's log-ratio range -- so the batch handler calls ``math.exp`` per
  lane.  ``np.sqrt``/``np.rint`` match ``math.sqrt``/``round`` exactly
  (IEEE-754 correct rounding and half-even ties) and stay vectorized.
- Cost expressions replicate ``OpCost.seconds`` term by term in the
  same association order: ``((fixed + a*in) + b*out) * 1e-9`` scaled by
  ``cpu_speed_factor`` as a separate multiply.
- Lanes that leave the crop's rejection loop early stop consuming
  draws, exactly like the sequential early ``return``; the center-crop
  fallback consumes none.

Ops without a registered batch handler fall back to a per-lane loop
using the real ``op_rng``/``draw_params``/``simulate`` path, so exotic
pipelines stay correct (just less accelerated).  Batches whose RNG key
components exceed 32 bits fall back to the sequential reference
entirely (``supports_batch`` tells callers in advance).
"""

import dataclasses
import math
from typing import Callable, Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.parallel.pcg import LaneGenerators, components_supported
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.ops import (
    Decode,
    Normalize,
    Op,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)
from repro.preprocessing.payload import PayloadKind, StageMeta
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable
from repro.utils.rng import op_rng


@dataclasses.dataclass
class BatchMeta:
    """Array-of-lanes form of :class:`StageMeta`.

    All arrays are int64 with one entry per sample lane; ``kind`` is
    shared by the whole batch (every op has a fixed output kind).
    """

    kind: PayloadKind
    nbytes: np.ndarray
    height: np.ndarray
    width: np.ndarray
    channels: np.ndarray

    @classmethod
    def from_metas(cls, metas: Sequence[StageMeta]) -> "BatchMeta":
        if not metas:
            raise ValueError("cannot build a BatchMeta from zero metas")
        kind = metas[0].kind
        if any(meta.kind is not kind for meta in metas):
            raise ValueError("batch mixes payload kinds")
        return cls(
            kind=kind,
            nbytes=np.array([meta.nbytes for meta in metas], dtype=np.int64),
            height=np.array([meta.height for meta in metas], dtype=np.int64),
            width=np.array([meta.width for meta in metas], dtype=np.int64),
            channels=np.array([meta.channels for meta in metas], dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.nbytes.shape[0])

    def lane(self, index: int) -> StageMeta:
        """The single-sample :class:`StageMeta` for one lane."""
        return StageMeta(
            kind=self.kind,
            nbytes=int(self.nbytes[index]),
            height=int(self.height[index]),
            width=int(self.width[index]),
            channels=int(self.channels[index]),
        )


#: A batch handler returns (out_meta, input_pixels, output_pixels).
BatchResult = Tuple[BatchMeta, np.ndarray, np.ndarray]
BatchHandler = Callable[[Op, BatchMeta, Optional[LaneGenerators]], BatchResult]


def _image_meta(height: np.ndarray, width: np.ndarray, channels: np.ndarray) -> BatchMeta:
    return BatchMeta(
        kind=PayloadKind.IMAGE_U8,
        nbytes=height * width * channels,
        height=height,
        width=width,
        channels=channels,
    )


def _decode_batch(
    op: Op, meta: BatchMeta, lanes: Optional[LaneGenerators]
) -> BatchResult:
    channels = np.full(len(meta), 3, dtype=np.int64)
    out = _image_meta(meta.height, meta.width, channels)
    return out, np.zeros(len(meta), dtype=np.int64), out.height * out.width


def _crop_batch(
    op: Op, meta: BatchMeta, lanes: Optional[LaneGenerators]
) -> BatchResult:
    assert isinstance(op, RandomResizedCrop) and lanes is not None
    n = len(meta)
    height = meta.height
    width = meta.width
    area = height * width
    log_ratio = (math.log(op.ratio[0]), math.log(op.ratio[1]))

    crop_h = np.zeros(n, dtype=np.int64)
    crop_w = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for _ in range(10):
        idx = np.flatnonzero(active)
        if not idx.shape[0]:
            break
        target_area = area[idx] * lanes.uniform(op.scale[0], op.scale[1], idx)
        # math.exp, not np.exp: the two differ in the last ulp for ~5% of
        # inputs here, and the sequential path uses math.exp.
        aspect = np.array(
            [math.exp(value) for value in lanes.uniform(log_ratio[0], log_ratio[1], idx).tolist()],
            dtype=np.float64,
        )
        cand_w = np.rint(np.sqrt(target_area * aspect)).astype(np.int64)
        cand_h = np.rint(np.sqrt(target_area / aspect)).astype(np.int64)
        accepted = (cand_w > 0) & (cand_w <= width[idx]) & (cand_h > 0) & (cand_h <= height[idx])
        hit = idx[accepted]
        crop_w[hit] = cand_w[accepted]
        crop_h[hit] = cand_h[accepted]
        active[hit] = False
        # The sequential path draws top/left offsets here; they do not
        # affect sizes or costs and each op owns its own generator, so the
        # batch path can skip them without perturbing any later draw.

    # Center-crop fallback for lanes that exhausted their attempts.
    idx = np.flatnonzero(active)
    if idx.shape[0]:
        f_height = height[idx]
        f_width = width[idx]
        in_ratio = f_width / f_height
        f_crop_w = f_width.copy()
        f_crop_h = f_height.copy()
        narrow = in_ratio < op.ratio[0]
        f_crop_h[narrow] = np.minimum(
            f_height[narrow], np.rint(f_width[narrow] / op.ratio[0]).astype(np.int64)
        )
        wide = in_ratio > op.ratio[1]
        f_crop_w[wide] = np.minimum(
            f_width[wide], np.rint(f_height[wide] * op.ratio[1]).astype(np.int64)
        )
        crop_w[idx] = f_crop_w
        crop_h[idx] = f_crop_h

    size = np.full(n, op.size, dtype=np.int64)
    out = _image_meta(size, size, np.full(n, 3, dtype=np.int64))
    return out, crop_h * crop_w, out.height * out.width


def _flip_batch(
    op: Op, meta: BatchMeta, lanes: Optional[LaneGenerators]
) -> BatchResult:
    assert isinstance(op, RandomHorizontalFlip) and lanes is not None
    n = len(meta)
    flip = lanes.random(np.arange(n)) < op.p
    out = _image_meta(meta.height, meta.width, meta.channels)
    out_px = np.where(flip, out.height * out.width, 0)
    return out, np.zeros(n, dtype=np.int64), out_px


def _to_tensor_batch(
    op: Op, meta: BatchMeta, lanes: Optional[LaneGenerators]
) -> BatchResult:
    pixels = meta.height * meta.width
    out = BatchMeta(
        kind=PayloadKind.TENSOR_F32,
        nbytes=meta.height * meta.width * meta.channels * 4,
        height=meta.height,
        width=meta.width,
        channels=meta.channels,
    )
    return out, pixels, pixels


def _normalize_batch(
    op: Op, meta: BatchMeta, lanes: Optional[LaneGenerators]
) -> BatchResult:
    pixels = meta.height * meta.width
    out = BatchMeta(
        kind=PayloadKind.TENSOR_F32,
        nbytes=meta.height * meta.width * meta.channels * 4,
        height=meta.height,
        width=meta.width,
        channels=meta.channels,
    )
    return out, pixels, pixels


#: Registered batch handlers, keyed on the exact op class.  Handlers for
#: the deterministic ops take no generators (the sequential path derives a
#: generator it never draws from; creating none is observationally equal
#: because every op's generator is independent).
BATCH_HANDLERS: Dict[Type[Op], Tuple[BatchHandler, bool]] = {
    Decode: (_decode_batch, False),
    RandomResizedCrop: (_crop_batch, True),
    RandomHorizontalFlip: (_flip_batch, True),
    ToTensor: (_to_tensor_batch, False),
    Normalize: (_normalize_batch, False),
}


def _fallback_lanewise(
    op: Op,
    op_index: int,
    meta: BatchMeta,
    sample_ids: np.ndarray,
    seed: int,
    epoch: int,
) -> BatchResult:
    """Reference per-lane path for ops without a batch handler."""
    n = len(meta)
    nbytes = np.empty(n, dtype=np.int64)
    height = np.empty(n, dtype=np.int64)
    width = np.empty(n, dtype=np.int64)
    channels = np.empty(n, dtype=np.int64)
    in_px = np.empty(n, dtype=np.int64)
    out_px = np.empty(n, dtype=np.int64)
    out_kind: Optional[PayloadKind] = None
    for lane in range(n):
        lane_meta = meta.lane(lane)
        rng = op_rng(seed, epoch, int(sample_ids[lane]), op_index)
        params = op.draw_params(rng, lane_meta)
        out_meta = op.simulate(lane_meta, params)
        pixels = op.work_pixels(lane_meta, out_meta, params)
        nbytes[lane] = out_meta.nbytes
        height[lane] = out_meta.height
        width[lane] = out_meta.width
        channels[lane] = out_meta.channels
        in_px[lane], out_px[lane] = pixels
        out_kind = out_meta.kind
    assert out_kind is not None
    out = BatchMeta(kind=out_kind, nbytes=nbytes, height=height, width=width, channels=channels)
    return out, in_px, out_px


def supports_batch(pipeline: Pipeline, *key_components: int) -> bool:
    """Whether the fully-vectorized path covers this pipeline and key.

    False means ``build_records_vectorized`` will still be *correct* but
    may run per-lane fallbacks (unregistered ops) or delegate to the
    sequential reference (oversized key components).
    """
    return components_supported(*key_components) and all(
        type(op) in BATCH_HANDLERS for op in pipeline.ops
    )


def simulate_batch(
    pipeline: Pipeline,
    raw_metas: Sequence[StageMeta],
    sample_ids: Sequence[int],
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stage sizes and op costs for a whole batch.

    Returns ``(sizes, costs)`` -- int64 ``(n, n_ops + 1)`` and float64
    ``(n, n_ops)`` matrices whose rows equal the sequential
    ``build_record`` outputs for the same keys, bit for bit.
    """
    ids = np.asarray(sample_ids, dtype=np.int64)
    if ids.shape[0] != len(raw_metas):
        raise ValueError(f"{len(raw_metas)} metas for {ids.shape[0]} sample ids")
    model = cost_model if cost_model is not None else pipeline.cost_model
    n = ids.shape[0]
    n_ops = len(pipeline.ops)
    sizes = np.empty((n, n_ops + 1), dtype=np.int64)
    costs = np.empty((n, n_ops), dtype=np.float64)
    if not n:
        return sizes, costs

    meta = BatchMeta.from_metas(raw_metas)
    sizes[:, 0] = meta.nbytes
    batched_keys = components_supported(seed, epoch, int(ids.max()))
    for index, op in enumerate(pipeline.ops):
        entry = BATCH_HANDLERS.get(type(op))
        if entry is None or not batched_keys:
            meta, in_px, out_px = _fallback_lanewise(op, index, meta, ids, seed, epoch)
        else:
            handler, needs_rng = entry
            lanes = (
                LaneGenerators.for_op(seed, epoch, ids, index) if needs_rng else None
            )
            meta, in_px, out_px = handler(op, meta, lanes)
        sizes[:, index + 1] = meta.nbytes
        op_cost = model.cost_for(op.name)
        # Term-by-term twin of OpCost.seconds + CostModel.op_seconds.
        total_ns = op_cost.fixed_ns + op_cost.ns_per_input_pixel * in_px
        total_ns = total_ns + op_cost.ns_per_output_pixel * out_px
        costs[:, index] = (total_ns * 1e-9) * model.cpu_speed_factor
    return sizes, costs


def build_records_vectorized(
    pipeline: Pipeline,
    raw_metas: Sequence[StageMeta],
    sample_ids: Sequence[int],
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
) -> RecordTable:
    """Vectorized twin of a ``build_record`` loop over ``sample_ids``.

    The table's rows equal the loop's records; no row object is built
    until something indexes or iterates the table.
    """
    sizes, costs = simulate_batch(
        pipeline, raw_metas, sample_ids, seed=seed, epoch=epoch, cost_model=cost_model
    )
    return RecordTable(sample_ids, sizes, costs)

