"""A small real-pixel image dataset with the same size mix for every seed.

``SyntheticImageDataset`` draws each side independently log-uniform, so at
the few dozen samples a benchmark run can afford to encode, one seed's
mean pixel count differs from another's by ~13% (IQR over ten seeds), and
its p95 load latency is set by whichever two or three images came out
largest.  This dataset has the *same* distribution -- each side
log-uniform on [min_side, max_side], texture uniform on its range -- as a
fixed mix: the log area is the midpoint of each of ``n`` equal-probability
strata of its (triangular) distribution, the split of an area into height
and width and the texture are midpoints of strata too, paired with the
areas in one fixed shuffled order.  The seed picks the order of the
samples and their pixels, which come from the program's own
``generate_image``; bytes come from its ``ToyJpegCodec``.

It also times its own materialization, split into image generation (the
data layer) and encoding (the codec layer).
"""

import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.codec import CodecConfig, ToyJpegCodec
from repro.data.dataset import Dataset
from repro.data.synthetic import generate_image
from repro.preprocessing.payload import Payload, StageMeta
from repro.utils.rng import sample_rng


def _midpoints(order: np.ndarray) -> np.ndarray:
    """The midpoints of len(order) equal strata of [0, 1), in ``order``."""
    return (order + 0.5) / len(order)


class StratifiedImages(Dataset):
    """``n`` procedural images encoded with the toy codec, in a fixed size mix."""

    name = "stratified-images"

    def __init__(
        self,
        num_samples: int,
        seed: int,
        min_side: int = 256,
        max_side: int = 1024,
        texture_range: Tuple[float, float] = (0.3, 1.0),
    ) -> None:
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        layout = np.random.default_rng(0x1A6E5)  # the fixed mix, seed-independent
        n = num_samples
        lo, hi = math.log(min_side), math.log(max_side)
        span = hi - lo
        # Inverse CDF of the sum of two U(lo, hi): triangular on [2lo, 2hi].
        u = _midpoints(np.arange(n))
        log_area = np.where(
            u < 0.5, 2 * lo + span * np.sqrt(2 * u), 2 * hi - span * np.sqrt(2 * (1 - u))
        )
        h_lo = np.maximum(lo, log_area - hi)
        h_hi = np.minimum(hi, log_area - lo)
        log_h = h_lo + _midpoints(layout.permutation(n)) * (h_hi - h_lo)
        heights = np.rint(np.exp(log_h)).astype(int)
        widths = np.rint(np.exp(log_area - log_h)).astype(int)
        t_lo, t_hi = texture_range
        textures = t_lo + _midpoints(layout.permutation(n)) * (t_hi - t_lo)
        order = np.random.default_rng([seed, 0x1A6E5]).permutation(n)
        heights, widths, textures = heights[order], widths[order], textures[order]
        self._seed = seed
        self._dims: List[Tuple[int, int]] = list(zip(heights.tolist(), widths.tolist()))
        self._textures: List[float] = textures.tolist()
        self._codec = ToyJpegCodec(CodecConfig())
        self._encoded: Dict[int, bytes] = {}
        #: Seconds spent generating pixels / encoding them, and pixel bytes.
        self.generate_s = 0.0
        self.encode_s = 0.0
        self.pixel_bytes = 0

    def __len__(self) -> int:
        return len(self._dims)

    @property
    def is_materialized(self) -> bool:
        return True

    def _encode(self, sample_id: int) -> bytes:
        encoded = self._encoded.get(sample_id)
        if encoded is not None:
            return encoded
        height, width = self._dims[sample_id]
        started = time.perf_counter()
        image = generate_image(
            sample_rng(self._seed, sample_id, salt=2), height, width,
            self._textures[sample_id],
        )
        generated = time.perf_counter()
        encoded = self._codec.encode(image)
        self.encode_s += time.perf_counter() - generated
        self.generate_s += generated - started
        self.pixel_bytes += image.nbytes
        self._encoded[sample_id] = encoded
        return encoded

    def materialize(self, sample_id: int) -> None:
        """Generate and encode one sample now (the workload's set-up)."""
        self._encode(sample_id)

    def raw_meta(self, sample_id: int) -> StageMeta:
        self._check_id(sample_id)
        height, width = self._dims[sample_id]
        return StageMeta.for_encoded(len(self._encode(sample_id)), height, width)

    def raw_payload(self, sample_id: int) -> Payload:
        self._check_id(sample_id)
        height, width = self._dims[sample_id]
        return Payload.encoded(self._encode(sample_id), height=height, width=width)
