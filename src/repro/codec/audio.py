"""Toy lossless audio codec (the FLAC stand-in).

Mono int16 PCM, delta-coded then deflated: smooth (low-frequency) signals
compress well, noisy ones poorly -- the same content-dependence property
the image codec provides for JPEG.  Lossless round-trip.

Stream layout: magic 'TAUD' | version u8 | sample_rate u32 |
num_samples u32 | deflate(delta-coded int16 LE).
"""

import struct
import zlib

import numpy as np

from repro.codec.errors import CorruptStreamError, UnsupportedImageError
from repro.codec.progressive import inflate_exact

_MAGIC = b"TAUD"
_VERSION = 1
_HEADER = struct.Struct("<4sBII")


class ToyFlacCodec:
    """Lossless compressor for mono int16 PCM."""

    def __init__(self, zlib_level: int = 6) -> None:
        if not 0 <= zlib_level <= 9:
            raise ValueError(f"zlib_level must be in [0, 9], got {zlib_level}")
        self.zlib_level = zlib_level

    def encode(self, pcm: np.ndarray, sample_rate: int = 16_000) -> bytes:
        """Encode a 1-D int16 array."""
        if not isinstance(pcm, np.ndarray):
            raise UnsupportedImageError(
                f"expected ndarray, got {type(pcm).__name__}"
            )
        if pcm.dtype != np.int16 or pcm.ndim != 1:
            raise UnsupportedImageError(
                f"expected 1-D int16 PCM, got {pcm.dtype} {pcm.shape}"
            )
        if len(pcm) < 1:
            raise UnsupportedImageError("empty signal")
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        # First-order prediction: residuals are small for smooth signals.
        deltas = np.diff(pcm.astype(np.int32), prepend=np.int32(0))
        residuals = deltas.astype(np.int16)  # wraps safely: int16 diff fits mod 2^16
        payload = zlib.compress(residuals.astype("<i2").tobytes(), self.zlib_level)
        return _HEADER.pack(_MAGIC, _VERSION, sample_rate, len(pcm)) + payload

    def decode(self, data: bytes):
        """Decode to (pcm int16 array, sample_rate)."""
        if len(data) < _HEADER.size:
            raise CorruptStreamError("stream shorter than header")
        magic, version, sample_rate, num_samples = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise CorruptStreamError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptStreamError(f"unsupported version {version}")
        # Capped at the header's sample count: a deflate bomb behind a small
        # header fails after 2 * num_samples + 1 bytes, not at its full size.
        raw = inflate_exact(
            data[_HEADER.size :], 2 * num_samples,
            what=f"payload of {num_samples} samples",
        )
        residuals = np.frombuffer(raw, dtype="<i2")
        # Undo the first-order prediction modulo 2^16 (int16 wraparound).
        pcm = np.cumsum(residuals.astype(np.int64)) % 65536
        pcm = np.where(pcm >= 32768, pcm - 65536, pcm).astype(np.int16)
        return pcm, sample_rate
