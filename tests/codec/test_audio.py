"""Toy FLAC codec tests."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.audio import ToyFlacCodec
from repro.codec.errors import CorruptStreamError, UnsupportedImageError
from repro.data.audio import generate_clip


class TestRoundTrip:
    def test_lossless(self, rng):
        clip = generate_clip(rng, 16_000, tonality=0.6)
        codec = ToyFlacCodec()
        decoded, rate = codec.decode(codec.encode(clip, sample_rate=22_050))
        assert np.array_equal(decoded, clip)
        assert rate == 22_050

    @given(n=st.integers(1, 5_000), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lossless_property(self, n, seed):
        rng = np.random.default_rng(seed)
        clip = rng.integers(-32768, 32768, size=n, dtype=np.int16)
        codec = ToyFlacCodec()
        decoded, _ = codec.decode(codec.encode(clip))
        assert np.array_equal(decoded, clip)

    def test_extreme_values_survive_wraparound(self):
        clip = np.array([-32768, 32767, -32768, 0, 32767], dtype=np.int16)
        codec = ToyFlacCodec()
        decoded, _ = codec.decode(codec.encode(clip))
        assert np.array_equal(decoded, clip)

    def test_silence_compresses_extremely_well(self):
        clip = np.zeros(16_000, dtype=np.int16)
        encoded = ToyFlacCodec().encode(clip)
        assert len(encoded) < clip.nbytes / 100

    def test_noise_barely_compresses(self, rng):
        clip = rng.integers(-32768, 32768, size=16_000, dtype=np.int16)
        encoded = ToyFlacCodec().encode(clip)
        assert len(encoded) > clip.nbytes * 0.9

    def test_smoother_signals_compress_better(self, rng):
        tonal = generate_clip(rng, 16_000, tonality=1.0)
        noisy = generate_clip(rng, 16_000, tonality=0.0)
        codec = ToyFlacCodec()
        assert len(codec.encode(tonal)) < len(codec.encode(noisy))


class TestRobustness:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(UnsupportedImageError):
            ToyFlacCodec().encode(np.zeros(10, dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(UnsupportedImageError):
            ToyFlacCodec().encode(np.zeros(0, dtype=np.int16))

    def test_rejects_truncated(self, rng):
        data = ToyFlacCodec().encode(generate_clip(rng, 1000, 0.5))
        with pytest.raises(CorruptStreamError):
            ToyFlacCodec().decode(data[: len(data) // 2])

    def test_rejects_bad_magic(self):
        with pytest.raises(CorruptStreamError):
            ToyFlacCodec().decode(b"WAT?" + b"\x00" * 40)

    @given(data=st.binary(max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_garbage_fails_cleanly(self, data):
        try:
            ToyFlacCodec().decode(data)
        except CorruptStreamError:
            pass


class TestBoundedInflate:
    @staticmethod
    def _stream(num_samples: int, payload: bytes) -> bytes:
        return struct.pack("<4sBII", b"TAUD", 1, 16_000, num_samples) + payload

    @staticmethod
    def _zeros_bomb(compressed_bytes: int) -> bytes:
        """A deflate stream of zeros about ``compressed_bytes`` long
        (~1000x that once inflated), built without holding the zeros."""
        deflater = zlib.compressobj(9)
        chunk = bytes(1 << 20)
        out = []
        size = 0
        while size < compressed_bytes:
            piece = deflater.compress(chunk)
            out.append(piece)
            size += len(piece)
        out.append(deflater.flush())
        return b"".join(out)

    def test_deflate_bomb_is_refused_at_the_header_cap(self):
        # A 204 KB stream behind a 10-sample header: uncapped, it inflates
        # to hundreds of MB before the length check can refuse it.
        bomb = self._stream(10, self._zeros_bomb(204_000))
        assert len(bomb) >= 204_000
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError, match="payload of 10 samples"):
                ToyFlacCodec().decode(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A few copies of the input at most (slice, unconsumed tail); the
        # inflated output never passes 2 * 10 + 1 bytes.
        assert peak < 1 << 20

    def test_short_payload_is_refused(self):
        with pytest.raises(CorruptStreamError):
            ToyFlacCodec().decode(self._stream(10, zlib.compress(bytes(18))))

    def test_trailing_garbage_is_refused(self, rng):
        data = ToyFlacCodec().encode(generate_clip(rng, 100, 0.5))
        with pytest.raises(CorruptStreamError):
            ToyFlacCodec().decode(data + b"\x00")
