"""Bit-exactness of the packed encoder against the reference quantized path.

The property mirrors the paper's hardware-substitution claim the same way
the unary-domain tests do: every accumulator bit must match, across
dimensions not divisible by 64, odd/even pixel counts, both gather tables
and the lazy pair promotion.
"""

import numpy as np
import pytest

from repro.core import SobolLevelEncoder, UHDConfig
from repro.api import get_backend
from repro.fastpath import PackedLevelEncoder


def _images(rng, n, pixels):
    return rng.integers(0, 256, size=(n, pixels), dtype=np.uint8)


class TestBitExactness:
    @pytest.mark.parametrize("pixels", [9, 16, 25, 36])  # odd and even H
    @pytest.mark.parametrize("dim", [37, 64, 100])       # incl. D % 64 != 0
    @pytest.mark.parametrize("levels", [4, 16])
    def test_matches_reference(self, pixels, dim, levels, rng):
        config = UHDConfig(dim=dim, levels=levels)
        reference = SobolLevelEncoder(pixels, config)
        packed = PackedLevelEncoder(pixels, config)
        images = _images(rng, 6, pixels)
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )

    @pytest.mark.parametrize("pixels", [7, 12])
    def test_single_and_pair_tables_agree(self, pixels, rng):
        config = UHDConfig(dim=96, levels=16)
        reference = SobolLevelEncoder(pixels, config)
        single = PackedLevelEncoder(pixels, config, pair_lut_budget=0)
        paired = PackedLevelEncoder(pixels, config)
        paired.PAIR_PROMOTE_IMAGES = 0
        images = _images(rng, 5, pixels)
        expected = reference.encode_batch(images)
        np.testing.assert_array_equal(single.encode_batch(images), expected)
        np.testing.assert_array_equal(paired.encode_batch(images), expected)
        assert single._table.group == 1
        assert paired._table.group == 2

    def test_pair_promotion_mid_stream(self, rng):
        """Crossing the promotion threshold must not change a single bit."""
        config = UHDConfig(dim=64, levels=16)
        reference = SobolLevelEncoder(10, config)
        packed = PackedLevelEncoder(10, config)
        packed.PAIR_PROMOTE_IMAGES = 8
        images = _images(rng, 5, 10)
        for _ in range(3):  # 5, 10, 15 images seen: promotes on the third call
            np.testing.assert_array_equal(
                packed.encode_batch(images), reference.encode_batch(images)
            )
        assert packed._table.group == 2

    def test_float_images(self, rng):
        config = UHDConfig(dim=80, levels=16)
        reference = SobolLevelEncoder(12, config)
        packed = PackedLevelEncoder(12, config)
        images = rng.random((4, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )

    def test_single_image_encode(self, rng):
        config = UHDConfig(dim=48)
        reference = SobolLevelEncoder(9, config)
        packed = PackedLevelEncoder(9, config)
        image = _images(rng, 1, 9)[0]
        np.testing.assert_array_equal(packed.encode(image), reference.encode(image))

    def test_batch_chunking_invariant(self, rng):
        config = UHDConfig(dim=64)
        packed = PackedLevelEncoder(25, config)
        images = _images(rng, 11, 25)
        np.testing.assert_array_equal(
            packed.encode_batch(images, chunk=3), packed.encode_batch(images, chunk=32)
        )

    def test_extreme_images(self):
        """All-black / all-white hit the count bounds 0 and H exactly."""
        config = UHDConfig(dim=70, levels=16)
        reference = SobolLevelEncoder(33, config)
        packed = PackedLevelEncoder(33, config)
        images = np.stack([
            np.zeros(33, dtype=np.uint8), np.full(33, 255, dtype=np.uint8)
        ])
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )


class TestValidationAndSelection:
    def test_requires_quantized(self):
        with pytest.raises(ValueError, match="quantized"):
            PackedLevelEncoder(4, UHDConfig(dim=32, quantized=False))

    def test_wrong_pixel_count(self):
        packed = PackedLevelEncoder(4, UHDConfig(dim=32))
        with pytest.raises(ValueError, match="pixels"):
            packed.encode_batch(np.zeros((1, 5), dtype=np.uint8))

    def test_auto_selects_packed_when_quantized(self):
        config = UHDConfig(dim=32)
        backend = get_backend(config.backend)
        assert backend.encoder_kind(config, 16) == "packed"
        assert isinstance(backend.make_encoder(16, config), PackedLevelEncoder)

    def test_auto_falls_back_when_not_quantized(self):
        config = UHDConfig(dim=32, quantized=False)
        backend = get_backend(config.backend)
        assert backend.encoder_kind(config, 16) == "reference"
        encoder = backend.make_encoder(16, config)
        assert not isinstance(encoder, PackedLevelEncoder)

    def test_forced_packed_without_quantization_raises(self):
        config = UHDConfig(dim=32, quantized=False, backend="packed")
        with pytest.raises(ValueError, match="quantized"):
            get_backend(config.backend).encoder_kind(config, 16)

    def test_reference_backend_respected(self):
        config = UHDConfig(dim=32, backend="reference")
        assert get_backend(config.backend).encoder_kind(config, 16) == "reference"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            UHDConfig(backend="gpu")
