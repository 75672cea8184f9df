"""The unary-domain encoder and its bit-exact equivalence (Fig. 3-5)."""

import numpy as np
import pytest

from repro.core import (
    SobolLevelEncoder,
    UHDConfig,
    UnaryDomainEncoder,
    masking_binarize,
)
from repro.hdc.ops import binarize


class TestEquivalence:
    """The central hardware-functional claim: unary == arithmetic."""

    def test_bit_exact_small(self):
        config = UHDConfig(dim=128, levels=16)
        unary = UnaryDomainEncoder(36, config)
        arithmetic = SobolLevelEncoder(36, config)
        rng = np.random.default_rng(0)
        for _ in range(3):
            image = rng.integers(0, 256, size=36, dtype=np.uint8)
            np.testing.assert_array_equal(
                unary.encode(image), arithmetic.encode(image)
            )

    def test_bit_exact_other_levels(self):
        config = UHDConfig(dim=64, levels=8)
        unary = UnaryDomainEncoder(16, config)
        arithmetic = SobolLevelEncoder(16, config)
        image = np.linspace(0, 255, 16).astype(np.uint8)
        np.testing.assert_array_equal(unary.encode(image), arithmetic.encode(image))

    def test_level_bits_shape(self):
        config = UHDConfig(dim=64)
        unary = UnaryDomainEncoder(9, config)
        bits = unary.level_bits(np.zeros(9, dtype=np.uint8))
        assert bits.shape == (9, 64)
        assert bits.dtype == np.bool_

    def test_dim_chunking_invariant(self):
        config = UHDConfig(dim=96)
        unary = UnaryDomainEncoder(4, config)
        image = np.array([10, 100, 200, 250], dtype=np.uint8)
        a = unary.level_bits(image, dim_chunk=7)
        b = unary.level_bits(image, dim_chunk=96)
        np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_requires_quantized(self):
        with pytest.raises(ValueError, match="quantized"):
            UnaryDomainEncoder(4, UHDConfig(dim=32, quantized=False))

    def test_requires_sobol(self):
        """Its BRAM holds Sobol codes: under another LD family it would
        silently disagree with ``SobolLevelEncoder``."""
        with pytest.raises(ValueError, match="lds='halton'"):
            UnaryDomainEncoder(4, UHDConfig(dim=32, lds="halton"))

    def test_wrong_pixel_count(self):
        unary = UnaryDomainEncoder(4, UHDConfig(dim=32))
        with pytest.raises(ValueError):
            unary.encode(np.zeros(5, dtype=np.uint8))


class TestMaskingBinarize:
    @pytest.mark.parametrize("h", [1, 2, 3, 8, 9, 10, 784, 785])
    def test_matches_sign_rule_all_parities(self, h):
        # every reachable accumulator value (V = 2*count - H)
        accumulators = np.arange(-h, h + 1, 2)
        np.testing.assert_array_equal(
            masking_binarize(accumulators, h), binarize(accumulators)
        )

    @pytest.mark.parametrize("h", [2, 8, 100])
    def test_tie_sets_sign_even_h(self, h):
        # V = 0 means popcount exactly H/2: the masking AND fires (ties -> +1).
        assert masking_binarize(np.array([0]), h)[0] == 1

    @pytest.mark.parametrize("h", [1, 9, 101])
    def test_odd_h_has_no_tie(self, h):
        # odd H cannot reach V = 0; the nearest values straddle the threshold
        assert masking_binarize(np.array([1]), h)[0] == 1
        assert masking_binarize(np.array([-1]), h)[0] == -1

    @pytest.mark.parametrize("h", [1, 2, 9, 10, 784])
    def test_collapsed_threshold_equals_branchy_rule(self, h):
        # the old implementation special-cased parity; both reduce to
        # ceil(H/2) = (H + 1) // 2
        legacy = (h + 1) // 2 if h % 2 else h // 2
        assert legacy == (h + 1) // 2
        counts = (np.arange(-h, h + 1, 2) + h) // 2
        np.testing.assert_array_equal(
            masking_binarize(np.arange(-h, h + 1, 2), h),
            np.where(counts >= legacy, 1, -1),
        )

    def test_encode_binarized(self):
        config = UHDConfig(dim=32)
        unary = UnaryDomainEncoder(4, config)
        image = np.array([0, 255, 128, 64], dtype=np.uint8)
        signs = unary.encode_binarized(image)
        np.testing.assert_array_equal(signs, binarize(unary.encode(image)))
