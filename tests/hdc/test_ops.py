"""Bipolar hypervector algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hdc import (
    binarize,
    bind,
    bundle,
    ensure_bipolar,
    from_bits,
    random_hypervectors,
    to_bits,
)

bipolar = hnp.arrays(
    np.int8, st.integers(4, 64),
    elements=st.sampled_from([np.int8(-1), np.int8(1)]),
)


class TestEnsureBipolar:
    def test_accepts_plus_minus_one(self):
        hv = np.array([1, -1, 1], dtype=np.int64)
        assert ensure_bipolar(hv).dtype == np.int8

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ensure_bipolar(np.array([1, 0, -1]))

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            ensure_bipolar(np.array([2, -1]))


class TestBind:
    @given(a=bipolar)
    @settings(max_examples=30)
    def test_self_inverse(self, a):
        np.testing.assert_array_equal(bind(a, a), np.ones_like(a))

    @given(a=bipolar)
    @settings(max_examples=30)
    def test_identity(self, a):
        ones = np.ones_like(a)
        np.testing.assert_array_equal(bind(a, ones), a)

    def test_commutative(self):
        rng = np.random.default_rng(0)
        a = random_hypervectors(1, 64, rng)[0]
        b = random_hypervectors(1, 64, rng)[0]
        np.testing.assert_array_equal(bind(a, b), bind(b, a))

    def test_associative(self):
        rng = np.random.default_rng(1)
        a, b, c = random_hypervectors(3, 64, rng)
        np.testing.assert_array_equal(bind(bind(a, b), c), bind(a, bind(b, c)))

    def test_unbinding_recovers(self):
        rng = np.random.default_rng(2)
        a, b = random_hypervectors(2, 128, rng)
        np.testing.assert_array_equal(bind(bind(a, b), b), a)

    def test_is_xor_in_bit_domain(self):
        rng = np.random.default_rng(3)
        a, b = random_hypervectors(2, 64, rng)
        xor_bits = to_bits(a) ^ to_bits(b)
        # XOR of bits corresponds to *disagreement*; multiply of +-1 gives
        # +1 where equal. So bind == from_bits(NOT xor).
        np.testing.assert_array_equal(bind(a, b), from_bits(1 - xor_bits))


class TestBundle:
    def test_sum_along_axis(self):
        stack = np.array([[1, -1], [1, 1], [-1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(bundle(stack), [1, 1])

    def test_dtype_is_wide(self):
        stack = np.ones((100_000, 2), dtype=np.int8)
        assert bundle(stack).dtype == np.int64
        assert bundle(stack)[0] == 100_000

    def test_majority_preserves_similarity(self):
        rng = np.random.default_rng(4)
        vectors = random_hypervectors(5, 2048, rng)
        majority = binarize(bundle(vectors)).astype(np.int64)
        for vector in vectors:
            similarity = float(majority @ vector.astype(np.int64)) / 2048
            assert similarity > 0.15  # each constituent stays similar


class TestBinarize:
    def test_sign(self):
        np.testing.assert_array_equal(
            binarize(np.array([-5, 3, -1])), [-1, 1, -1]
        )

    def test_tie_goes_positive(self):
        assert binarize(np.array([0]))[0] == 1

    def test_threshold_shift(self):
        np.testing.assert_array_equal(
            binarize(np.array([2, 4]), threshold=3), [-1, 1]
        )

    def test_output_dtype(self):
        assert binarize(np.array([1.5, -0.5])).dtype == np.int8


class TestBitsConversion:
    @given(a=bipolar)
    @settings(max_examples=30)
    def test_round_trip(self, a):
        np.testing.assert_array_equal(from_bits(to_bits(a)), a)

    def test_from_bits_rejects_other(self):
        with pytest.raises(ValueError):
            from_bits(np.array([0, 1, 2]))


class TestRandomHypervectors:
    def test_shape_dtype(self):
        hv = random_hypervectors(3, 100, np.random.default_rng(0))
        assert hv.shape == (3, 100)
        assert hv.dtype == np.int8

    def test_balanced(self):
        hv = random_hypervectors(1, 100_000, np.random.default_rng(1))[0]
        assert abs(int(hv.sum())) < 1500  # ~4.7 sigma

    def test_deterministic_per_seed(self):
        a = random_hypervectors(2, 64, np.random.default_rng(7))
        b = random_hypervectors(2, 64, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_hypervectors(-1, 8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_hypervectors(1, 0, np.random.default_rng(0))
