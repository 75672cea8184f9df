"""Unary algebra (min/max) and SCC correlation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unary import (
    UnaryBitstream,
    is_maximally_correlated,
    overlap,
    scc,
    unary_max,
    unary_min,
)

values = st.integers(0, 12)


def stream(v: int) -> UnaryBitstream:
    return UnaryBitstream.from_value(v, 12)


class TestOps:
    @given(a=values, b=values)
    @settings(max_examples=30)
    def test_min_max_consistency(self, a, b):
        assert unary_min(stream(a), stream(b)).value + \
            unary_max(stream(a), stream(b)).value == a + b


class TestOverlap:
    def test_counts_joint_ones(self):
        assert overlap(stream(5).bits, stream(3).bits) == 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            overlap(np.zeros(4, bool), np.zeros(5, bool))


class TestScc:
    @given(a=st.integers(1, 11), b=st.integers(1, 11))
    @settings(max_examples=40)
    def test_aligned_unary_is_plus_one(self, a, b):
        assert scc(stream(a).bits, stream(b).bits) == pytest.approx(1.0)

    def test_anti_aligned_is_minus_one(self):
        x = UnaryBitstream.from_value(4, 12).bits
        y = UnaryBitstream.from_value(4, 12, alignment="leading").bits
        assert scc(x, y) == pytest.approx(-1.0)

    def test_degenerate_streams_zero(self):
        assert scc(np.zeros(8, bool), stream(4).bits[:8]) == 0.0
        assert scc(np.ones(8, bool), stream(4).bits[:8]) == 0.0

    def test_independent_near_zero(self):
        rng = np.random.default_rng(9)
        x = rng.random(4096) < 0.5
        y = rng.random(4096) < 0.5
        assert abs(scc(x, y)) < 0.08

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scc(np.array([], bool), np.array([], bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scc(np.zeros(4, bool), np.zeros(5, bool))


class TestMaximallyCorrelated:
    @given(a=values, b=values)
    @settings(max_examples=30)
    def test_unary_pairs_always(self, a, b):
        assert is_maximally_correlated(stream(a).bits, stream(b).bits)

    def test_disjoint_not(self):
        x = np.array([1, 1, 0, 0], bool)
        y = np.array([0, 0, 1, 1], bool)
        assert not is_maximally_correlated(x, y)
