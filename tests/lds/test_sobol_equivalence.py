"""SobolEngine against the scalar-draw, bit-loop generator it replaced.

``ScalarSobol`` below is the original construction, kept only here as
an oracle: one ``rng.integers(0, 1 << i)`` call per direction integer,
and every point built by XOR-ing the direction numbers of its set bits
one bit position at a time.  The engine draws each dimension's integers
in one call and generates points by dyadic doubling; both must give the
same first points bit for bit, including at every length where the
doubling's last, partial copy starts or stops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lds import SobolEngine

_BITS = 32


class ScalarSobol:
    """The original generator: scalar draws and a loop over bit positions."""

    def __init__(self, dimension, seed, digital_shift):
        self.dimension = dimension
        shifts = (_BITS - 1 - np.arange(_BITS)).astype(np.uint64)
        directions = np.zeros((dimension, _BITS), dtype=np.uint64)
        directions[0] = np.uint64(1) << shifts
        for dim in range(1, dimension):
            rng = np.random.default_rng([seed, dim])
            m = np.zeros(_BITS, dtype=np.uint64)
            for i in range(_BITS):
                m[i] = np.uint64(2 * int(rng.integers(0, 1 << i)) + 1)
            directions[dim] = m << shifts
        self.directions = directions
        if digital_shift:
            shift_rng = np.random.default_rng([seed, 0xD157A1])
            self.shift = shift_rng.integers(
                0, 1 << _BITS, size=dimension, dtype=np.uint64
            )
        else:
            self.shift = np.zeros(dimension, dtype=np.uint64)

    def integers(self, n):
        ks = np.arange(n, dtype=np.uint64)
        points = np.broadcast_to(self.shift, (n, self.dimension)).copy()
        for bit in range(max(n - 1, 0).bit_length()):
            selected = ((ks >> np.uint64(bit)) & np.uint64(1)).astype(bool)
            points[selected] ^= self.directions[:, bit]
        return points


@st.composite
def engine_settings(draw):
    return {
        "dimension": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "digital_shift": draw(st.booleans()),
    }


@given(kwargs=engine_settings(), n=st.integers(0, 3000))
@settings(max_examples=40, deadline=None)
def test_engine_matches_scalar_oracle(kwargs, n):
    engine = SobolEngine(**kwargs)
    oracle = ScalarSobol(**kwargs)
    np.testing.assert_array_equal(engine._directions, oracle.directions)
    np.testing.assert_array_equal(engine.integers(n), oracle.integers(n))


@given(kwargs=engine_settings(), n=st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_random_matches_scalar_oracle(kwargs, n):
    expected = ScalarSobol(**kwargs).integers(n).astype(np.float64) / 2.0**_BITS
    np.testing.assert_array_equal(SobolEngine(**kwargs).random(n), expected)


# n = 2^b - 1, 2^b and 2^b + 1: the doubling's last copy is one point
# short of, exactly, or one point past a power of two
_DOUBLING_BOUNDARIES = sorted(
    {0} | {(1 << b) + offset for b in range(11) for offset in (-1, 0, 1)}
)
_BOUNDARY_SETTINGS = {"dimension": 33, "seed": 2024, "digital_shift": True}


@pytest.fixture(scope="module")
def boundary_oracle():
    return ScalarSobol(**_BOUNDARY_SETTINGS)


@pytest.mark.parametrize("n", _DOUBLING_BOUNDARIES)
def test_engine_matches_scalar_oracle_at_doubling_boundary(boundary_oracle, n):
    engine = SobolEngine(**_BOUNDARY_SETTINGS)
    np.testing.assert_array_equal(engine.integers(n), boundary_oracle.integers(n))
