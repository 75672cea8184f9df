"""SobolEngine against the scalar-draw, bit-loop generator it replaced.

``ScalarSobol`` below is the original construction, kept only here as
an oracle: one ``rng.integers(0, 1 << i)`` call per direction integer,
and every point built by XOR-ing the direction numbers of its set bits
one bit position at a time.  The engine draws each dimension's integers
in one call and generates points by dyadic doubling; both must give the
same stream bit for bit from any start, in both orders.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lds import SobolEngine, gf2


def _scalar_integers(rng, count):
    m = np.zeros(count, dtype=np.uint64)
    for i in range(count):
        m[i] = np.uint64(2 * int(rng.integers(0, 1 << i)) + 1)
    return m


class ScalarSobol:
    """The original generator: scalar draws and a loop over bit positions."""

    def __init__(self, dimension, seed, max_bits, init, order, digital_shift):
        self.dimension = dimension
        self.max_bits = max_bits
        self.order = order
        self.index = 0
        shifts = (max_bits - 1 - np.arange(max_bits)).astype(np.uint64)
        directions = np.zeros((dimension, max_bits), dtype=np.uint64)
        directions[0] = np.uint64(1) << shifts
        if init == "recurrence" and dimension > 1:
            polys = gf2.first_primitive_polynomials(dimension - 1)
        for dim in range(1, dimension):
            rng = np.random.default_rng([seed, dim])
            if init == "random":
                m = _scalar_integers(rng, max_bits)
            else:
                m = self._recurrence(polys[dim - 1], rng)
            directions[dim] = m << shifts
        self.directions = directions
        if digital_shift:
            shift_rng = np.random.default_rng([seed, 0xD157A1])
            self.shift = shift_rng.integers(
                0, 1 << max_bits, size=dimension, dtype=np.uint64
            )
        else:
            self.shift = np.zeros(dimension, dtype=np.uint64)

    def _recurrence(self, poly, rng):
        d = gf2.degree(poly)
        m = np.zeros(self.max_bits, dtype=np.uint64)
        m[: min(d, self.max_bits)] = _scalar_integers(rng, min(d, self.max_bits))
        for i in range(d, self.max_bits):
            value = int(m[i - d]) ^ (int(m[i - d]) << d)
            for k in range(1, d):
                if (poly >> (d - k)) & 1:
                    value ^= int(m[i - k]) << k
            m[i] = np.uint64(value & ((1 << self.max_bits) - 1))
        return m

    def integers(self, n):
        if n == 0:
            return np.empty((0, self.dimension), dtype=np.uint64)
        ks = np.arange(self.index, self.index + n, dtype=np.uint64)
        codes = ks if self.order == "natural" else ks ^ (ks >> np.uint64(1))
        points = np.broadcast_to(self.shift, (n, self.dimension)).copy()
        top_bit = int(codes.max()).bit_length()
        for bit in range(min(self.max_bits, top_bit)):
            selected = ((codes >> np.uint64(bit)) & np.uint64(1)).astype(bool)
            if selected.any():
                points[selected] ^= self.directions[:, bit]
        self.index += n
        return points


@st.composite
def engine_settings(draw):
    return {
        "dimension": draw(st.integers(1, 300)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "max_bits": draw(st.integers(1, 62)),
        "init": draw(st.sampled_from(["random", "recurrence"])),
        "order": draw(st.sampled_from(["natural", "gray"])),
        "digital_shift": draw(st.booleans()),
    }


@given(
    kwargs=engine_settings(),
    skip=st.one_of(st.integers(0, 5000), st.integers(0, 2**48)),
    chunks=st.lists(st.integers(0, 700), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_scalar_oracle(kwargs, skip, chunks):
    engine = SobolEngine(**kwargs).fast_forward(skip)
    oracle = ScalarSobol(**kwargs)
    oracle.index = skip
    np.testing.assert_array_equal(engine._directions, oracle.directions)
    for n in chunks:
        np.testing.assert_array_equal(engine.integers(n), oracle.integers(n))
    assert engine.index == oracle.index


@given(kwargs=engine_settings(), n=st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_random_matches_scalar_oracle(kwargs, n):
    scale = float(1 << kwargs["max_bits"])
    expected = ScalarSobol(**kwargs).integers(n).astype(np.float64) / scale
    np.testing.assert_array_equal(SobolEngine(**kwargs).random(n), expected)
