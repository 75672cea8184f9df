"""From-scratch Sobol low-discrepancy sequence generator.

uHD (Fig. 2 of the paper) assigns one Sobol *dimension* to every pixel
position: pixel ``p`` is encoded by comparing its normalized intensity
against the ``D`` quasi-random scalars of dimension ``p``.  The positional
information therefore lives in the Sobol *index*, which is what lets the
paper drop position hypervectors entirely.

Construction
------------
Each dimension is a base-2 digital sequence ``x(k) = XOR of v_i over the
set bits i of k`` with 32-bit direction numbers ``v_i = m_i * 2^(31 - i)``,
``m_i`` odd and ``< 2^(i + 1)``.  That constraint makes the generator
matrix upper triangular with a unit diagonal, so **every** dimension is a
(0, 1)-sequence in base 2: the first ``2^k`` points visit each dyadic
interval of length ``2^-k`` exactly once.  This per-dimension
equidistribution (not any particular direction-number table) is the
property uHD's encoding relies on, and it is what the tests assert.

All ``m_i`` are seeded-random odd integers.  Per-dimension quality is
identical to classic Sobol; cross-dimension correlation is far lower than
naive table-free recurrences because dimensions share no leading
direction-integer prefix.  This plays the role Joe-Kuo tuning plays in
MATLAB's ``sobolset``.  Dimension 0 is plain van der Corput (all
``m_i = 1``), so it starts ``0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, ...``
exactly as listed in Fig. 2 of the paper.

The stream
----------
The codebook is never stored (ARCHITECTURE contract 4), so this stream
is part of every saved model, and it is the only one this module makes:
the first ``n`` points in natural order.  Dimension ``d >= 1`` draws its
direction integers from ``np.random.default_rng([seed, d])`` in one call,
``m = 2 * rng.integers(0, 2 ** np.arange(32)) + 1``, which equals 32
sequential scalar draws ``rng.integers(0, 1 << i)``.  Row ``d``
therefore depends only on ``(seed, d)``.  Points are built by dyadic
doubling (:meth:`SobolEngine.integers`).
Golden digests of the directions, points and quantized codes are pinned
by ``tests/lds/test_codebook_pin.py``, and
``tests/lds/test_sobol_equivalence.py`` checks the engine against the
scalar-draw, bit-loop construction.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

__all__ = ["SobolEngine", "sobol_sequences", "clear_sobol_cache"]

_DEFAULT_SEED = 2024
#: fixed-point resolution of every coordinate; ``2^32`` points per period
_BITS = 32

# Keyed memo for sobol_sequences: the arithmetic and unary encoders (and
# now the packed fast path) all regenerate identical tables for the same
# (pixels, dim, seed, shift) tuple, and generation dominates encoder
# construction.  Entries are read-only so shared tables cannot be
# corrupted through one consumer; a small LRU bound keeps dimension sweeps
# (1K/2K/8K x several datasets) from pinning hundreds of MB.  One lock
# covers lookup, generation and eviction, so concurrent callers for a key
# (router deployments booting on their own threads) build it once and the
# rest wait for that table; callers for other keys wait too, which costs
# one generation at most.
_SEQUENCE_CACHE: dict[tuple, np.ndarray] = {}
_SEQUENCE_CACHE_MAX = 8
_SEQUENCE_LOCK = threading.Lock()


def clear_sobol_cache() -> None:
    """Drop all memoized sobol_sequences tables (mainly for tests)."""
    with _SEQUENCE_LOCK:
        _SEQUENCE_CACHE.clear()


def _memoized(key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """The shared read-only table for ``key``; call with the lock held."""
    value = _SEQUENCE_CACHE.pop(key, None)
    if value is None:
        value = np.asarray(build())
        value.setflags(write=False)
    _SEQUENCE_CACHE[key] = value  # newest last: the LRU order
    while len(_SEQUENCE_CACHE) > _SEQUENCE_CACHE_MAX:
        _SEQUENCE_CACHE.pop(next(iter(_SEQUENCE_CACHE)))
    return value


def _direction_integers(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` seeded-random odd ``m_i = 2 * U[0, 2^i) + 1`` in one draw.

    One broadcast ``integers`` call per dimension: element ``i`` consumes
    the stream exactly as the scalar ``rng.integers(0, 1 << i)`` would in
    turn, so the result is that of ``count`` sequential scalar draws.
    """
    highs = np.left_shift(1, np.arange(count, dtype=np.int64))
    return (2 * rng.integers(0, highs) + 1).astype(np.uint64)


class SobolEngine:
    """Multi-dimensional Sobol point generator.

    Parameters
    ----------
    dimension:
        Number of Sobol dimensions (for uHD: the pixel count ``H = m x n``).
    seed:
        Seed for the direction integers.  Two engines with the same
        ``(dimension, seed, digital_shift)`` produce identical points.
    digital_shift:
        When true, every dimension is XOR-shifted by a seeded random
        constant.  A digital shift preserves the (0, 1)-sequence structure
        while decorrelating dimensions further; the paper's plain MATLAB
        ``sobolset`` corresponds to ``digital_shift=False``.
    """

    def __init__(
        self,
        dimension: int,
        seed: int = _DEFAULT_SEED,
        digital_shift: bool = False,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        m = np.ones((dimension, _BITS), dtype=np.uint64)
        for dim in range(1, dimension):
            m[dim] = _direction_integers(np.random.default_rng([seed, dim]), _BITS)
        shifts = (_BITS - 1 - np.arange(_BITS)).astype(np.uint64)
        #: direction numbers ``v_i = m_i << (31 - i)``, shape (dimension, 32)
        self._directions = m << shifts
        if digital_shift:
            shift_rng = np.random.default_rng([seed, 0xD157A1])
            self._shift = shift_rng.integers(
                0, 1 << _BITS, size=dimension, dtype=np.uint64
            )
        else:
            self._shift = np.zeros(dimension, dtype=np.uint64)

    def integers(self, n: int) -> np.ndarray:
        """First ``n`` points as fixed-point uint64 in ``[0, 2^32)``.

        Shape ``(n, dimension)``.  Point ``k`` is the shift XOR the
        direction numbers selected by the bits of ``k``.  Built by
        doubling: the ``2^b`` points after the first ``2^b`` are those
        points XOR ``v_b``.  ``n`` may not exceed the period ``2^32``.
        """
        if not 0 <= n <= 1 << _BITS:
            raise ValueError(f"n must be in [0, 2**{_BITS}], got {n}")
        points = np.empty((n, self.dimension), dtype=np.uint64)
        if n:
            points[0] = self._shift
        half, bit = 1, 0
        while half < n:
            count = min(half, n - half)
            np.bitwise_xor(points[:count], self._directions[:, bit],
                           out=points[half : half + count])
            half, bit = 2 * half, bit + 1
        return points

    def random(self, n: int) -> np.ndarray:
        """First ``n`` points as float64 in ``[0, 1)``, shape ``(n, dimension)``."""
        return self.integers(n).astype(np.float64) / float(1 << _BITS)


def sobol_sequences(
    n_dims: int,
    length: int,
    seed: int = _DEFAULT_SEED,
    dtype: Optional[np.dtype] = None,
    digital_shift: bool = False,
) -> np.ndarray:
    """Sobol scalars arranged per dimension: shape ``(n_dims, length)``.

    Row ``p`` holds the ``length`` quasi-random scalars ``S_p`` that uHD
    compares against pixel ``p``'s intensity (Fig. 2).  ``dtype`` defaults
    to float64; pass ``np.float32`` to halve memory for large ``D``.

    Results are memoized on ``(n_dims, length, seed, dtype,
    digital_shift)``: constructing several encoders for the same config
    generates the table once.  The returned array is therefore **shared
    and read-only**: writing to it raises ``ValueError``; take
    ``np.array(table)`` for a private writable copy.
    """
    master_key = (n_dims, length, seed, digital_shift)

    def generate() -> np.ndarray:
        engine = SobolEngine(n_dims, seed=seed, digital_shift=digital_shift)
        return np.ascontiguousarray(engine.random(length).T)

    with _SEQUENCE_LOCK:
        result = master = _memoized(master_key, generate)
        if dtype is not None and np.dtype(dtype) != master.dtype:
            cast_key = master_key + (np.dtype(dtype).str,)
            result = _memoized(cast_key, lambda: master.astype(dtype))
    return result
