"""From-scratch Sobol low-discrepancy sequence generator.

uHD (Fig. 2 of the paper) assigns one Sobol *dimension* to every pixel
position: pixel ``p`` is encoded by comparing its normalized intensity
against the ``D`` quasi-random scalars of dimension ``p``.  The positional
information therefore lives in the Sobol *index*, which is what lets the
paper drop position hypervectors entirely.

Construction
------------
Each dimension is a base-2 digital sequence ``x(k) = XOR of v_i over the
set bits i of k`` with direction numbers ``v_i = m_i * 2^(max_bits - i)``,
``m_i`` odd and ``< 2^i``.  That constraint makes the generator matrix
upper triangular with a unit diagonal, so **every** dimension is a
(0, 1)-sequence in base 2: the first ``2^k`` points visit each dyadic
interval of length ``2^-k`` exactly once.  This per-dimension
equidistribution (not any particular direction-number table) is the
property uHD's encoding relies on, and it is what the tests assert.

Two initialisation policies are provided:

``init="random"`` (default)
    All ``m_i`` are seeded-random odd integers.  Per-dimension quality is
    identical to classic Sobol; cross-dimension correlation is far lower
    than naive table-free recurrences because dimensions share no leading
    direction-integer prefix.  This plays the role Joe-Kuo tuning plays in
    MATLAB's ``sobolset`` (see DESIGN.md, substitutions).

``init="recurrence"``
    The textbook construction: dimension ``j >= 1`` takes the ``j``-th
    primitive polynomial over GF(2) (enumerated from scratch by
    :mod:`repro.lds.gf2`), free odd integers up to the polynomial degree,
    and the classic recurrence ``m_i = 2 a_1 m_{i-1} XOR 4 a_2 m_{i-2}
    XOR ... XOR 2^d m_{i-d} XOR m_{i-d}`` beyond it.  Kept for the
    LD-family ablation; with so few low-degree polynomials, untuned
    recurrence dimensions can share long prefixes and correlate.

Points are produced in natural order by default, so dimension 0 starts
``0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, ...`` exactly as listed in Fig. 2 of
the paper (Antonov-Saleev Gray-code order is also available).

The stream
----------
The codebook is never stored (ARCHITECTURE contract 4), so this stream
is part of every saved model.  Dimension ``d >= 1`` draws its direction
integers from ``np.random.default_rng([seed, d])`` in one call,
``m = 2 * rng.integers(0, 2 ** np.arange(max_bits)) + 1`` (the
recurrence policy draws only its first ``degree`` this way), which
equals ``max_bits`` sequential scalar draws ``rng.integers(0, 1 << i)``.
Row ``d`` therefore depends only on ``(seed, d)``.  Points are the XOR
of the direction numbers selected by their index bits, built by dyadic
doubling (:meth:`SobolEngine.integers`).
Golden digests of the directions, points and quantized codes are pinned
by ``tests/lds/test_codebook_pin.py``, and
``tests/lds/test_sobol_equivalence.py`` checks the engine against the
scalar-draw, bit-loop construction from any start.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

from . import gf2

__all__ = ["SobolEngine", "sobol_sequences", "clear_sobol_cache"]

_DEFAULT_SEED = 2024
_INIT_POLICIES = ("random", "recurrence")
_ORDERS = ("natural", "gray")

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


class _SharedSequenceTable(np.ndarray):
    """Read-only view onto a cached Sobol table with a helpful mutation error.

    The memo in :func:`sobol_sequences` hands the *same* array to every
    encoder built for a config, so in-place writes would corrupt every
    other consumer.  Plain read-only NumPy arrays already refuse writes,
    but with a generic message; this subclass points the caller at the
    fix.  In-place ufuncs (``table *= 2``) still surface NumPy's own
    read-only error — the flag protects the memory either way.
    """

    def __setitem__(self, key, value):
        if not self.flags.writeable:
            raise ValueError(
                "sobol_sequences() returned a shared read-only table "
                "(memoized across encoders); pass copy=True for a private "
                "writable copy before mutating"
            )
        super().__setitem__(key, value)


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
        value = value.view(_SharedSequenceTable)
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


def _recurrence_direction_integers(
    poly: int, rng: np.random.Generator, max_bits: int
) -> np.ndarray:
    """Classic polynomial-recurrence ``m_i`` (init="recurrence")."""
    d = gf2.degree(poly)
    m = np.zeros(max_bits, dtype=np.uint64)
    m[: min(d, max_bits)] = _direction_integers(rng, min(d, max_bits))
    for i in range(d, max_bits):
        value = int(m[i - d]) ^ (int(m[i - d]) << d)
        for k in range(1, d):
            if (poly >> (d - k)) & 1:
                value ^= int(m[i - k]) << k
        m[i] = np.uint64(value & ((1 << max_bits) - 1))
    return m


def _dyadic_blocks(start: int, n: int):
    """Split ``[start, start + n)`` into aligned blocks ``(first, 2^j)``.

    Each block starts at a multiple of its power-of-two size, so the
    indices inside it differ from ``first`` only in their low ``j`` bits.
    """
    pos, end = start, start + n
    while pos < end:
        size = 1 << ((end - pos).bit_length() - 1)
        if pos:
            size = min(size, pos & -pos)
        yield pos, size
        pos += size


class SobolEngine:
    """Stateful multi-dimensional Sobol point generator.

    Parameters
    ----------
    dimension:
        Number of Sobol dimensions (for uHD: the pixel count ``H = m x n``).
    seed:
        Seed for the direction integers.  Two engines with the same
        ``(dimension, seed, max_bits, init)`` produce identical streams.
    max_bits:
        Fixed-point resolution of each coordinate.  ``2^max_bits`` is the
        period of each dimension; 32 bits is far beyond any ``D`` used here.
    init:
        Direction-integer policy, ``"random"`` or ``"recurrence"`` (see
        module docstring).
    order:
        ``"natural"`` (paper/MATLAB listing) or ``"gray"`` (Antonov-Saleev).
        Both orders cover the same point set on every ``2^k`` prefix.
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
        max_bits: int = 32,
        init: str = "random",
        order: str = "natural",
        digital_shift: bool = False,
    ) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if not 1 <= max_bits <= 62:
            raise ValueError(f"max_bits must be in [1, 62], got {max_bits}")
        if init not in _INIT_POLICIES:
            raise ValueError(f"init must be one of {_INIT_POLICIES}, got {init!r}")
        if order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
        self.dimension = dimension
        self.seed = seed
        self.max_bits = max_bits
        self.init = init
        self.order = order
        self._index = 0
        self._directions = self._build_direction_matrix()
        if digital_shift:
            shift_rng = np.random.default_rng([seed, 0xD157A1])
            self._shift = shift_rng.integers(
                0, 1 << max_bits, size=dimension, dtype=np.uint64
            )
        else:
            self._shift = np.zeros(dimension, dtype=np.uint64)

    def _build_direction_matrix(self) -> np.ndarray:
        """Direction *numbers* ``v_i = m_i << (max_bits - i)``, shape (dim, max_bits)."""
        # Dimension 0 is always plain van der Corput (all m_i = 1), matching
        # the sequence listed in Fig. 2 of the paper.
        m = np.ones((self.dimension, self.max_bits), dtype=np.uint64)
        if self.init == "recurrence" and self.dimension > 1:
            polys = gf2.first_primitive_polynomials(self.dimension - 1)
        for dim in range(1, self.dimension):
            rng = np.random.default_rng([self.seed, dim])
            if self.init == "random":
                m[dim] = _direction_integers(rng, self.max_bits)
            else:
                m[dim] = _recurrence_direction_integers(
                    polys[dim - 1], rng, self.max_bits
                )
        shifts = (self.max_bits - 1 - np.arange(self.max_bits)).astype(np.uint64)
        return m << shifts

    # ------------------------------------------------------------------
    # Point generation
    # ------------------------------------------------------------------
    def _point(self, code: int) -> np.ndarray:
        """Shifted XOR of the direction numbers selected by ``code``'s bits."""
        bits = [
            b for b in range(min(self.max_bits, code.bit_length())) if code >> b & 1
        ]
        return self._shift ^ np.bitwise_xor.reduce(
            self._directions[:, bits], axis=1, initial=0
        )

    def integers(self, n: int) -> np.ndarray:
        """Next ``n`` points as fixed-point uint64 in ``[0, 2^max_bits)``.

        Shape ``(n, dimension)``.  Point ``k`` is the XOR of the direction
        numbers selected by the bits of ``k`` (natural order) or of
        ``gray(k)``, bits at or above ``max_bits`` ignored.  The range is
        split into aligned dyadic blocks; each block's first point is
        computed directly and the rest by doubling: the points ``2^b``
        further on are the first ``2^b`` XOR ``v_b`` (natural order), or
        those same points reflected (Gray order, since
        ``gray(2^b + i) = 2^b XOR gray(2^b - 1 - i)``).
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        points = np.empty((n, self.dimension), dtype=np.uint64)
        zero = np.zeros(self.dimension, dtype=np.uint64)
        gray = self.order == "gray"
        for first, size in _dyadic_blocks(self._index, n):
            block = points[first - self._index : first - self._index + size]
            block[0] = self._point(first ^ (first >> 1) if gray else first)
            half, bit = 1, 0
            while half < size:
                v = self._directions[:, bit] if bit < self.max_bits else zero
                low = block[half - 1 :: -1] if gray else block[:half]
                np.bitwise_xor(low, v, out=block[half : 2 * half])
                half, bit = 2 * half, bit + 1
        self._index += n
        return points

    def random(self, n: int) -> np.ndarray:
        """Next ``n`` points as float64 in ``[0, 1)``, shape ``(n, dimension)``."""
        scale = float(1 << self.max_bits)
        return self.integers(n).astype(np.float64) / scale

    def reset(self) -> "SobolEngine":
        """Rewind to the first point; direction numbers are unchanged."""
        self._index = 0
        return self

    def fast_forward(self, n: int) -> "SobolEngine":
        """Skip the next ``n`` points without materialising them."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._index += n
        return self

    @property
    def index(self) -> int:
        """Zero-based index of the next point to be generated."""
        return self._index


def sobol_sequences(
    n_dims: int,
    length: int,
    seed: int = _DEFAULT_SEED,
    dtype: Optional[np.dtype] = None,
    init: str = "random",
    digital_shift: bool = False,
    copy: bool = False,
) -> np.ndarray:
    """Sobol scalars arranged per dimension: shape ``(n_dims, length)``.

    Row ``p`` holds the ``length`` quasi-random scalars ``S_p`` that uHD
    compares against pixel ``p``'s intensity (Fig. 2).  ``dtype`` defaults
    to float64; pass ``np.float32`` to halve memory for large ``D``.

    Results are memoized on ``(n_dims, length, seed, dtype, init,
    digital_shift)``: constructing several encoders for the same config
    generates the table once.  The returned array is therefore **shared
    and read-only** — attempting ``table[i] = ...`` raises a ValueError
    pointing back here.  Pass ``copy=True`` for a private writable copy
    (the cache stays intact; a mutated copy never leaks to other
    consumers).
    """
    master_key = (n_dims, length, seed, init, digital_shift)

    def generate() -> np.ndarray:
        engine = SobolEngine(n_dims, seed=seed, init=init, digital_shift=digital_shift)
        return np.ascontiguousarray(engine.random(length).T)

    with _SEQUENCE_LOCK:
        result = master = _memoized(master_key, generate)
        if dtype is not None and np.dtype(dtype) != master.dtype:
            cast_key = master_key + (np.dtype(dtype).str,)
            result = _memoized(cast_key, lambda: master.astype(dtype))
    if copy:
        return np.array(result)  # private, writable, detached from the cache
    return result
