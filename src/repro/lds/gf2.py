"""Polynomial arithmetic over GF(2) and primitive-polynomial enumeration.

The Sobol construction (:mod:`repro.lds.sobol`) needs one primitive
polynomial over GF(2) per dimension.  The classic implementations ship a
pre-tabulated list (Joe-Kuo); this module instead *derives* the polynomials
from first principles so the whole low-discrepancy substrate is
self-contained and testable.

Representation
--------------
A polynomial ``a_d x^d + ... + a_1 x + a_0`` with ``a_i in {0, 1}`` is stored
as the Python integer whose bit ``i`` equals ``a_i``.  For example
``x^3 + x + 1`` is ``0b1011 == 11``.  Python integers are arbitrary
precision, so no degree limit applies.

Primitivity
-----------
A degree-``d`` polynomial ``p`` is *primitive* when it is irreducible and the
residue class of ``x`` generates the full multiplicative group of
``GF(2^d) = GF(2)[x]/p``, i.e. the order of ``x`` is exactly ``2^d - 1``.
``is_primitive`` checks this directly:

* ``x^(2^d - 1) == 1 (mod p)`` and
* ``x^((2^d - 1)/q) != 1 (mod p)`` for every prime ``q`` dividing
  ``2^d - 1``.
"""

from __future__ import annotations

import threading
from typing import Iterator, List

__all__ = [
    "degree",
    "mul",
    "mod",
    "divmod_poly",
    "gcd",
    "pow_mod",
    "is_irreducible",
    "is_primitive",
    "primitive_polynomials",
    "first_primitive_polynomials",
    "prime_factors",
]


def degree(poly: int) -> int:
    """Degree of ``poly``; the zero polynomial has degree ``-1`` by convention."""
    return poly.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def divmod_poly(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of GF(2) polynomial division ``a / b``."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = degree(b)
    quotient = 0
    remainder = a
    while degree(remainder) >= deg_b:
        shift = degree(remainder) - deg_b
        quotient ^= 1 << shift
        remainder ^= b << shift
    return quotient, remainder


def mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial division ``a mod b``."""
    return divmod_poly(a, b)[1]


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while b:
        a, b = b, mod(a, b)
    return a


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` over GF(2), by square-and-multiply."""
    result = 1
    base = mod(base, modulus)
    while exponent:
        if exponent & 1:
            result = mod(mul(result, base), modulus)
        base = mod(mul(base, base), modulus)
        exponent >>= 1
    return result


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of ``n`` by trial division (``n`` fits our degrees)."""
    if n < 2:
        return []
    factors = []
    candidate = 2
    while candidate * candidate <= n:
        if n % candidate == 0:
            factors.append(candidate)
            while n % candidate == 0:
                n //= candidate
        candidate += 1 if candidate == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial.

    ``poly`` of degree ``d`` is irreducible iff ``x^(2^d) == x (mod poly)``
    and ``gcd(x^(2^(d/q)) - x, poly) == 1`` for every prime ``q | d``.
    """
    d = degree(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    x = 0b10
    for q in prime_factors(d):
        power = pow_mod(x, 1 << (d // q), poly)
        if gcd(power ^ x, poly) != 1:
            return False
    return pow_mod(x, 1 << d, poly) == x


def is_primitive(poly: int) -> bool:
    """True when ``poly`` is primitive over GF(2) (see module docstring)."""
    d = degree(poly)
    if d <= 0:
        return False
    if d == 1:
        # x and x + 1; only x + 1 (0b11) has non-zero constant term and
        # generates GF(2)* = {1}, so both tests below reduce to triviality.
        return poly == 0b11
    if not is_irreducible(poly):
        return False
    group_order = (1 << d) - 1
    x = 0b10
    if pow_mod(x, group_order, poly) != 1:
        return False
    for q in prime_factors(group_order):
        if pow_mod(x, group_order // q, poly) == 1:
            return False
    return True


def primitive_polynomials(deg: int) -> Iterator[int]:
    """Yield every primitive polynomial of exactly degree ``deg``, ascending."""
    if deg < 1:
        return
    lo = 1 << deg
    hi = 1 << (deg + 1)
    # Constant term must be 1 for the polynomial to be primitive (deg >= 1),
    # so step over odd encodings only.
    for candidate in range(lo | 1, hi, 2):
        if is_primitive(candidate):
            yield candidate


#: memo of :func:`first_primitive_polynomials`: every primitive polynomial
#: below ``_memo_next``, ascending.  Degree-then-value order is plain
#: integer order, so the memo is one prefix grown on demand.
_memo: List[int] = []
_memo_next = 0b11
_MEMO_LOCK = threading.Lock()


def first_primitive_polynomials(count: int) -> List[int]:
    """The first ``count`` primitive polynomials ordered by degree then value.

    This is the ordering the Sobol engine uses to assign one polynomial per
    dimension (dimension 0 uses no polynomial; dimension ``j >= 1`` uses entry
    ``j - 1`` of this list).  Memoized process-wide: a later call tests
    only candidates no earlier call reached, and each call returns a fresh
    list.
    """
    global _memo_next
    if count < 0:
        raise ValueError("count must be non-negative")
    with _MEMO_LOCK:
        while len(_memo) < count:
            if is_primitive(_memo_next):
                _memo.append(_memo_next)
            # a primitive polynomial has a constant term: odd encodings only
            _memo_next += 2
        return _memo[:count]
