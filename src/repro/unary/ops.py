"""Unary-domain algebra: single-gate arithmetic on aligned streams.

Aligned unary streams are maximally correlated, so bit-wise logic computes
order statistics: AND is the minimum, OR is the maximum.  These identities
(from the unary-processing literature the paper builds on, e.g. the
low-cost sorting networks of Najafi et al.) are what reduce the uHD
comparator to a handful of gates.
"""

from __future__ import annotations

from .bitstream import UnaryBitstream

__all__ = ["unary_min", "unary_max"]


def unary_min(a: UnaryBitstream, b: UnaryBitstream) -> UnaryBitstream:
    """Minimum of two streams — one AND gate per bit."""
    return a & b


def unary_max(a: UnaryBitstream, b: UnaryBitstream) -> UnaryBitstream:
    """Maximum of two streams — one OR gate per bit."""
    return a | b
