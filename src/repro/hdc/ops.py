"""Core algebra on bipolar hypervectors.

Hypervectors are ``numpy.int8`` arrays of +1/-1 of dimension ``D`` (the
paper's logic-1/logic-0 in the bit domain).  The three HDC primitives:

* **binding** — element-wise multiplication (bit-wise XOR in 0/1 encoding);
  associates two hypervectors into one dissimilar to both.
* **bundling** — element-wise integer accumulation (popcount in hardware);
  superposes many hypervectors into one similar to each.
* **binarization** — the sign function applied to an accumulator, with the
  paper's tie rule: a popcount exactly at the threshold sets the sign bit,
  so ties map to +1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ensure_bipolar",
    "random_hypervectors",
    "bind",
    "bundle",
    "binarize",
    "to_bits",
    "from_bits",
]


def ensure_bipolar(hv: np.ndarray) -> np.ndarray:
    """Validate that ``hv`` contains only +1/-1; returns it as int8."""
    hv = np.asarray(hv)
    if hv.size and not np.isin(hv, (-1, 1)).all():
        raise ValueError("hypervector entries must be +1 or -1")
    return hv.astype(np.int8, copy=False)


def random_hypervectors(
    count: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` iid Rademacher hypervectors, shape ``(count, dim)`` int8.

    This is the software model of the baseline's comparator-based generator:
    uniform randoms compared against the unbiased threshold t = 0.5.
    """
    if count < 0 or dim <= 0:
        raise ValueError("count must be >= 0 and dim must be > 0")
    uniforms = rng.random((count, dim))
    return np.where(uniforms < 0.5, 1, -1).astype(np.int8)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise multiply (XOR binding).  Self-inverse: bind(a, a) = 1s."""
    a = ensure_bipolar(a)
    b = ensure_bipolar(b)
    return (a * b).astype(np.int8)


def bundle(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """Integer accumulation of hypervectors along ``axis`` (no binarization)."""
    stack = np.asarray(stack)
    return stack.sum(axis=axis, dtype=np.int64)


def binarize(accumulator: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Sign of an accumulator with the paper's tie rule (ties -> +1).

    ``threshold`` shifts the decision point; the hardware realisation
    compares a popcount against TOB = ceil(H/2), which in the +-1 domain
    is the accumulator reaching zero.
    """
    accumulator = np.asarray(accumulator)
    return np.where(accumulator >= threshold, 1, -1).astype(np.int8)


def to_bits(hv: np.ndarray) -> np.ndarray:
    """Map +1 -> 1, -1 -> 0 (the paper's logic-level view)."""
    hv = ensure_bipolar(hv)
    return (hv > 0).astype(np.uint8)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """Map 1 -> +1, 0 -> -1 (inverse of :func:`to_bits`)."""
    bits = np.asarray(bits)
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be 0/1")
    return np.where(bits > 0, 1, -1).astype(np.int8)
