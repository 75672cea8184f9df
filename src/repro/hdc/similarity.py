"""Cosine similarity and the winner-take-all classification rule.

The paper classifies by the highest cosine similarity between a test
hypervector and the trained class hypervectors.  On binarized +-1
vectors that ranking equals the Hamming ranking, which the packed
backend computes by XOR + popcount (:mod:`repro.fastpath.inference`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["cosine_similarity", "classify"]


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[None, :]
    if x.ndim != 2:
        raise ValueError("expected a vector or a matrix of hypervectors")
    return x


def cosine_similarity(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Cosine similarity matrix, shape ``(n_queries, n_references)``.

    Zero vectors are treated as orthogonal to everything (similarity 0)
    rather than raising, since an all-zero accumulator is a legal edge case
    of bundling an empty class.
    """
    q = _as_matrix(queries).astype(np.float64)
    r = _as_matrix(references).astype(np.float64)
    if q.shape[1] != r.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries D={q.shape[1]}, references D={r.shape[1]}"
        )
    q_norm = np.linalg.norm(q, axis=1, keepdims=True)
    r_norm = np.linalg.norm(r, axis=1, keepdims=True)
    q_norm[q_norm == 0.0] = 1.0
    r_norm[r_norm == 0.0] = 1.0
    return (q / q_norm) @ (r / r_norm).T


def classify(similarities: np.ndarray) -> np.ndarray:
    """Winner-take-all over the reference axis of a similarity matrix."""
    similarities = np.asarray(similarities)
    if similarities.ndim != 2:
        raise ValueError("expected a (n_queries, n_references) matrix")
    return similarities.argmax(axis=1)
