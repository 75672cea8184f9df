"""Packed binarized inference: class HVs and queries as words, XOR + popcount.

Under the paper's binarized policy both sides of the similarity are +-1
vectors of equal norm ``sqrt(D)``, so cosine ranking reduces to the integer
dot product ``D - 2 * hamming`` — computable entirely on packed words with
the same ties-to-+1 binarization as the reference.  Predictions are
identical to the reference ``binarize=True`` path, which ranks by the
same integer dot with ties to the lowest class index.  The similarity
*values* returned here are ``dot / D``, equal to the reference cosine up
to one float ulp.
"""

from __future__ import annotations

import numpy as np

from .bitops import pack_bits, packed_dot

__all__ = [
    "pack_accumulators",
    "packed_dot_similarity",
    "packed_cosine",
    "packed_predict",
]


def pack_accumulators(accumulators: np.ndarray) -> np.ndarray:
    """Sign-binarize integer accumulators (ties -> +1) and pack to words.

    ``binarize`` maps ``acc >= 0`` to +1, which is exactly the packed bit,
    so the +-1 ``int8`` intermediate is skipped entirely.
    """
    return pack_bits(np.atleast_2d(np.asarray(accumulators)) >= 0)


def packed_dot_similarity(
    query_words: np.ndarray, class_words: np.ndarray, dim: int
) -> np.ndarray:
    """Integer +-1 dot products between packed queries and class HVs."""
    return packed_dot(query_words, class_words, dim)


def packed_cosine(
    query_words: np.ndarray, class_words: np.ndarray, dim: int
) -> np.ndarray:
    """Cosine similarities of binarized vectors (``dot / D``), float64."""
    return packed_dot(query_words, class_words, dim) / float(dim)


def packed_predict(
    queries: np.ndarray, class_words: np.ndarray, dim: int
) -> np.ndarray:
    """Winner-take-all labels for integer accumulator queries.

    ``queries`` are raw (non-binarized) encoded vectors; they are
    binarized and packed here so callers hand over exactly what they would
    hand the reference classifier.
    """
    query_words = pack_accumulators(queries)
    dots = packed_dot_similarity(query_words, class_words, dim)
    return dots.argmax(axis=1)
