"""Baseline hyperdimensional-computing substrate (paper Section II, Fig. 1).

This package is the *baseline* the paper compares uHD against, plus the
centroid classifier both models train and infer with.  It is not a
general HDC toolkit (no cleanup memory, n-gram or tabular encoders).

Public surface:

* :mod:`repro.hdc.ops` — bind / bundle / binarize on bipolar
  hypervectors, and the bit-domain views.
* :mod:`repro.hdc.similarity` — cosine similarity and winner-take-all.
* :class:`RandomItemMemory` / :class:`LevelItemMemory` — codebooks.
* :class:`RecordEncoder` — the position-times-level record encoder.
* :class:`CentroidClassifier` — single-pass training + cosine inference.
* :class:`BaselineHDC` — the complete baseline image classifier.
* :class:`LFSR` — the baseline's hardware RNG model.
"""

from .baseline import BaselineConfig, BaselineHDC
from .classifier import CentroidClassifier
from .encoding import RecordEncoder, quantize_levels
from .item_memory import LevelItemMemory, RandomItemMemory
from .lfsr import LFSR, MAXIMAL_TAPS
from .ops import (
    binarize,
    bind,
    bundle,
    ensure_bipolar,
    from_bits,
    random_hypervectors,
    to_bits,
)
from .similarity import classify, cosine_similarity

__all__ = [
    "BaselineConfig",
    "BaselineHDC",
    "CentroidClassifier",
    "RecordEncoder",
    "quantize_levels",
    "RandomItemMemory",
    "LevelItemMemory",
    "LFSR",
    "MAXIMAL_TAPS",
    "bind",
    "bundle",
    "binarize",
    "ensure_bipolar",
    "random_hypervectors",
    "to_bits",
    "from_bits",
    "cosine_similarity",
    "classify",
]
