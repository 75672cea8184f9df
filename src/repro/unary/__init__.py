"""Unary bit-stream computing substrate (paper contributions ③④).

Public surface:

* :class:`UnaryBitstream` — validated thermometer codes.
* :class:`CounterComparatorGenerator` — conventional stream generation
  (Fig. 3(b), the baseline of checkpoint ➊).
* :class:`UnaryStreamTable` — the proposed associative fetch (Fig. 3(c)).
* :func:`unary_ge` / :func:`unary_ge_batch` — the proposed comparator
  (Fig. 4, checkpoint ➋).
* :func:`unary_min` / :func:`unary_max` — the AND=min / OR=max identity
  the comparator rests on.
* :mod:`repro.unary.correlation` — SCC metrics.
"""

from .bitstream import Alignment, UnaryBitstream
from .comparator import (
    compare_values_via_unary,
    unary_ge,
    unary_ge_batch,
    unary_ge_bits,
)
from .correlation import is_maximally_correlated, overlap, scc
from .generator import CounterComparatorGenerator
from .ops import unary_max, unary_min
from .ust import UnaryStreamTable

__all__ = [
    "UnaryBitstream",
    "Alignment",
    "CounterComparatorGenerator",
    "UnaryStreamTable",
    "unary_ge",
    "unary_ge_bits",
    "unary_ge_batch",
    "compare_values_via_unary",
    "unary_min",
    "unary_max",
    "scc",
    "overlap",
    "is_maximally_correlated",
]
