"""Low-discrepancy sequence substrate (paper contribution ①).

Public surface:

* :class:`SobolEngine` / :func:`sobol_sequences` — from-scratch,
  unscrambled Sobol generator (one dimension per pixel position in
  uHD) with one fixed stream: the first points, 32-bit, natural order,
  seeded-random direction integers.  That stream is the codebook of
  every saved model.
* :func:`halton_sequences`, :func:`van_der_corput` — alternative LD
  families for ablations.
* :func:`quantize_unit` / :func:`quantize_intensity` — the M-bit
  quantization of Fig. 3(a).
* :mod:`repro.lds.discrepancy` — uniformity diagnostics.
"""

from . import discrepancy
from .halton import first_primes, halton_sequences
from .quantize import bits_for_levels, dequantize, quantize_intensity, quantize_unit
from .sobol import SobolEngine, sobol_sequences
from .vandercorput import radical_inverse, van_der_corput

__all__ = [
    "SobolEngine",
    "sobol_sequences",
    "halton_sequences",
    "first_primes",
    "van_der_corput",
    "radical_inverse",
    "quantize_unit",
    "quantize_intensity",
    "dequantize",
    "bits_for_levels",
    "discrepancy",
]
