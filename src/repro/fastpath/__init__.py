"""Bit-packed fast path for uHD: packed hypervectors, LUT encoding, popcount inference.

Why this exists
---------------
uHD's whole pitch (paper contributions ②–⑤) is that ξ-level quantization
collapses HDC encoding into trivial bitwise logic.  The reference software
path gives that advantage back by materializing a ``(batch, H, D)`` boolean
comparison tensor.  This package keeps the arithmetic *results* bit-exact
while doing the work on ``uint64`` words — the software mirror of the
paper's hardware-substitution claim.

The bit-plane identity
----------------------
With intensities and Sobol scalars quantized to codes in ``[0, ξ)``, the
per-dimension popcount of the reference encoder factors over levels:

``counts[j] = Σ_t popcount( pixels_with_code_t  AND  pixels_where_sobol_code[:, j] <= t )``

because ``[v_p >= s_pj] = Σ_t [v_p == t] · [s_pj <= t]``.  Every operand on
the right is known at construction (ξ packed bit-planes of the Sobol codes)
or derivable from the image in ξ cheap packs — no per-pixel/per-dimension
comparison survives to encode time.

Design choice (measured; H=784 / D=1024 / ξ=16)
-----------------------------------------------
Three bit-exact NumPy designs were first benched against the reference
encoder (single core, batch 32):

* ξ bit-planes + ``AND`` + ``bitwise_count`` (the identity verbatim):
  ~1.2× — the plane set holds ξ·ceil(H/64) words per dimension, only a 4×
  compression over the byte tensor, and needs three passes over it.
* per-(pixel, level) packed-row LUT gather + carry-save-adder vertical
  popcount: ~6.8× — gather traffic is minimal but the CSA tree re-reads
  its rows ~12× in ufunc-sized passes.
* per-(pixel, level) **nibble-spread** LUT gather + SWAR lane adds:
  **~10–12×** — rows pre-widened to 4-bit lanes so 15 rows fold with
  plain integer adds, then mask streams widen lanes to uint16.

A 51 MB pixel-pair table later halved NumPy's gather count for ~1.4×
more.  It is gone: a small C kernel (:mod:`repro.fastpath.kernel`) on
the single 6.4 MB nibble-spread table beat it ~4× on sparse MNIST.  The
kernel reads a **delta** table ``lut[p, v] − lut[p, 0]`` plus a
per-dimension ``base = Σ_p [code_pj == 0]``, so a level-0 pixel (80% of
synthetic MNIST) adds nothing and is skipped, and it runs with the GIL
released.

The carry-save design then came back, in C.  In NumPy it lost to the
nibble layout because every ufunc pass re-read the rows; in C the
counter planes stay in registers, so the trade-off reverses: the kernel
now reads the **packed** delta table (1.6 MB at H=784, D=1024, a quarter
of the nibble-spread one, and within a core's L2), ripples 15 rows at a
time into a 4-plane counter and adds that into ``H.bit_length()``
bit-planes per dimension.  On a 2-vCPU x86-64 (AVX-512) host, one
thread, its fused predict went ~5.4 → ~2.0 µs per sparse MNIST image and
~16 → ~5.5 µs per dense one.  Where the kernel cannot load (it is
compiled once per user with ``cffi``), the NumPy nibble-spread path runs,
on a spread table derived from the packed one only then
(:attr:`PackedLevelEncoder.kernel` says which).  Neither is a setting.

So the shipped encoder is the LUT-gather alternative the issue allows,
with the identity above retained as documentation of *why* a gather-only
encoder can be bit-exact.  Inference (:mod:`repro.fastpath.inference`)
uses the packed primitives directly: XOR + popcount over packed class HVs.
A binarized ``UHDClassifier.predict`` on the packed encoder goes further:
:meth:`PackedLevelEncoder.predict_packed` hands uint8 pixels to the
kernel's fused entry point, which thresholds, packs and searches in the
accumulation pass and returns labels, bit-exact with
``packed_predict(encode_batch(x), ...)`` (its oracle and NumPy fallback).

When ``auto`` picks packed
--------------------------
``UHDConfig(backend="auto")`` resolves per component (see the
:mod:`repro.api.registry` backend table): encoding goes packed when
``quantized=True`` and ``H <= PackedLevelEncoder.MAX_PIXELS``; inference
goes packed when ``binarize=True`` (the centered-cosine default policy has
no packed form).  ``backend="packed"`` forces and raises where impossible;
``backend="reference"`` always runs the original path.  The packed encoder
runs each call on its caller's thread and starts none of its own.  One
encoder may be shared by many threads: kernel calls take no lock, and
the encoder locks only its cold-table build and the NumPy path.  The
table is never stored or shipped: every process builds its own (~5 ms
at H=784, D=1024), the software form of uHD's generate-on-the-fly
hypervectors.  Packed popcounts use :func:`numpy.bitwise_count` when
NumPy >= 2.0 and fall back to a byte LUT otherwise
(``repro.fastpath.bitops.HAS_BITWISE_COUNT``).
"""

from .bitops import (
    HAS_BITWISE_COUNT,
    pack_bipolar,
    pack_bits,
    packed_dot,
    packed_hamming,
    popcount,
    unpack_bipolar,
    unpack_bits,
)
from .encoder import PackedLevelEncoder
from .inference import (
    pack_accumulators,
    packed_cosine,
    packed_dot_similarity,
    packed_predict,
)

__all__ = [
    "HAS_BITWISE_COUNT",
    "PackedLevelEncoder",
    "pack_accumulators",
    "pack_bipolar",
    "pack_bits",
    "packed_cosine",
    "packed_dot",
    "packed_dot_similarity",
    "packed_hamming",
    "packed_predict",
    "popcount",
    "unpack_bipolar",
    "unpack_bits",
]
