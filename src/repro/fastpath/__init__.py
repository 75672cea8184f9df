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

Design choice (measured, single core, H=784 / D=1024 / ξ=16 / batch 32)
-----------------------------------------------------------------------
Three bit-exact designs were benched against the reference encoder:

* ξ bit-planes + ``AND`` + ``bitwise_count`` (the identity verbatim):
  ~1.2× — the plane set holds ξ·ceil(H/64) words per dimension, only a 4×
  compression over the byte tensor, and needs three passes over it.
* per-(pixel, level) packed-row LUT gather + carry-save-adder vertical
  popcount: ~6.8× — gather traffic is minimal but the CSA tree re-reads
  its rows ~12× in ufunc-sized passes.
* per-(pixel, level) **nibble-spread** LUT gather + SWAR lane adds
  (:class:`PackedLevelEncoder`): **~10–12×** — rows pre-widened to 4-bit
  lanes so 15 (or 7 pixel-pair) rows fold with plain integer adds, then
  four mask streams widen lanes to uint16.  The pair-keyed table (built
  whenever it fits :attr:`PackedLevelEncoder.PAIR_LUT_BUDGET`) halves
  the dominant gather cost.

So the shipped encoder is the LUT-gather alternative the issue allows,
with the identity above retained as documentation of *why* a gather-only
encoder can be bit-exact.  Inference (:mod:`repro.fastpath.inference`)
uses the packed primitives directly: XOR + popcount over packed class HVs.

When ``auto`` picks packed
--------------------------
``UHDConfig(backend="auto")`` resolves per component (see the
:mod:`repro.api.registry` backend table): encoding goes packed when
``quantized=True`` and ``H <= PackedLevelEncoder.MAX_PIXELS``; inference
goes packed when ``binarize=True`` (the centered-cosine default policy has
no packed form).  ``backend="packed"`` forces and raises where impossible;
``backend="reference"`` always runs the original path.  The packed encoder
splits a batch of two or more chunks over threads on its own
(:data:`repro.fastpath.encoder.FANOUT_WIDTH`), bit-exact with serial
encoding; there is no setting for it.  Packed popcounts
use :func:`numpy.bitwise_count` when NumPy >= 2.0 and fall back to a byte
LUT otherwise (``repro.fastpath.bitops.HAS_BITWISE_COUNT``).
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
from .tablestore import (
    TableFormatError,
    TableSet,
    read_table_file,
    table_key,
    write_table_file,
)
from .inference import (
    pack_accumulators,
    packed_cosine,
    packed_dot_similarity,
    packed_predict,
)

__all__ = [
    "HAS_BITWISE_COUNT",
    "PackedLevelEncoder",
    "TableFormatError",
    "TableSet",
    "read_table_file",
    "table_key",
    "write_table_file",
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
