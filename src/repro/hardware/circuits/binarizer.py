"""Gate-level models for design checkpoint ➌ (paper Fig. 5, right side).

Both designs accumulate level-hypervector bits with a popcount counter
(``ceil(log2 H)+1`` bits, enabled by the incoming bit).  They differ in
how the sign decision is made:

* :func:`build_masking_binarizer` — uHD: the counter bits corresponding to
  the set bits of TOB = ceil(H/2) are hardwired into an AND tree whose
  output is caught by a sticky flip-flop.  No comparator, no subtractor
  (contribution ⑤).
* :func:`build_comparator_binarizer` — baseline: a full magnitude
  comparator evaluates ``count >= TOB`` every cycle (the "separate module
  for thresholding or subtraction").

TOB is ``(H + 1) // 2`` for every parity, the software sign rule of
:func:`repro.core.unary_encoder.masking_binarize` and
:func:`repro.hdc.ops.binarize` (``2 * count - H >= 0``): at even H the tie
count H/2 sets the bit, at odd H it takes (H+1)/2 ones.
"""

from __future__ import annotations

import numpy as np

from ..components import (
    binary_comparator_ge,
    constant_bus,
    match_constant_mask,
    sticky_latch,
    sync_counter,
)
from ..netlist import Netlist

__all__ = [
    "build_masking_binarizer",
    "build_comparator_binarizer",
    "bit_stream_stimulus",
]


def _popcount_width(h: int) -> int:
    """Counter width for counts up to H inclusive."""
    return max(int(h).bit_length(), 1)


def build_masking_binarizer(h: int) -> Netlist:
    """Popcount + hardwired masking logic + sticky sign flop (uHD).

    Input ``bit`` streams the level hypervector; output ``sign`` latches 1
    one cycle after the ones-count reaches TOB = ceil(H/2).
    """
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    tob = (h + 1) // 2
    nl = Netlist(name=f"masking_binarizer_h{h}")
    bit = nl.add_input("bit")
    count = sync_counter(nl, _popcount_width(h), enable=bit)
    fire = match_constant_mask(nl, count, tob)
    nl.add_output("sign", sticky_latch(nl, fire))
    for index, net in enumerate(count):
        nl.add_output(f"count{index}", net)
    return nl


def build_comparator_binarizer(h: int) -> Netlist:
    """Popcount + full comparator against TOB = ceil(H/2) (the baseline
    binarizer)."""
    if h < 2:
        raise ValueError(f"h must be >= 2, got {h}")
    tob = (h + 1) // 2
    nl = Netlist(name=f"comparator_binarizer_h{h}")
    bit = nl.add_input("bit")
    width = _popcount_width(h)
    count = sync_counter(nl, width, enable=bit)
    threshold = constant_bus(nl, tob, width)
    reached = binary_comparator_ge(nl, count, threshold)
    nl.add_output("sign", sticky_latch(nl, reached))
    for index, net in enumerate(count):
        nl.add_output(f"count{index}", net)
    return nl


def bit_stream_stimulus(
    h: int, ones_fraction: float = 0.5, seed: int = 0
) -> list[dict[str, int]]:
    """H cycles of Bernoulli level-hypervector bits."""
    if not 0.0 <= ones_fraction <= 1.0:
        raise ValueError("ones_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    bits = rng.random(h) < ones_fraction
    return [{"bit": int(b)} for b in bits]
