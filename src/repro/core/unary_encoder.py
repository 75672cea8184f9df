"""The unary-domain uHD datapath (paper Fig. 3 and Fig. 5).

This is the hardware-faithful encoder: M-bit scalars are fetched from the
Unary Stream Table as N-bit thermometer codes and compared by the
AND/OR/AND-tree unary comparator; the accumulator models the popcount
flip-flop chain, and binarization models the hardwired masking logic that
fires the sign bit the moment popcount reaches TOB = ceil(H/2).

It must agree bit-for-bit with the quantized arithmetic path of
:class:`repro.core.encoder.SobolLevelEncoder` — that equivalence is the
functional-correctness claim behind the paper's hardware substitution and
is asserted by the integration tests.
"""

from __future__ import annotations

import numpy as np

from ..lds.quantize import quantize_intensity, quantize_unit
from ..lds.sobol import sobol_sequences
from ..unary.comparator import unary_ge_batch
from ..unary.ust import UnaryStreamTable
from .config import UHDConfig

__all__ = ["UnaryDomainEncoder", "masking_binarize"]


def masking_binarize(accumulator: np.ndarray, num_pixels: int) -> np.ndarray:
    """Sign bits via the masking-logic rule (paper contribution ⑤).

    The hardware counts logic-1s of the incoming level hypervector bits; a
    hardwired AND over the counter bits encoding TOB = ceil(H/2) raises the
    sign bit when the count reaches the threshold.  In the +-1 accumulator view
    ``count = (V + H) / 2`` and the rule is ``count >= ceil(H/2)``, which
    is ``(H + 1) // 2`` for every parity: for the tie (even H, count
    exactly H/2, V = 0) the AND fires and the bit is set, reproducing the
    ties-to-+1 behaviour of :func:`repro.hdc.ops.binarize`.
    """
    accumulator = np.asarray(accumulator)
    counts = (accumulator + num_pixels) // 2
    threshold = (num_pixels + 1) // 2
    return np.where(counts >= threshold, 1, -1).astype(np.int8)


class UnaryDomainEncoder:
    """uHD encoding computed entirely on unary bit-streams.

    Slower than the arithmetic twin (it materialises N-bit streams for
    every comparison) but exercises the exact datapath of Fig. 5: REG/BRAM
    codes -> UST fetch -> unary comparator -> popcount.  Use it for
    validation and hardware-activity extraction, not bulk training.
    """

    def __init__(self, num_pixels: int, config: UHDConfig) -> None:
        if not config.quantized:
            raise ValueError("the unary datapath requires quantized=True")
        if config.lds != "sobol":
            raise ValueError(
                f"the unary datapath stores Sobol codes; lds={config.lds!r} "
                "is not supported"
            )
        self.num_pixels = num_pixels
        self.config = config
        self.dim = config.dim
        self.table = UnaryStreamTable(levels=config.levels,
                                      length=config.stream_length)
        sequences = sobol_sequences(
            num_pixels,
            config.dim,
            seed=config.seed,
            digital_shift=config.digital_shift,
        )
        # BRAM contents: M-bit Sobol codes per (pixel, dimension).
        self.sobol_codes = quantize_unit(sequences, config.levels)

    def level_bits(self, image: np.ndarray, dim_chunk: int = 256) -> np.ndarray:
        """Boolean level-hypervector matrix ``(H, D)`` for one image.

        Every entry is produced by a UST fetch of both operands and one
        unary comparison, chunked along D to bound the transient
        ``(H, chunk, N)`` stream tensor.
        """
        image = np.asarray(image).reshape(-1)
        if image.size != self.num_pixels:
            raise ValueError(f"expected {self.num_pixels} pixels, got {image.size}")
        data_codes = quantize_intensity(image, self.config.levels)
        data_streams = self.table.fetch_batch(data_codes)  # (H, N)
        bits = np.empty((self.num_pixels, self.dim), dtype=np.bool_)
        for start in range(0, self.dim, dim_chunk):
            stop = min(start + dim_chunk, self.dim)
            sobol_streams = self.table.fetch_batch(self.sobol_codes[:, start:stop])
            bits[:, start:stop] = unary_ge_batch(
                data_streams[:, None, :], sobol_streams
            )
        return bits

    def encode(self, image: np.ndarray) -> np.ndarray:
        """Accumulator hypervector of one image via popcount over level bits."""
        bits = self.level_bits(image)
        counts = bits.sum(axis=0, dtype=np.int64)
        return 2 * counts - self.num_pixels

    def encode_binarized(self, image: np.ndarray) -> np.ndarray:
        """Class-hypervector bit decisions via the masking-logic binarizer."""
        return masking_binarize(self.encode(image), self.num_pixels)
