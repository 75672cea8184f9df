"""The uHD level-only image encoder (paper Fig. 2).

Pixel ``p`` with normalized intensity ``x_p`` is encoded against its own
Sobol dimension ``S_p``:

``L_p[j] = +1  if  x_p >= S_p[j]  else  -1``

and the image hypervector is the plain accumulation ``V = sum_p L_p`` —
no position hypervectors, no binding multiply (paper contribution ②).
The positional role is carried by the Sobol *index* ``p``: distinct
dimensions are decorrelated, so different pixels contribute separable
patterns to the accumulator.

Two comparison paths share this class:

* full-precision scalars (``quantized=False`` ablation), and
* M-bit quantized codes (``quantized=True``, the paper's datapath) —
  bit-exact with the unary-domain comparator of
  :mod:`repro.core.unary_encoder`, which the tests assert.
"""

from __future__ import annotations

import math

import numpy as np

from ..lds.halton import halton_sequences
from ..lds.quantize import quantize_intensity, quantize_unit
from ..lds.sobol import sobol_sequences
from .config import UHDConfig

__all__ = ["SobolLevelEncoder"]


class SobolLevelEncoder:
    """Deterministic LD-sequence image encoder.

    Parameters
    ----------
    num_pixels:
        H = rows x columns of the (grayscale) input.
    config:
        uHD hyper-parameters; the LD family, dimension and quantization all
        come from here so a config fully determines the encoder.
    """

    def __init__(self, num_pixels: int, config: UHDConfig) -> None:
        if num_pixels < 1:
            raise ValueError(f"num_pixels must be >= 1, got {num_pixels}")
        self.num_pixels = num_pixels
        self.config = config
        self.dim = config.dim
        if config.lds == "sobol":
            sequences = sobol_sequences(
                num_pixels,
                config.dim,
                seed=config.seed,
                dtype=np.float32,
                digital_shift=config.digital_shift,
            )
        else:
            sequences = halton_sequences(num_pixels, config.dim, dtype=np.float32)
        self._sequences = sequences
        if config.quantized:
            self._codes = quantize_unit(sequences.astype(np.float64), config.levels)
        else:
            self._codes = None

    @property
    def sequences(self) -> np.ndarray:
        """Raw LD scalars, shape ``(num_pixels, dim)`` float32."""
        return self._sequences

    @property
    def quantized_codes(self) -> np.ndarray | None:
        """M-bit Sobol codes (``quantized=True``), shape ``(num_pixels, dim)``."""
        return self._codes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _flatten(self, images: np.ndarray) -> np.ndarray:
        """``images`` as ``(batch, H)``; raises on a wrong pixel count."""
        images = np.asarray(images)
        flat = images.reshape(images.shape[0], math.prod(images.shape[1:]))
        if flat.shape[1] != self.num_pixels:
            raise ValueError(
                f"expected {self.num_pixels} pixels per image, got {flat.shape[1]}"
            )
        return flat

    def _normalize(self, images: np.ndarray) -> np.ndarray:
        """Flatten to ``(batch, H)`` and scale intensities for comparison.

        Returns quantized uint8 codes or float32 unit-scaled intensities
        depending on the configured path.
        """
        flat = self._flatten(images)
        if self.config.quantized:
            return quantize_intensity(flat, self.config.levels)
        if flat.dtype.kind in ("u", "i"):
            return (flat.astype(np.float32) / np.float32(255.0))
        return np.clip(flat.astype(np.float32), 0.0, 1.0)

    def encode(self, image: np.ndarray) -> np.ndarray:
        """Accumulator hypervector of one image, shape ``(dim,)`` int64."""
        return self.encode_batch(np.asarray(image)[None])[0]

    def encode_batch(self, images: np.ndarray, chunk: int = 32) -> np.ndarray:
        """Accumulators for a batch of images, shape ``(batch, dim)`` int64.

        The comparison fans out to a ``(chunk, H, D)`` boolean tensor; the
        accumulator is ``2 * popcount - H`` per dimension (the +-1 view of
        the hardware popcount).  ``chunk`` (>= 1) bounds transient memory.
        """
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        values = self._normalize(images)
        reference = self._codes if self.config.quantized else self._sequences
        batch = values.shape[0]
        out = np.empty((batch, self.dim), dtype=np.int64)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            ge = values[start:stop, :, None] >= reference[None, :, :]
            counts = ge.sum(axis=1, dtype=np.int64)
            out[start:stop] = 2 * counts - self.num_pixels
        return out

    def predict_packed(
        self, images: np.ndarray, class_words: np.ndarray
    ) -> np.ndarray:
        """Binarized labels against packed class hypervectors, ``(batch,)``.

        ``class_words`` are the ``(classes, ceil(dim / 64))`` packed sign
        bits of the class accumulators; each image's accumulator is
        sign-binarized (``acc >= 0``) and the class it disagrees with
        least wins, ties to the lowest index.  This composition of
        :meth:`encode_batch` and
        :func:`repro.fastpath.inference.packed_predict` is the oracle a
        fused implementation must match.
        """
        from ..fastpath.inference import packed_predict

        return packed_predict(self.encode_batch(images), class_words, self.dim)

    def level_hypervector(self, intensity: float, pixel: int) -> np.ndarray:
        """The +-1 level hypervector ``L_p`` of one pixel (diagnostics/tests)."""
        if not 0 <= pixel < self.num_pixels:
            raise ValueError(f"pixel {pixel} out of range [0, {self.num_pixels})")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError("intensity must be normalized to [0, 1]")
        if self.config.quantized:
            code = quantize_unit(np.array([intensity]), self.config.levels)[0]
            ge = code >= self._codes[pixel]
        else:
            ge = np.float32(intensity) >= self._sequences[pixel]
        return np.where(ge, 1, -1).astype(np.int8)
