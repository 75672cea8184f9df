"""The baseline record-based hypervector encoder.

The baseline record encoder is Fig. 1(b) of the paper: every pixel binds
its position hypervector with the level hypervector of its quantized
intensity, and the bound vectors are bundled across the image:

``V = sum_p  P_p * L_level(x_p)``

uHD's whole point is eliminating ``P`` and the binding multiply — its
encoder lives in :mod:`repro.core.encoder` and shares this module's
conventions so the two are directly comparable.
"""

from __future__ import annotations

import numpy as np

from .item_memory import LevelItemMemory, RandomItemMemory
from .ops import binarize

__all__ = ["RecordEncoder", "quantize_levels"]


def quantize_levels(images: np.ndarray, levels: int, max_value: int = 255) -> np.ndarray:
    """Map raw intensities to level indices in ``[0, levels - 1]``.

    Accepts uint8 images or float arrays already scaled to [0, 1]; output
    shape mirrors the input.
    """
    images = np.asarray(images)
    if images.dtype.kind in ("u", "i"):
        scaled = images.astype(np.float64) / float(max_value)
    else:
        scaled = np.clip(images.astype(np.float64), 0.0, 1.0)
    return np.rint(scaled * (levels - 1)).astype(np.int64)


class RecordEncoder:
    """Baseline position-times-level image encoder.

    Parameters
    ----------
    positions:
        Item memory with one orthogonal hypervector per pixel position
        (``num_items = H``).
    level_memory:
        Correlated item memory over quantized intensity levels.
    """

    def __init__(
        self, positions: RandomItemMemory, level_memory: LevelItemMemory
    ) -> None:
        if positions.dim != level_memory.dim:
            raise ValueError("position and level memories must share a dimension")
        self.positions = positions
        self.level_memory = level_memory
        self.dim = positions.dim
        self.num_pixels = positions.num_items
        self.levels = level_memory.levels

    def encode(self, level_indices: np.ndarray) -> np.ndarray:
        """Accumulator hypervector of one image, given per-pixel level indices."""
        level_indices = np.asarray(level_indices).reshape(-1)
        if level_indices.size != self.num_pixels:
            raise ValueError(
                f"expected {self.num_pixels} pixels, got {level_indices.size}"
            )
        bound = self.positions.matrix * self.level_memory.encode(level_indices)
        return bound.sum(axis=0, dtype=np.int64)

    def encode_batch(
        self, level_indices: np.ndarray, chunk: int = 16
    ) -> np.ndarray:
        """Accumulators for a batch of images, shape ``(batch, dim)``.

        Processes ``chunk`` images at a time so the transient
        ``(chunk, H, D)`` gather stays within memory for D = 8K.
        """
        level_indices = np.asarray(level_indices)
        batch = level_indices.shape[0]
        flat = level_indices.reshape(batch, -1)
        if flat.shape[1] != self.num_pixels:
            raise ValueError(
                f"expected {self.num_pixels} pixels per image, got {flat.shape[1]}"
            )
        out = np.empty((batch, self.dim), dtype=np.int64)
        pos = self.positions.matrix.astype(np.int16)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            gathered = self.level_memory.matrix[flat[start:stop]].astype(np.int16)
            gathered *= pos[None, :, :]
            out[start:stop] = gathered.sum(axis=1, dtype=np.int64)
        return out

    def encode_binarized(self, level_indices: np.ndarray) -> np.ndarray:
        """Sign-binarized hypervector of one image."""
        return binarize(self.encode(level_indices))
