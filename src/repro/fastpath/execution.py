"""Built-in execution backends behind the :mod:`repro.api` registry.

Each class bundles the two decisions a backend owns — which encoder to
build and which inference kernels the centroid classifier runs — behind
the :class:`repro.api.registry.Backend` protocol.  The resolution rules:

* ``reference`` — always the original elementwise NumPy paths.
* ``packed`` — force packed *encoding*, raising where it cannot apply
  (non-quantized, too many pixels) so a forced selection never silently
  degrades; inference runs packed only under ``binarize=True`` (the
  centered-cosine default has no packed form — by design, not fallback).
* ``auto`` (default) — packed wherever it is bit-exact and supported,
  reference everywhere else.

Thread fan-out is not a backend decision: the packed encoder splits
large batches over threads itself (see :mod:`repro.fastpath.encoder`).

Backend instances are stateless and shared (the registry caches one per
name), so everything here must stay safe to call from multiple threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder

__all__ = ["ReferenceBackend", "PackedBackend", "AutoBackend"]


class _BuiltinBackend:
    """Shared plumbing: encoder construction + packed inference kernels."""

    name = "abstract"

    def make_encoder(
        self, num_pixels: int, config: "UHDConfig"
    ) -> "SobolLevelEncoder":
        """Encoder for this backend (packed or reference, per ``encoder_kind``)."""
        from ..core.encoder import SobolLevelEncoder

        from .encoder import PackedLevelEncoder

        if self.encoder_kind(config, num_pixels) == "packed":
            return PackedLevelEncoder(num_pixels, config)
        return SobolLevelEncoder(num_pixels, config)

    # -- inference kernels (only reached when use_packed_inference is true)
    def packed_predict(
        self, queries: np.ndarray, class_words: np.ndarray, dim: int
    ) -> np.ndarray:
        from .inference import packed_predict

        return packed_predict(queries, class_words, dim)

    def packed_cosine(
        self, query_words: np.ndarray, class_words: np.ndarray, dim: int
    ) -> np.ndarray:
        from .inference import packed_cosine

        return packed_cosine(query_words, class_words, dim)


class ReferenceBackend(_BuiltinBackend):
    """Always the original elementwise NumPy encoder and cosine inference."""

    name = "reference"

    def encoder_kind(self, config: "UHDConfig", num_pixels: int) -> str:
        return "reference"

    def use_packed_inference(self, binarize: bool) -> bool:
        return False


class PackedBackend(_BuiltinBackend):
    """Force the packed encoder; packed inference under ``binarize=True``."""

    name = "packed"

    def encoder_kind(self, config: "UHDConfig", num_pixels: int) -> str:
        """``"packed"``, or ``ValueError`` where the packed encoder cannot run."""
        from .encoder import PackedLevelEncoder

        if not config.quantized:
            raise ValueError(
                f"backend={self.name!r} requires quantized=True (the packed "
                "encoder exploits the xi-level codes)"
            )
        if num_pixels > PackedLevelEncoder.MAX_PIXELS:
            raise ValueError(
                f"backend={self.name!r} supports up to "
                f"{PackedLevelEncoder.MAX_PIXELS} pixels, got {num_pixels}"
            )
        return "packed"

    def use_packed_inference(self, binarize: bool) -> bool:
        return binarize


class AutoBackend(_BuiltinBackend):
    """Packed wherever bit-exact and supported; reference everywhere else."""

    name = "auto"

    def encoder_kind(self, config: "UHDConfig", num_pixels: int) -> str:
        from .encoder import PackedLevelEncoder

        if config.quantized and num_pixels <= PackedLevelEncoder.MAX_PIXELS:
            return "packed"
        return "reference"

    def use_packed_inference(self, binarize: bool) -> bool:
        return binarize
