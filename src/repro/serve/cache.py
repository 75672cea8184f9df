"""Process-wide warm-encoder cache, one encoder per ``(pixels, config)`` key.

A serving front-end may host several models of the same shape — the
old and new generation of one model during a reload, A/B variants
sharing a config — and the expensive part of each is the encoder's
derived state: Sobol tables (already memoized process-wide by
:func:`repro.lds.sobol.sobol_sequences`) and the packed gather table.
:class:`EncoderCache` deduplicates that state: every model with the same
``(num_pixels, UHDConfig)`` key is handed the *same* encoder instance,
whose table is read-only once its first encode has built it.

Sharing needs no help from the caller.  Every executor thread of every
server in the process calls ``encode_batch`` on the shared instance
directly: the encoder guards its own mutable state (see
:mod:`repro.fastpath.encoder`), and reference encoders have none.  So K
executor threads over one model cost one gather table, not K.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder
    from ..core.model import UHDClassifier

__all__ = ["CacheStats", "EncoderCache", "encoder_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time :meth:`EncoderCache.stats` snapshot.

    ``table_bytes`` sums the gather-table footprint across cached
    encoders (0 for cold/reference encoders).
    """

    entries: int
    table_bytes: int


class EncoderCache:
    """Thread-safe map ``(num_pixels, config) -> warm shared encoder``.

    Configs are frozen dataclasses, hence hashable; the backend name is
    part of the config, so ``packed`` and ``reference`` encoders for the
    same geometry are distinct entries.
    """

    def __init__(self) -> None:
        self._encoders: dict[tuple[int, "UHDConfig"], "SobolLevelEncoder"] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._encoders)

    def get(self, num_pixels: int, config: "UHDConfig") -> "SobolLevelEncoder":
        """The shared encoder for this key, built on first use.

        Construction goes through the backend table
        (``get_backend(config.backend).make_encoder``).
        """
        key = (int(num_pixels), config)
        with self._lock:
            encoder = self._encoders.get(key)
            if encoder is None:
                from ..api.registry import get_backend

                encoder = get_backend(config.backend).make_encoder(
                    num_pixels, config
                )
                self._encoders[key] = encoder
            return encoder

    def adopt(self, model: "UHDClassifier") -> None:
        """Install the shared encoder for ``model``'s key onto ``model``."""
        model.encoder = self.get(model.num_pixels, model.config)

    def stats(self) -> CacheStats:
        """Entries and gather-table bytes (observability)."""
        with self._lock:
            encoders = list(self._encoders.values())
        table_bytes = sum(
            int(getattr(encoder, "table_nbytes", 0)) for encoder in encoders
        )
        return CacheStats(entries=len(encoders), table_bytes=table_bytes)

    def clear(self) -> None:
        """Drop every cached encoder (tests / reconfiguration)."""
        with self._lock:
            self._encoders.clear()


_CACHE = EncoderCache()


def encoder_cache() -> EncoderCache:
    """The process-wide :class:`EncoderCache` singleton ``UHDServer`` uses."""
    return _CACHE
