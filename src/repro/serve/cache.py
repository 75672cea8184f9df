"""Process-wide warm-encoder cache, one encoder per ``(pixels, config)`` key.

A serving front-end may host several models of the same shape — the
old and new generation of one model during a reload, A/B variants
sharing a config — and the expensive part of each is the encoder's
derived state: Sobol tables (already memoized process-wide by
:func:`repro.lds.sobol.sobol_sequences`) and the packed gather table.
:class:`EncoderCache` deduplicates that state: every model with the same
``(num_pixels, UHDConfig)`` key is handed the *same* encoder instance,
whose table is read-only once its first encode has built it.

Two serving-specific consequences:

* **One table per server, whatever the start method.**  ``UHDServer``
  runs its front-end readiness probe, whose first encode builds the
  table, *before* starting workers.  Under ``fork`` the children
  inherit that table copy-on-write;
  under ``spawn``/``forkserver`` the server writes them once to a table
  file (:meth:`EncoderCache.publish`) that every worker attaches.
  Either way N workers cost one set of gather tables, not N.
* **Serialization contract.**  Packed encoders keep per-batch scratch
  workspaces, so concurrent ``encode_batch`` calls on one shared
  instance must be externally serialized — ``UHDServer`` does (its
  in-process mode runs under a lock; worker processes each own a
  private copy).  An encoder may still fan one call out over threads
  internally; that never needs the caller's help.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder

__all__ = ["CacheStats", "EncoderCache", "encoder_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time :meth:`EncoderCache.stats` snapshot.

    ``table_bytes`` sums the gather-table footprint across cached
    encoders (0 for cold/reference encoders); ``published`` lists one
    ``(path, kind, nbytes)`` tuple per live table file, so a long-lived
    server can see exactly which tables it is exporting and how big they
    are (none under ``fork``, whose workers inherit the table instead).
    """

    entries: int
    table_bytes: int
    published: tuple[tuple[str, str, int], ...]


class EncoderCache:
    """Thread-safe map ``(num_pixels, config) -> warm shared encoder``.

    Configs are frozen dataclasses, hence hashable; the backend name is
    part of the config, so ``packed`` and ``reference`` encoders for the
    same geometry are distinct entries.  Each entry carries a dedicated
    lock (:meth:`lock`) that every in-process user of the shared encoder
    must hold around ``encode_batch`` — packed encoders keep mutable
    scratch workspaces, and two servers sharing one cached encoder from
    different threads would otherwise race on them.
    """

    def __init__(self) -> None:
        self._encoders: dict[tuple[int, "UHDConfig"], "SobolLevelEncoder"] = {}
        self._encoder_locks: dict[tuple[int, "UHDConfig"], threading.Lock] = {}
        #: path -> (kind, nbytes) for every table file this cache has
        #: written and not yet deleted
        self._published: dict[str, tuple[str, int]] = {}
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
                self._encoder_locks[key] = threading.Lock()
            return encoder

    def lock(self, num_pixels: int, config: "UHDConfig") -> threading.Lock:
        """The serialization lock for this key's shared encoder.

        Hold it around any ``encode_batch``/``predict`` that runs on the
        shared instance; it is one lock per *encoder*, so two servers
        over the same key serialize against each other, not just against
        themselves.
        """
        key = (int(num_pixels), config)
        with self._lock:
            if key not in self._encoder_locks:
                self._encoder_locks[key] = threading.Lock()
            return self._encoder_locks[key]

    def adopt(self, model: object) -> "threading.Lock | None":
        """Install the shared encoder for ``model``'s key onto ``model``.

        Returns the encoder's serialization lock, or ``None`` when the
        model does not expose an encoder/config (nothing to share).  Used
        by both the serving front-end and the worker bootstrap: under the
        ``fork`` start method the worker's inherited cache already holds
        the parent's warm encoder, so adoption is what turns the
        pre-fork readiness probe into copy-on-write table sharing instead
        of a per-worker rebuild.
        """
        config = getattr(model, "config", None)
        num_pixels = getattr(model, "num_pixels", None)
        if config is None or num_pixels is None or not hasattr(model, "encoder"):
            return None
        key = (int(num_pixels), config)
        with self._lock:
            if key not in self._encoders and getattr(
                model.encoder, "tables_ready", False
            ):
                # the model arrived with warm tables (a sidecar attach, a
                # trained-in-process model): seed the cache with them so
                # nobody rebuilds what already exists
                self._encoders[key] = model.encoder
                self._encoder_locks.setdefault(key, threading.Lock())
        model.encoder = self.get(num_pixels, config)
        return self.lock(num_pixels, config)

    # ------------------------------------------------------------------
    # Table files (see repro.fastpath.tablestore)
    # ------------------------------------------------------------------
    def publish(
        self, num_pixels: int, config: "UHDConfig", path: str
    ) -> str | None:
        """Write the shared encoder's gather table to the table file ``path``.

        Returns ``path``, which workers attach with
        :func:`~repro.fastpath.tablestore.read_table_file`, or ``None``
        when this key's encoder has no exportable tables (the reference
        encoder).
        """
        from ..fastpath.tablestore import write_table_file

        encoder = self.get(num_pixels, config)
        if not hasattr(encoder, "export_tables"):
            return None
        with self.lock(num_pixels, config):  # export builds a cold table
            tables = encoder.export_tables()
        write_table_file(path, tables)
        with self._lock:
            self._published[path] = (tables.kind, tables.nbytes)
        return path

    def unpublish(self, path: str) -> None:
        """Delete a table file :meth:`publish` wrote (idempotent)."""
        with self._lock:
            self._published.pop(path, None)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def stats(self) -> CacheStats:
        """Entries, table bytes, and live table files (observability)."""
        with self._lock:
            encoders = list(self._encoders.values())
            published = tuple(
                (path, kind, nbytes)
                for path, (kind, nbytes) in self._published.items()
            )
        table_bytes = sum(
            int(getattr(encoder, "table_nbytes", 0)) for encoder in encoders
        )
        return CacheStats(
            entries=len(encoders), table_bytes=table_bytes, published=published
        )

    def clear(self) -> None:
        """Drop every cached encoder and delete every table file it wrote
        (tests / reconfiguration / long-lived server resets)."""
        with self._lock:
            self._encoders.clear()
            self._encoder_locks.clear()
            published = list(self._published)
        for path in published:
            self.unpublish(path)


_CACHE = EncoderCache()


def encoder_cache() -> EncoderCache:
    """The process-wide :class:`EncoderCache` singleton ``UHDServer`` uses."""
    return _CACHE
