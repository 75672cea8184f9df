"""Process-wide warm-encoder cache, one encoder per ``(pixels, config)`` key.

A serving front-end may host several models of the same shape — replicas
of one dataset's model, A/B variants sharing a config — and the
expensive part of each is the encoder's derived state: Sobol tables
(already memoized process-wide by :func:`repro.lds.sobol.sobol_sequences`)
and the packed gather LUTs, including the lazy single→pair promotion
that only pays off once warm.  :class:`EncoderCache` deduplicates that
state: every model with the same ``(num_pixels, UHDConfig)`` key is
handed the *same* encoder instance, whose tables are read-only after
warm-up.

Two serving-specific consequences:

* **Fork-time sharing.**  ``UHDServer`` warms its front-end encoder
  *before* spawning workers; under the ``fork`` start method the
  children inherit the promoted tables copy-on-write, so N workers cost
  one set of gather tables, not N.
* **Serialization contract.**  Packed encoders keep per-batch scratch
  workspaces, so concurrent ``encode_batch`` calls on one shared
  instance must be externally serialized — ``UHDServer`` does (its
  in-process mode runs under a lock; worker processes each own a
  private copy).  An encoder may still fan one call out over threads
  internally; that never needs the caller's help.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig
    from ..core.encoder import SobolLevelEncoder
    from ..fastpath.tablestore import TableHandle, TableStore

__all__ = ["CacheStats", "EncoderCache", "encoder_cache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time :meth:`EncoderCache.stats` snapshot.

    ``table_bytes`` sums the gather-table footprint across cached
    encoders (0 for cold/reference encoders); ``published`` lists one
    ``(store_name, kind, nbytes)`` tuple per live publication, so a
    long-lived server can see exactly which tables it is exporting and
    how big they are.
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
        #: (key, store name) -> (store, handle, kind, nbytes) for every
        #: table this cache has published and not yet released
        self._published: dict[tuple, tuple] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._encoders)

    def get(self, num_pixels: int, config: "UHDConfig") -> "SobolLevelEncoder":
        """The shared encoder for this key, built on first use.

        Construction goes through the backend registry
        (``get_backend(config.backend).make_encoder``), so third-party
        backends are cached the same way as built-ins.
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
        the parent's *warmed* encoder, so adoption is what turns the
        pre-fork warm-up into copy-on-write table sharing instead of a
        per-worker rebuild.
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

    def warm(
        self, num_pixels: int, config: "UHDConfig", batches: int = 2, seed: int = 0
    ) -> "SobolLevelEncoder":
        """Build *and* exercise the shared encoder past its lazy setup.

        Runs ``batches`` synthetic encode batches sized to push a packed
        encoder past pair-table promotion, so everything expensive is
        materialized before (for example) worker processes fork.
        """
        encoder = self.get(num_pixels, config)
        promote = getattr(type(encoder), "PAIR_PROMOTE_IMAGES", 0)
        batch = max(32, -(-int(promote) // max(1, batches)) + 1)
        rng = np.random.default_rng(seed)
        for _ in range(batches):
            images = rng.integers(
                0, 256, size=(batch, num_pixels), dtype=np.uint8
            )
            encoder.encode_batch(images)
        return encoder

    # ------------------------------------------------------------------
    # Table publication (see repro.fastpath.tablestore)
    # ------------------------------------------------------------------
    def publish(
        self,
        num_pixels: int,
        config: "UHDConfig",
        store: "TableStore",
        promote: bool = True,
    ) -> "TableHandle | None":
        """Export the shared encoder's gather tables into ``store``.

        Returns the picklable :class:`~repro.fastpath.tablestore.TableHandle`
        workers attach through, or ``None`` when this key's encoder has no
        exportable tables (the reference encoder).  Publishing the same
        ``(key, store)`` twice reuses the first handle — the tables are
        deterministic, so a second export could only produce the same
        bytes.  ``promote=True`` forces the pair promotion first so
        attachers inherit the fully warmed state.
        """
        encoder = self.get(num_pixels, config)
        if not hasattr(encoder, "export_tables"):
            return None
        key = ((int(num_pixels), config), store.name)
        with self._lock:
            entry = self._published.get(key)
            if entry is not None and entry[0] is store:
                return entry[1]
        with self.lock(num_pixels, config):  # export may build/promote
            tables = encoder.export_tables(promote=promote)
        handle = store.publish(tables)
        with self._lock:
            self._published[key] = (store, handle, tables.kind, tables.nbytes)
        return handle

    def release_store(self, store: "TableStore") -> None:
        """Forget (and close) every publication living in ``store``.

        The store owns the bytes — closing it unlinks shared-memory
        segments / deletes mmap files — so the cache must stop handing
        out its handles first.
        """
        with self._lock:
            dead = [k for k, entry in self._published.items() if entry[0] is store]
            for key in dead:
                del self._published[key]
        store.close()

    def stats(self) -> CacheStats:
        """Entries, table bytes, and live publications (observability)."""
        with self._lock:
            encoders = list(self._encoders.values())
            published = tuple(
                (store.name, kind, nbytes)
                for store, _handle, kind, nbytes in self._published.values()
            )
        table_bytes = sum(
            int(getattr(encoder, "table_nbytes", 0)) for encoder in encoders
        )
        return CacheStats(
            entries=len(encoders), table_bytes=table_bytes, published=published
        )

    def clear(self) -> None:
        """Drop every cached encoder and release every published store
        handle (tests / reconfiguration / long-lived server resets)."""
        with self._lock:
            self._encoders.clear()
            self._encoder_locks.clear()
            published = list(self._published.values())
            self._published.clear()
        for store, handle, _kind, _nbytes in published:
            store.release(handle)


_CACHE = EncoderCache()


def encoder_cache() -> EncoderCache:
    """The process-wide :class:`EncoderCache` singleton ``UHDServer`` uses."""
    return _CACHE
