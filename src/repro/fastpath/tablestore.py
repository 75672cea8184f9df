"""Gather-table storage, decoupled from gather-table construction.

The expensive state of a warm packed encoder is a deterministic lookup
table — the nibble-spread single LUT, or the pair LUT it promotes to.
:class:`repro.fastpath.encoder.PackedLevelEncoder` *builds* that table;
this module decides where the bytes **live**, so that building once and
attaching many times becomes possible across process boundaries:

* :class:`HeapStore` — process-heap arrays, exactly today's behavior.
  Attachable within the publishing process (and, copy-on-write, in its
  ``fork`` children); a ``spawn`` child cannot resolve a heap handle and
  falls back to building its own table.
* :class:`MmapStore` — the table flushed once to a versioned file
  (:func:`write_table_file`), attached read-only via ``np.memmap``.  Any
  process that can read the file attaches zero-copy; N workers share one
  page-cache copy.
* :class:`SharedMemoryStore` — ``multiprocessing.shared_memory``, for
  hosts where a filesystem round-trip is unwanted.  The publishing
  process owns the segment's lifecycle (unlink on close); attachers map
  it read-only and never unlink.

Every store speaks the same protocol: ``publish(tables) -> TableHandle``
(a tiny picklable token that crosses the worker handshake) and the
module-level :func:`attach_handle` that turns a handle back into a
:class:`TableSet` in any process — or ``None`` when the handle cannot be
resolved there, in which case the caller builds (never crashes).

Bit-exactness contract: an attached table is **byte-identical** to the
built table — stores move bytes, they never transform them — so every
prediction made through an attached table equals the built-table
prediction bit for bit (``tests/fastpath/test_tablestore.py`` asserts
the round-trip on every store).

The versioned table file
------------------------
:func:`write_table_file` lays out a self-describing single file::

    bytes 0..7    magic  b"UHDTBL\\x01\\n"   (format version in the magic)
    bytes 8..15   little-endian uint64 header length
    header        JSON: kind, shape, dtype, images_seen, key{...}
    padding       zeros up to a 64-byte data offset boundary
    data          the raw C-order table words

``key`` holds exactly the config fields the table bytes depend on
(:func:`table_key`) — note ``backend`` is *not* one of them: the
``packed`` and ``auto`` backends build identical tables, so one published
table serves both.  :func:`read_table_file` validates magic and version and
returns a read-only ``np.memmap`` over the data region; the same format
backs :class:`MmapStore` publications and the optional
``save_model(..., include_tables=True)`` sidecar.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig

__all__ = [
    "TABLE_FILE_MAGIC",
    "TABLE_FORMAT_VERSION",
    "TableFormatError",
    "TableSet",
    "TableHandle",
    "TableStore",
    "HeapStore",
    "MmapStore",
    "SharedMemoryStore",
    "make_store",
    "attach_handle",
    "table_key",
    "write_table_file",
    "read_table_file",
]

#: leading bytes of every table file; the trailing ``\x01`` is the format
#: version — bump it for incompatible layout changes
TABLE_FILE_MAGIC = b"UHDTBL\x01\n"
TABLE_FORMAT_VERSION = 1

#: data begins at a multiple of this offset so attached memmaps are
#: cache-line (and SIMD-load) aligned
_DATA_ALIGN = 64


class TableFormatError(Exception):
    """A table file/segment is corrupt, mis-versioned, or keyed for a
    different encoder geometry than the attacher's."""


def table_key(num_pixels: int, config: "UHDConfig") -> dict:
    """The config fields the gather-table *bytes* are a pure function of.

    Deliberately excludes ``backend`` (packed and auto build the
    identical table) and ``binarize`` (an inference policy): a table
    published by one is attachable by the other.  Two encoders with equal
    ``table_key`` build byte-identical tables, so key equality is the
    attach-safety check.
    """
    return {
        "num_pixels": int(num_pixels),
        "dim": int(config.dim),
        "levels": int(config.levels),
        "quantized": bool(config.quantized),
        "lds": str(config.lds),
        "seed": int(config.seed),
        "digital_shift": bool(config.digital_shift),
    }


@dataclass
class TableSet:
    """One encoder's gather table, ready to publish or attach.

    ``flat`` is the logical ``(num_rows, keys_per_row, spread_words)``
    uint64 array — a plain heap array on export, possibly a read-only
    ``np.memmap``/shared-memory view after attach.  ``kind`` is
    ``"single"`` (one pixel per gathered row) or ``"pair"`` (the promoted
    two-pixel table).  ``owner`` pins whatever object keeps the backing
    bytes alive (an open ``SharedMemory``); holders of the arrays must
    keep the ``TableSet`` (or its ``owner``) referenced.
    """

    kind: str
    flat: np.ndarray
    key: dict
    images_seen: int = 0
    owner: Any = None

    @property
    def nbytes(self) -> int:
        return int(self.flat.nbytes)

    def validate_against(self, num_pixels: int, config: "UHDConfig") -> None:
        """Raise :class:`TableFormatError` unless this table's key matches."""
        want = table_key(num_pixels, config)
        if self.key != want:
            raise TableFormatError(
                f"table keyed for {self.key} cannot attach to an encoder "
                f"keyed {want}"
            )
        if self.kind not in ("single", "pair"):
            raise TableFormatError(f"unknown table kind {self.kind!r}")


@dataclass(frozen=True)
class TableHandle:
    """Picklable pointer to one published table (crosses the worker
    handshake).  ``store`` names the implementation that can resolve
    ``ref``; ``meta`` carries whatever that implementation needs to
    attach without touching the publisher's memory."""

    store: str
    ref: str
    meta: dict = field(default_factory=dict)


def _header_dict(tables: TableSet) -> dict:
    return {
        "format_version": TABLE_FORMAT_VERSION,
        "kind": tables.kind,
        "shape": [int(s) for s in tables.flat.shape],
        "dtype": np.dtype(np.uint64).str,  # records byte order, e.g. '<u8'
        "images_seen": int(tables.images_seen),
        "key": tables.key,
    }


def _tables_from_header(header: dict, flat: np.ndarray, owner: Any = None) -> TableSet:
    return TableSet(
        kind=str(header["kind"]),
        flat=flat,
        key=dict(header["key"]),
        images_seen=int(header.get("images_seen", 0)),
        owner=owner,
    )


def _check_header(header: dict, where: str) -> tuple[tuple[int, ...], np.dtype]:
    version = header.get("format_version")
    if version != TABLE_FORMAT_VERSION:
        raise TableFormatError(
            f"{where}: table format version {version!r} is not supported "
            f"(this build reads version {TABLE_FORMAT_VERSION})"
        )
    dtype = np.dtype(str(header["dtype"]))
    if dtype != np.dtype(np.uint64):
        raise TableFormatError(
            f"{where}: table dtype {dtype.str} does not match this host's "
            f"uint64 layout {np.dtype(np.uint64).str}"
        )
    shape = tuple(int(s) for s in header["shape"])
    if len(shape) != 3:
        raise TableFormatError(f"{where}: table shape {shape} is not 3-D")
    return shape, dtype


def write_table_file(path: Any, tables: TableSet) -> None:
    """Flush ``tables`` to the versioned single-file layout at ``path``.

    The write goes through a same-directory temp file + ``os.replace`` so
    a reader can never observe a half-written table.
    """
    header = json.dumps(_header_dict(tables), sort_keys=True).encode("utf-8")
    prefix = len(TABLE_FILE_MAGIC) + 8 + len(header)
    data_offset = -(-prefix // _DATA_ALIGN) * _DATA_ALIGN
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uhdtbl-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(TABLE_FILE_MAGIC)
            handle.write(np.uint64(len(header)).tobytes())
            handle.write(header)
            handle.write(b"\x00" * (data_offset - prefix))
            handle.write(np.ascontiguousarray(tables.flat, dtype=np.uint64).tobytes())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_table_file(path: Any) -> TableSet:
    """Attach the table at ``path`` read-only (zero-copy ``np.memmap``)."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(TABLE_FILE_MAGIC))
        if magic != TABLE_FILE_MAGIC:
            raise TableFormatError(
                f"{path}: bad magic {magic!r} — not a uHD table file"
            )
        length_bytes = handle.read(8)
        if len(length_bytes) != 8:
            raise TableFormatError(f"{path}: truncated table file (no header)")
        (header_len,) = np.frombuffer(length_bytes, dtype=np.uint64)
        header_bytes = handle.read(int(header_len))
        if len(header_bytes) != int(header_len):
            raise TableFormatError(f"{path}: truncated table header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TableFormatError(f"{path}: corrupt table header: {exc}") from exc
    shape, dtype = _check_header(header, path)
    prefix = len(TABLE_FILE_MAGIC) + 8 + int(header_len)
    data_offset = -(-prefix // _DATA_ALIGN) * _DATA_ALIGN
    expected = data_offset + int(np.prod(shape)) * dtype.itemsize
    if os.path.getsize(path) < expected:
        raise TableFormatError(
            f"{path}: truncated table file ({os.path.getsize(path)} bytes, "
            f"expected {expected})"
        )
    flat = np.memmap(path, dtype=dtype, mode="r", offset=data_offset, shape=shape)
    return _tables_from_header(header, flat)


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class TableStore:
    """Where published gather tables live; see the module docstring.

    Implementations provide :meth:`publish` / :meth:`release` /
    :meth:`close` plus a class-level ``name``; attaching is the
    module-level :func:`attach_handle` so a process that never built a
    store object (a spawn worker) can still resolve handles.
    """

    name = "abstract"

    def publish(self, tables: TableSet) -> TableHandle:
        raise NotImplementedError

    def release(self, handle: TableHandle) -> None:
        """Free one publication (idempotent; unknown handles are no-ops)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release everything this store published."""
        raise NotImplementedError

    def __enter__(self) -> "TableStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: process-global registry behind HeapStore handles; a fork child
#: inherits it copy-on-write, a spawn child starts empty (attach -> None)
_HEAP_PUBLISHED: dict[str, TableSet] = {}


class HeapStore(TableStore):
    """Today's behavior, made explicit: the table stays on this process's
    heap.  ``fork`` children resolve the handle through their inherited
    (copy-on-write) registry; ``spawn`` children cannot and fall back to
    building — which is exactly the pre-store world."""

    name = "heap"

    def __init__(self) -> None:
        self._refs: list[str] = []

    def publish(self, tables: TableSet) -> TableHandle:
        ref = f"heap-{os.getpid()}-{secrets.token_hex(8)}"
        _HEAP_PUBLISHED[ref] = tables
        self._refs.append(ref)
        return TableHandle(store=self.name, ref=ref, meta=_header_dict(tables))

    def release(self, handle: TableHandle) -> None:
        _HEAP_PUBLISHED.pop(handle.ref, None)
        if handle.ref in self._refs:
            self._refs.remove(handle.ref)

    def close(self) -> None:
        for ref in self._refs:
            _HEAP_PUBLISHED.pop(ref, None)
        self._refs.clear()

    @staticmethod
    def attach(handle: TableHandle) -> TableSet | None:
        return _HEAP_PUBLISHED.get(handle.ref)


class MmapStore(TableStore):
    """Tables flushed to versioned files under ``directory``, attached
    read-only via ``np.memmap``.

    One file per publication, named by a content key so republishing the
    same table bumps a ``-v<N>`` suffix instead of rewriting in place
    under a reader.  ``cleanup=True`` (default for server-created temp
    stores) unlinks the files on :meth:`close`; pass ``cleanup=False``
    to keep a warm-table directory across runs.
    """

    name = "mmap"

    def __init__(self, directory: Any | None = None, cleanup: bool | None = None):
        if directory is None:
            directory = tempfile.mkdtemp(prefix="uhd-tables-")
            self._owns_dir = True
        else:
            directory = os.fspath(directory)
            os.makedirs(directory, exist_ok=True)
            self._owns_dir = False
        self.directory = directory
        self._cleanup = self._owns_dir if cleanup is None else bool(cleanup)
        self._versions: dict[str, int] = {}
        self._paths: list[str] = []

    def publish(self, tables: TableSet) -> TableHandle:
        digest = hashlib.sha1(
            json.dumps(tables.key, sort_keys=True).encode("utf-8")
        ).hexdigest()[:12]
        stem = f"{tables.kind}-{digest}"
        version = self._versions.get(stem, 0) + 1
        self._versions[stem] = version
        path = os.path.join(self.directory, f"{stem}-v{version}.uhdtbl")
        write_table_file(path, tables)
        self._paths.append(path)
        return TableHandle(store=self.name, ref=path, meta=_header_dict(tables))

    def release(self, handle: TableHandle) -> None:
        try:
            os.unlink(handle.ref)
        except OSError:
            pass
        if handle.ref in self._paths:
            self._paths.remove(handle.ref)

    def close(self) -> None:
        if self._cleanup:
            for path in self._paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            if self._owns_dir:
                try:
                    os.rmdir(self.directory)
                except OSError:
                    pass
        self._paths.clear()

    @staticmethod
    def attach(handle: TableHandle) -> TableSet | None:
        if not os.path.exists(handle.ref):
            return None
        return read_table_file(handle.ref)


class SharedMemoryStore(TableStore):
    """Tables in ``multiprocessing.shared_memory`` segments.

    Parent-owned lifecycle: the publishing process keeps the segment
    mapped and **unlinks it on close/release**; attachers map read-only
    views and only ever close their own mapping.  On Python < 3.13 an
    attaching process's ``resource_tracker`` would also unlink the
    segment at exit (bpo-38119) — attach deregisters the segment from
    the tracker, restoring the single-owner contract.
    """

    name = "shm"

    def __init__(self) -> None:
        self._segments: dict[str, Any] = {}

    def publish(self, tables: TableSet) -> TableHandle:
        from multiprocessing import shared_memory

        flat = np.ascontiguousarray(tables.flat, dtype=np.uint64)
        segment = shared_memory.SharedMemory(create=True, size=max(1, flat.nbytes))
        view = np.ndarray(flat.shape, dtype=np.uint64, buffer=segment.buf)
        view[...] = flat
        self._segments[segment.name] = segment
        return TableHandle(
            store=self.name, ref=segment.name, meta=_header_dict(tables)
        )

    def release(self, handle: TableHandle) -> None:
        segment = self._segments.pop(handle.ref, None)
        if segment is not None:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass

    def close(self) -> None:
        for ref in list(self._segments):
            self.release(TableHandle(store=self.name, ref=ref))

    @staticmethod
    def attach(handle: TableHandle) -> TableSet | None:
        from multiprocessing import shared_memory

        shape, dtype = _check_header(handle.meta, f"shm:{handle.ref}")
        try:
            with _shm_attach_untracked():
                segment = shared_memory.SharedMemory(name=handle.ref)
        except FileNotFoundError:
            return None  # publisher already closed; caller builds instead
        flat = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
        flat.flags.writeable = False
        return _tables_from_header(handle.meta, flat, owner=segment)


@contextmanager
def _shm_attach_untracked():
    """Keep an *attaching* process's resource tracker out of the segment.

    Before Python 3.13 (``SharedMemory(track=...)``) every attach also
    registers with the resource tracker — shared with the publisher —
    so an exiting attacher would unlink the segment under everyone else
    (bpo-38119).  The publisher owns the lifecycle here; attach must
    leave no tracker trace.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


_STORES: dict[str, type[TableStore]] = {
    HeapStore.name: HeapStore,
    MmapStore.name: MmapStore,
    SharedMemoryStore.name: SharedMemoryStore,
}


def make_store(name: str, **kwargs: Any) -> TableStore:
    """Instantiate a store by its registry name (``heap``/``mmap``/``shm``)."""
    try:
        cls = _STORES[name]
    except KeyError:
        raise ValueError(
            f"unknown table store {name!r}; available: {sorted(_STORES)}"
        ) from None
    return cls(**kwargs)


def attach_handle(handle: TableHandle | None) -> TableSet | None:
    """Resolve a :class:`TableHandle` in *this* process, or ``None``.

    ``None`` — not an error — means the handle cannot be resolved here
    (a heap handle in a spawn child, a deleted file, an unlinked
    segment); the caller falls back to building its own table, which is
    always correct, only slower.  Corrupt-but-present publications raise
    :class:`TableFormatError` instead of silently degrading.
    """
    if handle is None:
        return None
    cls = _STORES.get(handle.store)
    if cls is None:
        raise TableFormatError(
            f"handle names unknown table store {handle.store!r}"
        )
    return cls.attach(handle)
