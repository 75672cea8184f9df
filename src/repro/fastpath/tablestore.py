"""Gather-table storage: one versioned file format, attached read-only.

The expensive state of a warm packed encoder is a deterministic lookup
table — the nibble-spread delta LUT, one ``(H, levels, spread_words)``
uint64 array per geometry (``lut[p, v] − lut[p, 0]``; see
:mod:`repro.fastpath.encoder`).
:class:`repro.fastpath.encoder.PackedLevelEncoder` *builds* that table;
this module moves its bytes across process boundaries, so that building
once and attaching many times is possible:

* :func:`write_table_file` flushes a :class:`TableSet` to a versioned
  single file; :func:`read_table_file` attaches it read-only through
  ``np.memmap``.  Any process that can read the file attaches
  zero-copy, and N attachers share one page-cache copy.
* The serving layer uses it only where a worker cannot inherit the
  front-end's warm encoder: under ``spawn`` or ``forkserver`` the
  server writes one table file and its workers attach it (under
  ``fork`` they inherit the table copy-on-write and no file is
  written).  ``save_model(..., include_tables=True)`` writes the same
  format as the ``.tables`` sidecar.

Bit-exactness contract: an attached table is **byte-identical** to the
built table — the file moves bytes, it never transforms them — so every
prediction made through an attached table equals the built-table
prediction bit for bit (``tests/fastpath/test_tablestore.py`` asserts
the round-trip over generated encoder geometry).

The versioned table file
------------------------
:func:`write_table_file` lays out a self-describing single file::

    bytes 0..7    magic  b"UHDTBL\\x02\\n"   (format version in the magic)
    bytes 8..15   little-endian uint64 header length
    header        JSON: format_version, shape, dtype, key{...}
    padding       zeros up to a 64-byte data offset boundary
    data          the raw C-order table words

``key`` holds exactly the config fields the table bytes depend on
(:func:`table_key`) — note ``backend`` is *not* one of them: the
``packed`` and ``auto`` backends build identical tables, so one written
table serves both.  :func:`read_table_file` validates magic, version and
header, and returns a read-only ``np.memmap`` over the data region; a
file that fails any check raises :class:`TableFormatError`, never
another exception type.  Header keys the reader does not know are
ignored, so files carrying a retired field still load.

Version 2 stores delta rows; version 1 stored the level rows themselves
(single or pair table, named by a ``kind`` field).  The same bytes mean
different counts under the two layouts, so a version-1 file never
attaches: it raises :class:`TableFormatError` naming both versions.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..core.config import UHDConfig

__all__ = [
    "TABLE_FILE_MAGIC",
    "TABLE_FORMAT_VERSION",
    "TableFormatError",
    "TableSet",
    "table_key",
    "write_table_file",
    "read_table_file",
]

#: every table file starts with this prefix, then the format version byte
_MAGIC_PREFIX = b"UHDTBL"
TABLE_FORMAT_VERSION = 2
#: leading bytes of every table file; the byte after ``UHDTBL`` is the
#: format version — bump both for incompatible layout changes
TABLE_FILE_MAGIC = _MAGIC_PREFIX + bytes([TABLE_FORMAT_VERSION]) + b"\n"

#: data begins at a multiple of this offset so attached memmaps are
#: cache-line (and SIMD-load) aligned
_DATA_ALIGN = 64

#: the table word; the header records its byte order, e.g. ``'<u8'``
_WORD = np.dtype(np.uint64)


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
    """One encoder's gather table, ready to write or attach.

    ``flat`` is the ``(num_pixels, levels, spread_words)`` uint64 delta
    table — a plain heap array on export, a read-only ``np.memmap``
    after :func:`read_table_file`.
    """

    flat: np.ndarray
    key: dict

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


def _header_dict(tables: TableSet) -> dict:
    return {
        "format_version": TABLE_FORMAT_VERSION,
        "shape": [int(s) for s in tables.flat.shape],
        "dtype": _WORD.str,
        "key": tables.key,
    }


def _is_count(value: Any) -> bool:
    """A non-negative JSON integer (``bool`` is an ``int`` subclass: no)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header: Any, where: str) -> tuple[int, ...]:
    """Validate a decoded header; the shape of its data.

    Every malformation — wrong JSON type, a missing field, a foreign
    dtype, a non-integer or negative dimension — raises
    :class:`TableFormatError`, so callers need to catch only that.
    """
    if not isinstance(header, dict):
        raise TableFormatError(
            f"{where}: table header is a {type(header).__name__}, not an object"
        )
    version = header.get("format_version")
    if version != TABLE_FORMAT_VERSION:
        raise TableFormatError(
            f"{where}: table format version {version!r} is not supported "
            f"(this build reads version {TABLE_FORMAT_VERSION})"
        )
    missing = sorted({"shape", "dtype", "key"} - header.keys())
    if missing:
        raise TableFormatError(f"{where}: table header lacks {missing}")
    # compared as the string the writer records, never parsed: numpy's
    # dtype parser raises assorted exception types on arbitrary strings
    if header["dtype"] != _WORD.str:
        raise TableFormatError(
            f"{where}: table dtype {header['dtype']!r} does not match this "
            f"host's uint64 layout {_WORD.str!r}"
        )
    shape = header["shape"]
    if not (
        isinstance(shape, list)
        and len(shape) == 3
        and all(_is_count(s) and s > 0 for s in shape)
    ):
        raise TableFormatError(
            f"{where}: table shape {shape!r} is not three positive integers"
        )
    key = header["key"]
    if not isinstance(key, dict):
        raise TableFormatError(f"{where}: table key {key!r} is not an object")
    return tuple(shape)


def _data_offset(header_len: int) -> int:
    prefix = len(TABLE_FILE_MAGIC) + 8 + header_len
    return -(-prefix // _DATA_ALIGN) * _DATA_ALIGN


def write_table_file(path: Any, tables: TableSet) -> None:
    """Flush ``tables`` to the versioned single-file layout at ``path``.

    The write goes through a same-directory temp file + ``os.replace`` so
    a reader can never observe a half-written table.
    """
    header = json.dumps(_header_dict(tables), sort_keys=True).encode("utf-8")
    prefix = len(TABLE_FILE_MAGIC) + 8 + len(header)
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uhdtbl-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(TABLE_FILE_MAGIC)
            handle.write(len(header).to_bytes(8, "little"))
            handle.write(header)
            handle.write(b"\x00" * (_data_offset(len(header)) - prefix))
            handle.write(np.ascontiguousarray(tables.flat, dtype=_WORD).tobytes())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_table_file(path: Any) -> TableSet:
    """Attach the table at ``path`` read-only (zero-copy ``np.memmap``).

    Raises :class:`TableFormatError` for any file that is not a complete,
    well-formed table file of this format version.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        magic = handle.read(len(TABLE_FILE_MAGIC))
        version = magic[len(_MAGIC_PREFIX):len(_MAGIC_PREFIX) + 1]
        if (
            magic.startswith(_MAGIC_PREFIX)
            and version
            and version[0] != TABLE_FORMAT_VERSION
        ):
            raise TableFormatError(
                f"{path}: table format version {version[0]} is "
                f"not supported (this build reads version {TABLE_FORMAT_VERSION})"
            )
        if magic != TABLE_FILE_MAGIC:
            raise TableFormatError(
                f"{path}: bad magic {magic!r} — not a uHD table file"
            )
        length_bytes = handle.read(8)
        if len(length_bytes) != 8:
            raise TableFormatError(f"{path}: truncated table file (no header)")
        header_len = int.from_bytes(length_bytes, "little")
        # bound by the file before reading: a corrupt length must not
        # turn into a huge allocation
        if header_len > size - len(TABLE_FILE_MAGIC) - 8:
            raise TableFormatError(
                f"{path}: truncated table header ({header_len} bytes declared, "
                f"file is {size})"
            )
        header_bytes = handle.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise TableFormatError(f"{path}: corrupt table header: {exc}") from exc
    shape = _check_header(header, path)
    data_offset = _data_offset(header_len)
    expected = data_offset + math.prod(shape) * _WORD.itemsize
    if size < expected:
        raise TableFormatError(
            f"{path}: truncated table file ({size} bytes, expected {expected})"
        )
    return TableSet(
        flat=np.memmap(
            path, dtype=_WORD, mode="r", offset=data_offset, shape=shape
        ),
        key=header["key"],
    )
