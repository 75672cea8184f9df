"""Packed uHD level encoder: LUT gather + SWAR lane accumulation.

The quantized reference path (:class:`repro.core.encoder.SobolLevelEncoder`)
compares every image code against every Sobol code, materializing a
``(batch, H, D)`` boolean tensor.  Quantization to ``xi`` levels makes that
tensor redundant: pixel ``p`` can only produce ``xi`` distinct level rows,
all known at construction.  This encoder exploits the identity

``counts[j] = sum_t popcount(pixels_with_code_t AND pixels_where_sobol_code[:, j] <= t)``

in gather form: it precomputes, for every ``(pixel, level)`` pair, the
packed row ``[code >= sobol_code[p, :]]`` and turns encoding into a table
gather plus a vertical popcount — no per-image comparisons at all.

Vertical popcount layout
------------------------
Summing gathered rows needs per-*column* counts, which packed words do not
give directly.  Instead of a carry-save adder tree (benched slower, see
:mod:`repro.fastpath`), rows are stored **nibble-spread**: dimension bit
``i`` widens to a 4-bit lane, so 15 rows can be added with plain ``uint64``
adds before any lane overflows.  Partial sums then widen nibble -> uint16
lanes via four mask/shift streams, and a static permutation maps lanes back
to dimension order.  Every op touches 64-bit words; nothing scales with
``batch * H * D``.

Two gather tables share the pipeline:

* **single** — ``(H, xi)`` entries, one pixel per gathered row (lane <= 1,
  15 rows per add chunk).
* **pair** — ``(ceil(H/2), xi^2)`` entries keyed by two pixel codes at once
  (lane <= 2, 7 rows per chunk).  Halves gather traffic, the dominant cost,
  for ``xi`` times the table memory.

An encoder holds exactly one of them, chosen by geometry alone
(:attr:`PackedLevelEncoder.table_kind`): the pair table whenever
``H >= 2`` and its bytes fit ``PAIR_LUT_BUDGET``, else the single table.

Both paths are bit-exact with the reference quantized encoder (the tests
assert it), mirroring the paper's claim that the unary hardware datapath
substitutes for arithmetic without changing a single output bit.

Thread fan-out
--------------
uHD encodes each image on its own (no position hypervectors, no
multiply), so a batch splits over cores without changing a bit.  NumPy
releases the GIL inside the gather, the lane adds and the reductions, so
``encode_batch`` splits a batch spanning two or more chunks over
``FANOUT_WIDTH`` threads (the caller plus a process-wide pool) that share
the read-only table and each own their scratch.  Smaller batches, and
hosts with one core, run serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..core.config import UHDConfig
from ..core.encoder import SobolLevelEncoder
from ..lds.quantize import quantize_intensity
from .bitops import WORD_BITS, pack_bits, words_for_bits
from .tablestore import TableSet, table_key

__all__ = ["PackedLevelEncoder"]

_NIBBLE_MASK = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTE_MASK = np.uint64(0x00FF00FF00FF00FF)
#: nibble-acc rows folded per byte-lane chunk; nibble lanes reach 15
#: (single table: 15 rows x 1) so 17 * 15 = 255 just fits a byte
_BYTE_CHUNK = 17
_SPREAD_STEPS = (
    (np.uint64(24), np.uint64(0x000000FF000000FF)),
    (np.uint64(12), np.uint64(0x000F000F000F000F)),
    (np.uint64(6), np.uint64(0x0303030303030303)),
    (np.uint64(3), np.uint64(0x1111111111111111)),
)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: threads one ``encode_batch`` call splits its chunks over (1 = serial);
#: capped at 8 because every shard keeps its own scratch workspaces
FANOUT_WIDTH = min(8, _usable_cores())

#: ``(pid, executor)`` of this process's encode pool, created lazily
_executor: tuple[int, ThreadPoolExecutor] | None = None


def _shared_executor() -> ThreadPoolExecutor:
    """The process's encode pool, recreated after a fork.

    A forked child inherits the executor object but none of its threads,
    so submitting to it would hang forever; a pid change drops it.  The
    caller of ``encode_batch`` runs one shard itself, hence one thread
    fewer than ``FANOUT_WIDTH``.  Deliberately lock-free: two racing first
    calls each build a pool and the loser's is collected once its shards
    finish, whereas a lock could be inherited held by a forked child.
    """
    global _executor
    pid = os.getpid()
    if _executor is None or _executor[0] != pid:
        threads = max(1, FANOUT_WIDTH - 1)
        _executor = (
            pid,
            ThreadPoolExecutor(threads, thread_name_prefix="uhd-encode"),
        )
    return _executor[1]


def _spread16(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each word so bit ``i`` lands at bit ``4i``."""
    x = x & np.uint64(0xFFFF)
    for shift, mask in _SPREAD_STEPS:
        x = (x | (x << shift)) & mask
    return x


class _GatherTable:
    """A (rows x keys) nibble-spread LUT plus its accumulation geometry."""

    def __init__(self, lut: np.ndarray, group: int, num_rows: int, chunk_rows: int):
        self.flat = np.ascontiguousarray(lut.reshape(-1, lut.shape[-1]))
        self.keys_per_row = lut.shape[1]
        self.group = group          # pixels folded into one gathered row
        self.num_rows = num_rows    # R: gathered rows per image
        self.chunk_rows = chunk_rows  # rows added per nibble-lane chunk
        self.num_chunks = -(-num_rows // chunk_rows)
        self.base = (
            np.arange(num_rows, dtype=np.intp) * self.keys_per_row
        )[:, None]


class _Workspace:
    """Preallocated per-batch-size scratch so steady-state encoding never allocates."""

    #: gather/reduce block target; ~a quarter of L2 so the gathered slab is
    #: still cache-hot when the chunk reduction reads it back
    BLOCK_BYTES = 512 * 1024

    def __init__(self, table: _GatherTable, batch: int, spread_words: int):
        chunk_bytes = table.chunk_rows * batch * spread_words * 8
        self.block_chunks = max(1, self.BLOCK_BYTES // chunk_bytes)
        padded = min(self.block_chunks, table.num_chunks) * table.chunk_rows
        byte_chunks = -(-table.num_chunks // _BYTE_CHUNK)
        self.rows = np.zeros((padded, batch, spread_words), dtype=np.uint64)
        # zero-padded so the byte-stage reshape never reads garbage; only
        # the first num_chunks rows are ever written
        self.acc = np.zeros(
            (byte_chunks * _BYTE_CHUNK, batch, spread_words), dtype=np.uint64
        )
        self.tmp = np.empty_like(self.acc)
        self.bytes_even = np.empty((byte_chunks, batch, spread_words), dtype=np.uint64)
        self.bytes_odd = np.empty_like(self.bytes_even)
        self.streams = np.empty((4, batch, spread_words), dtype=np.uint64)


class PackedLevelEncoder(SobolLevelEncoder):
    """Bit-exact packed twin of :class:`SobolLevelEncoder` (quantized only).

    Construction is identical to the reference encoder (same Sobol table,
    same quantized codes); only ``encode_batch`` differs.  The gather
    table is built once, on first use, so constructing an encoder stays
    cheap.
    """

    #: nibble-lane accumulation geometry per table kind: rows folded per
    #: chunk before a lane could overflow (single: lane counts <= 1, 15
    #: rows; pair: lane counts <= 2, 7 rows).  attach_tables and the
    #: build path both read these — they must never diverge
    SINGLE_CHUNK_ROWS = 15
    PAIR_CHUNK_ROWS = 7
    #: ceiling for the pair table footprint, bytes
    PAIR_LUT_BUDGET = 192 * 1024 * 1024
    #: uint16 lane headroom: per-dimension counts may reach H
    MAX_PIXELS = 60000

    def __init__(self, num_pixels: int, config: UHDConfig) -> None:
        if not config.quantized:
            raise ValueError("the packed fast path requires quantized=True")
        if num_pixels > self.MAX_PIXELS:
            raise ValueError(
                f"packed encoder supports up to {self.MAX_PIXELS} pixels, "
                f"got {num_pixels} (use the reference encoder)"
            )
        super().__init__(num_pixels, config)
        self._dim_words = words_for_bits(config.dim)
        self._spread_words = 4 * self._dim_words
        self._table: _GatherTable | None = None
        #: scratch keyed by (shard, rows): each fan-out shard owns its own
        self._workspaces: dict[tuple[int, int], _Workspace] = {}
        #: gather tables this instance built and installed (the
        #: build-vs-attach observability hook: an encoder that attached a
        #: published table serves with this still at 0)
        self.table_builds = 0
        self._take_index = self._lane_permutation()
        self._intensity_lut = quantize_intensity(
            np.arange(256, dtype=np.uint8), config.levels
        )

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _lane_permutation(self) -> np.ndarray:
        """Flat (stream, word, u16-lane) position of every dimension.

        Spread word ``4w + k`` holds dimension ``64w + 16k + n`` in nibble
        lane ``n``; the two-stage extraction routes nibble parity ``pn``
        and byte parity ``pb`` to stream ``(pn, pb)`` with the dimension at
        uint16 lane ``u``, i.e. ``n = 4u + 2*pb + pn``.  Streams are laid
        out ``(stream, word, u16-lane)``; invert that map once.
        """
        s = np.arange(self._spread_words)
        w, k = s // 4, s % 4
        u = np.arange(4)
        parts = [
            (64 * w[:, None] + 16 * k[:, None] + 4 * u[None, :] + 2 * pb + pn).ravel()
            for pn in (0, 1)
            for pb in (0, 1)
        ]
        dim_of_flat = np.concatenate(parts)
        flat_of_dim = np.empty_like(dim_of_flat)
        flat_of_dim[dim_of_flat] = np.arange(dim_of_flat.size)
        return flat_of_dim[: self.dim]

    def _build_single_lut(self) -> np.ndarray:
        """Nibble-spread rows ``[t >= codes[p, :]]`` for every (pixel, level)."""
        levels = self.config.levels
        codes = self.quantized_codes
        packed = np.empty(
            (self.num_pixels, levels, self._dim_words), dtype=np.uint64
        )
        for t in range(levels):
            packed[:, t, :] = pack_bits(codes <= t)
        lut = np.empty(
            (self.num_pixels, levels, self._spread_words), dtype=np.uint64
        )
        for k in range(4):
            lut[..., k::4] = _spread16(packed >> np.uint64(16 * k))
        return lut

    @property
    def table_kind(self) -> str:
        """``"pair"`` or ``"single"``: the one table this geometry uses.

        The pair table whenever there are two pixels to pair and its bytes
        fit ``PAIR_LUT_BUDGET``; the build and the attach check both ask
        here, so a table file always holds what the attacher would build.
        """
        pair_rows = (self.num_pixels + 1) // 2
        pair_bytes = pair_rows * self.config.levels**2 * self._spread_words * 8
        if self.num_pixels >= 2 and pair_bytes <= self.PAIR_LUT_BUDGET:
            return "pair"
        return "single"

    def _pair_lut(self, single_lut: np.ndarray) -> np.ndarray:
        """Fold pixel pairs into one keyed row (lane counts reach 2)."""
        levels = self.config.levels
        full = self.num_pixels // 2
        paired = (
            single_lut[0 : 2 * full : 2, :, None, :]
            + single_lut[1 : 2 * full : 2, None, :, :]
        ).reshape(full, levels * levels, self._spread_words)
        if self.num_pixels % 2:
            # odd tail pixel rides along as a pseudo-pair ignoring its
            # second key digit
            tail = np.repeat(single_lut[-1], levels, axis=0)[None]
            paired = np.concatenate([paired, tail], axis=0)
        return paired

    def _install(self, lut: np.ndarray, kind: str) -> None:
        if kind == "pair":
            group, chunk_rows = 2, self.PAIR_CHUNK_ROWS
        else:
            group, chunk_rows = 1, self.SINGLE_CHUNK_ROWS
        self._table = _GatherTable(
            lut, group=group, num_rows=lut.shape[0], chunk_rows=chunk_rows
        )
        self._workspaces.clear()

    def _ensure_table(self) -> _GatherTable:
        if self._table is None:
            kind = self.table_kind
            lut = self._build_single_lut()
            self._install(self._pair_lut(lut) if kind == "pair" else lut, kind)
            self.table_builds += 1
        return self._table

    def _workspace(self, table: _GatherTable, shard: int, batch: int) -> _Workspace:
        ws = self._workspaces.get((shard, batch))
        if ws is None:
            ws = _Workspace(table, batch, self._spread_words)
            self._workspaces[shard, batch] = ws
        return ws

    # ------------------------------------------------------------------
    # Table export / attach (see repro.fastpath.tablestore)
    # ------------------------------------------------------------------
    @property
    def tables_ready(self) -> bool:
        """Whether a gather table exists (built or attached)."""
        return self._table is not None

    @property
    def table_nbytes(self) -> int:
        """Bytes of gather-table state currently held (0 when cold)."""
        return 0 if self._table is None else int(self._table.flat.nbytes)

    def export_tables(self) -> TableSet:
        """Snapshot the gather table for publication, building it if cold.

        The returned arrays are the encoder's own — treat them as
        read-only, exactly like every other consumer of the tables.
        """
        table = self._ensure_table()
        flat = table.flat.reshape(
            table.num_rows, table.keys_per_row, self._spread_words
        )
        return TableSet(
            kind="pair" if table.group == 2 else "single",
            flat=flat,
            key=table_key(self.num_pixels, self.config),
        )

    def attach_tables(self, tables: TableSet) -> None:
        """Install a published gather table zero-copy (never rebuild).

        The tables must have been exported by an encoder with the same
        :func:`repro.fastpath.tablestore.table_key` and be of the kind this
        geometry builds (:attr:`table_kind`); anything else raises
        :class:`~repro.fastpath.tablestore.TableFormatError`.  Attached
        bytes are byte-identical to built ones (a table file only moves
        bytes), so every subsequent encode is bit-exact with a freshly
        built encoder; ``table_builds`` stays untouched.  An encoder that
        already has a table refuses to attach.
        """
        from .tablestore import TableFormatError

        if self._table is not None:
            raise RuntimeError(
                "encoder already has a gather table; attach_tables only "
                "applies to a cold encoder"
            )
        tables.validate_against(self.num_pixels, self.config)
        kind, levels = self.table_kind, self.config.levels
        if tables.kind != kind:
            raise TableFormatError(
                f"{tables.kind} table cannot attach to an encoder whose "
                f"geometry builds the {kind} table"
            )
        if kind == "single":
            want = (self.num_pixels, levels, self._spread_words)
        else:
            want = ((self.num_pixels + 1) // 2, levels * levels, self._spread_words)
        if tuple(tables.flat.shape) != want:
            raise TableFormatError(
                f"{kind} table shape {tuple(tables.flat.shape)} does "
                f"not match this encoder's {want}"
            )
        self._install(tables.flat, kind)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _normalize(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images)
        if images.dtype == np.uint8:
            flat = images.reshape(images.shape[0], -1)
            if flat.shape[1] != self.num_pixels:
                raise ValueError(
                    f"expected {self.num_pixels} pixels per image, "
                    f"got {flat.shape[1]}"
                )
            return self._intensity_lut[flat]
        return super()._normalize(images)

    def _gather_keys(self, values: np.ndarray, table: _GatherTable) -> np.ndarray:
        """Per-image table keys, shape ``(batch, R)`` intp."""
        values = values.astype(np.intp)
        if table.group == 1:
            return values
        levels = self.config.levels
        full = self.num_pixels // 2
        keys = values[:, 0 : 2 * full : 2] * levels + values[:, 1 : 2 * full : 2]
        if self.num_pixels % 2:
            keys = np.concatenate([keys, values[:, -1:] * levels], axis=1)
        return keys

    def _encode_chunk(
        self, values: np.ndarray, table: _GatherTable, ws: _Workspace
    ) -> np.ndarray:
        batch = values.shape[0]
        spread = self._spread_words
        idx = table.base + self._gather_keys(values, table).T
        for c0 in range(0, table.num_chunks, ws.block_chunks):
            c1 = min(c0 + ws.block_chunks, table.num_chunks)
            r0 = c0 * table.chunk_rows
            r1 = min(c1 * table.chunk_rows, table.num_rows)
            n = r1 - r0
            np.take(table.flat, idx[r0:r1], axis=0, out=ws.rows[:n], mode="clip")
            slab = (c1 - c0) * table.chunk_rows
            if n < slab:  # final partial chunk: pad rows must be zero
                ws.rows[n:slab] = 0
            ws.rows[:slab].reshape(c1 - c0, table.chunk_rows, batch, spread).sum(
                axis=1, out=ws.acc[c0:c1]
            )
        # nibble lanes -> byte lanes (parity-split, chunked so bytes can't
        # overflow) -> uint16 lanes; each stage reads 18x less than the last
        byte_chunks = ws.bytes_even.shape[0]
        np.bitwise_and(ws.acc, _NIBBLE_MASK, out=ws.tmp)
        ws.tmp.reshape(byte_chunks, _BYTE_CHUNK, batch, spread).sum(
            axis=1, out=ws.bytes_even
        )
        np.right_shift(ws.acc, np.uint64(4), out=ws.acc)
        np.bitwise_and(ws.acc, _NIBBLE_MASK, out=ws.tmp)
        ws.tmp.reshape(byte_chunks, _BYTE_CHUNK, batch, spread).sum(
            axis=1, out=ws.bytes_odd
        )
        for i, halves in enumerate((ws.bytes_even, ws.bytes_odd)):
            (halves & _BYTE_MASK).sum(axis=0, out=ws.streams[2 * i])
            ((halves >> np.uint64(8)) & _BYTE_MASK).sum(axis=0, out=ws.streams[2 * i + 1])
        lanes = ws.streams.view(np.uint16).reshape(4, batch, 4 * spread)
        flat = lanes.transpose(1, 0, 2).reshape(batch, 16 * spread)
        counts = flat[:, self._take_index].astype(np.int64)
        return 2 * counts - self.num_pixels

    def encode_batch(self, images: np.ndarray, chunk: int = 32) -> np.ndarray:
        """Accumulators for a batch, shape ``(batch, dim)`` int64.

        Bit-exact with :meth:`SobolLevelEncoder.encode_batch`; ``chunk``
        bounds the gather scratch exactly like the reference tensor chunk.
        A batch spanning two or more chunks fans out over
        ``FANOUT_WIDTH`` threads.  Concurrent calls on one instance must be
        serialized by the caller (the scratch is per instance).
        """
        values = self._normalize(images)
        batch = values.shape[0]
        # a cold encoder builds here, on the calling thread, before any fan-out
        table = self._ensure_table()
        out = np.empty((batch, self.dim), dtype=np.int64)
        starts = range(0, batch, chunk)
        width = min(FANOUT_WIDTH, len(starts))
        if width < 2:
            self._encode_shard(values, table, out, starts, chunk, 0)
            return out
        pool = _shared_executor()
        futures = [
            pool.submit(
                self._encode_shard, values, table, out, starts[k::width], chunk, k
            )
            for k in range(1, width)
        ]
        try:  # the calling thread encodes shard 0 itself
            self._encode_shard(values, table, out, starts[::width], chunk, 0)
        finally:
            wait(futures)  # no shard may outlive the call that owns its scratch
        for future in futures:
            future.result()  # re-raise a shard's exception here
        return out

    def _encode_shard(
        self,
        values: np.ndarray,
        table: _GatherTable,
        out: np.ndarray,
        starts: range,
        chunk: int,
        shard: int,
    ) -> None:
        """Encode the chunks beginning at ``starts`` into ``out``."""
        batch = values.shape[0]
        for start in starts:
            stop = min(start + chunk, batch)
            ws = self._workspace(table, shard, stop - start)
            out[start:stop] = self._encode_chunk(values[start:stop], table, ws)
