"""Packed uHD level encoder: a sparse delta-table gather + bit-sliced counting.

The quantized reference path (:class:`repro.core.encoder.SobolLevelEncoder`)
compares every image code against every Sobol code, materializing a
``(batch, H, D)`` boolean tensor.  Quantization to ``xi`` levels makes that
tensor redundant: pixel ``p`` can only produce ``xi`` distinct level rows,
all known at construction, so encoding becomes a table gather plus a
vertical popcount — no per-image comparisons at all.

The delta table and the sparse-skip identity
--------------------------------------------
For codes ``v >= 0`` the level row splits into a fixed part and a delta,
because ``[v >= c] ⊇ [0 >= c]``:

``[v >= c_pj] = [c_pj == 0] + [1 <= c_pj <= v]``

so, with ``base[j] = Σ_p [c_pj == 0]`` (a constant of the encoder),

``counts[j] = base[j] + Σ_{p : v_p > 0} delta[p, v_p][j]``,
``delta[p, v] = [1 <= c_p <= v]``.

The stored table is ``delta``, packed like a hypervector: shape
``(H, xi, ceil(D / 64))`` uint64, 1.6 MB at H=784, D=1024.  Its
invariant: ``delta[p, 0]`` is all zero and ``delta[p, v] ⊆ delta[p, v+1]``,
so a level-0 pixel contributes nothing — the compiled kernel skips it
outright (80% of synthetic-MNIST pixels), and every path adds ``base``
once per image.

Vertical popcount layout
------------------------
Summing gathered rows needs per-*column* counts, which packed words do not
give directly.  Two implementations get them from the same packed table
and produce the same bits:

* the compiled kernel (:mod:`repro.fastpath.kernel`) counts bit-sliced:
  each dimension's count is held as ``H.bit_length()`` bit-planes, rows
  ripple 15 at a time into a 4-plane counter in registers, and that
  counter is added into the planes with a full-adder chain — the
  counter-then-comparator bank of uHD's hardware, one word of dimensions
  per operation.  It walks one image's non-zero pixels with its state on
  the stack and runs with the GIL released;
* the NumPy path, which runs only when the kernel cannot load, first
  widens the table **nibble-spread** (dimension bit ``i`` to a 4-bit
  lane, spread word ``s`` holding dimension ``16 s + n`` in nibble lane
  ``n``; 4x the bytes), so 15 rows fold with plain ``uint64`` adds; it
  gathers every pixel's row with ``np.take`` in cache-sized blocks and
  widens nibble lanes to bytes (17 flushes of 15 fit 255) and bytes to
  uint16 with mask/shift streams.

:attr:`PackedLevelEncoder.kernel` says which one runs.  Both are bit-exact
with the reference quantized encoder (the tests assert it over generated
geometry), mirroring the paper's claim that the unary hardware datapath
substitutes for arithmetic without changing a single output bit.

Fused binarized predict
-----------------------
:meth:`PackedLevelEncoder.predict_packed` is encode, sign-binarize, pack
and Hamming search in one compiled call per batch: uint8 pixels go in
through the 256-entry level table, bit ``d`` is set when
``count_d >= need_d`` with ``need = ceil(H / 2) - base`` (exactly
``acc >= 0``; its bit-planes, clamped at 0, are computed once per table
and compared against the count planes from the top plane down), and the
label of the class with
the fewest disagreeing bits comes out, ties to the lowest index.  No
accumulator or packed query is ever stored.  Other inputs, and the NumPy
path, run the inherited composition
``packed_predict(encode_batch(x), class_words, dim)``, which is also the
oracle the tests hold the kernel to.

Concurrent callers
------------------
Every call runs on its caller's thread and the encoder starts none of
its own: parallelism belongs to whoever issues the batches (in serving,
the ``workers`` executor threads, which share one encoder per model
geometry).  The compiled kernel takes a whole batch in one call, keeps
its accumulators on the stack and reads only the immutable table, so
calls on it take no lock and release the GIL.  The encoder's own lock
guards the two pieces of mutable state: the cold-table build (so a
table is built once, however many threads race the first encode) and
the NumPy path's workspaces, whose calls it serializes.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.config import UHDConfig
from ..core.encoder import SobolLevelEncoder
from ..lds.quantize import quantize_intensity
from . import kernel as native_kernel
from .bitops import pack_bits, words_for_bits

__all__ = ["PackedLevelEncoder"]

_NIBBLE_MASK = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTE_MASK = np.uint64(0x00FF00FF00FF00FF)
#: delta rows a nibble lane holds before it could overflow (each adds <= 1)
_NIBBLE_ROWS = 15
#: nibble-acc rows folded per byte-lane chunk: 17 * 15 = 255 just fits a byte
_BYTE_CHUNK = 17
_SPREAD_STEPS = (
    (np.uint64(24), np.uint64(0x000000FF000000FF)),
    (np.uint64(12), np.uint64(0x000F000F000F000F)),
    (np.uint64(6), np.uint64(0x0303030303030303)),
    (np.uint64(3), np.uint64(0x1111111111111111)),
)


def _spread16(x: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each word so bit ``i`` lands at bit ``4i``."""
    x = x & np.uint64(0xFFFF)
    for shift, mask in _SPREAD_STEPS:
        x = (x | (x << shift)) & mask
    return x


def _bit_planes(values: np.ndarray, planes: int) -> np.ndarray:
    """``(planes, words)`` uint64: plane ``k`` packs bit ``k`` of every value."""
    bits = (values[None, :] >> np.arange(planes, dtype=values.dtype)[:, None]) & 1
    return pack_bits(bits.astype(bool))


def _spread_lut(packed: np.ndarray) -> np.ndarray:
    """The NumPy path's nibble-spread copy of the packed delta table."""
    spread = np.empty(packed.shape[:-1] + (4 * packed.shape[-1],), dtype=np.uint64)
    for k in range(4):
        spread[..., k::4] = _spread16(packed >> np.uint64(16 * k))
    return spread


class _GatherTable:
    """The packed ``(H, levels, words)`` delta LUT, ``base``, the bit-planes
    of ``need``, and the kernel reading them.

    The compiled kernel reads ``lut`` itself; only when it cannot load is
    the NumPy path's nibble-spread copy built (``flat``, 4x the bytes).
    """

    def __init__(
        self,
        lut: np.ndarray,
        base: np.ndarray,
        native: native_kernel.EncodeKernel | None,
    ):
        pixels, levels, _ = lut.shape
        self.lut = lut
        self.base = base  # (dim,) int64: pixels whose Sobol code is 0
        # acc >= 0 exactly when count >= need = ceil(H / 2) - base; a count
        # is never negative, so need is clamped at 0 before slicing it
        need = np.maximum((pixels + 1) // 2 - base, 0)
        self.need_planes = _bit_planes(need, pixels.bit_length())
        self.native = native  # None: the NumPy path runs
        self.flat = (
            None if native is not None
            else _spread_lut(lut).reshape(pixels * levels, -1)
        )
        self.num_rows = pixels
        self.num_chunks = -(-pixels // _NIBBLE_ROWS)
        self.row_offsets = (np.arange(pixels, dtype=np.intp) * levels)[:, None]

    @property
    def nbytes(self) -> int:
        return self.lut.nbytes + (0 if self.flat is None else self.flat.nbytes)


class _Workspace:
    """Preallocated per-batch-size scratch so the NumPy path never allocates."""

    #: gather/reduce block target; ~a quarter of L2 so the gathered slab is
    #: still cache-hot when the chunk reduction reads it back
    BLOCK_BYTES = 512 * 1024

    def __init__(self, table: _GatherTable, batch: int, spread_words: int):
        chunk_bytes = _NIBBLE_ROWS * batch * spread_words * 8
        self.block_chunks = max(1, self.BLOCK_BYTES // chunk_bytes)
        padded = min(self.block_chunks, table.num_chunks) * _NIBBLE_ROWS
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

    #: per-dimension counts may reach H: they must fit the NumPy path's
    #: uint16 lanes and the kernel's 16 bit-planes
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
        #: NumPy-path scratch keyed by chunk rows
        self._workspaces: dict[int, _Workspace] = {}
        #: guards the cold-table build and the NumPy path's workspaces
        self._lock = threading.Lock()
        #: gather tables this instance built (1 once warm, however many
        #: threads raced the first encode)
        self.table_builds = 0
        self._take_index = self._lane_permutation()
        self._intensity_lut = quantize_intensity(
            np.arange(256, dtype=np.uint8), config.levels
        )
        #: the same pixel-to-level table, in the fused kernel's dtype
        self._level16 = self._intensity_lut.astype(np.uint16)

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

    def _build_delta_lut(self) -> np.ndarray:
        """Packed rows ``[1 <= codes[p, :] <= t]`` for every (pixel, level)."""
        levels = self.config.levels
        codes = self.quantized_codes
        nonzero = codes != 0
        lut = np.empty((self.num_pixels, levels, self._dim_words), dtype=np.uint64)
        for t in range(levels):
            lut[:, t, :] = pack_bits(nonzero & (codes <= t))
        return lut

    def _ensure_table(self) -> _GatherTable:
        table = self._table
        if table is None:
            with self._lock:
                if self._table is None:
                    base = (self.quantized_codes == 0).sum(axis=0, dtype=np.int64)
                    self._table = _GatherTable(
                        self._build_delta_lut(), base, native_kernel.load()
                    )
                    self.table_builds += 1
                table = self._table
        return table

    def _workspace(self, table: _GatherTable, batch: int) -> _Workspace:
        ws = self._workspaces.get(batch)
        if ws is None:
            ws = _Workspace(table, batch, self._spread_words)
            self._workspaces[batch] = ws
        return ws

    @property
    def kernel(self) -> str:
        """``"c"`` when encoding runs the compiled kernel, else ``"numpy"``.

        Read-only: the kernel is used whenever it loads
        (:func:`repro.fastpath.kernel.load`).  A warm encoder reports the
        implementation bound to its table; a cold one, the one its first
        encode will bind.
        """
        if self._table is not None:
            native = self._table.native
        else:
            native = native_kernel.load()
        return "numpy" if native is None else "c"

    @property
    def table_nbytes(self) -> int:
        """Bytes of gather-table state currently held (0 when cold)."""
        return 0 if self._table is None else int(self._table.nbytes)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _normalize(self, images: np.ndarray) -> np.ndarray:
        flat = self._flatten(images)
        if flat.dtype == np.uint8:
            return np.take(self._intensity_lut, flat)
        return super()._normalize(flat)

    def _encode_chunk(
        self, values: np.ndarray, table: _GatherTable, ws: _Workspace
    ) -> np.ndarray:
        """The NumPy path: every pixel's delta row, level 0 included."""
        batch = values.shape[0]
        spread = self._spread_words
        idx = table.row_offsets + values.T.astype(np.intp)
        for c0 in range(0, table.num_chunks, ws.block_chunks):
            c1 = min(c0 + ws.block_chunks, table.num_chunks)
            r0 = c0 * _NIBBLE_ROWS
            r1 = min(c1 * _NIBBLE_ROWS, table.num_rows)
            n = r1 - r0
            np.take(table.flat, idx[r0:r1], axis=0, out=ws.rows[:n], mode="clip")
            slab = (c1 - c0) * _NIBBLE_ROWS
            if n < slab:  # final partial chunk: pad rows must be zero
                ws.rows[n:slab] = 0
            ws.rows[:slab].reshape(c1 - c0, _NIBBLE_ROWS, batch, spread).sum(
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
        return 2 * (counts + table.base) - self.num_pixels

    def encode_batch(self, images: np.ndarray, chunk: int = 32) -> np.ndarray:
        """Accumulators for a batch, shape ``(batch, dim)`` int64.

        Bit-exact with :meth:`SobolLevelEncoder.encode_batch`.  The
        compiled kernel encodes the whole batch in one call; ``chunk``
        (>= 1) bounds the NumPy path's gather scratch exactly like the
        reference tensor chunk.  Safe to call from several threads at once
        (see the module docstring).
        """
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        values = self._normalize(images)
        batch = values.shape[0]
        out = np.empty((batch, self.dim), dtype=np.int64)
        if batch == 0:
            return out
        table = self._ensure_table()
        if table.native is not None:
            table.native.encode(table.lut, table.base, values, out)
            return out
        with self._lock:  # the NumPy path's workspaces are shared state
            for start in range(0, batch, chunk):
                stop = min(start + chunk, batch)
                ws = self._workspace(table, stop - start)
                out[start:stop] = self._encode_chunk(values[start:stop], table, ws)
        return out

    def predict_packed(
        self, images: np.ndarray, class_words: np.ndarray
    ) -> np.ndarray:
        """Binarized labels, bit-exact with the inherited composition.

        uint8 images on the compiled kernel take one fused call per batch
        (:meth:`repro.fastpath.kernel.EncodeKernel.predict`): pixels in,
        labels out, no accumulator or packed query stored.  Anything else
        runs the inherited encode-then-pack composition.
        """
        flat = self._flatten(images)
        table = self._ensure_table()
        if table.native is None or flat.dtype != np.uint8:
            return super().predict_packed(flat, class_words)
        class_words = np.ascontiguousarray(class_words, dtype=np.uint64)
        labels = np.empty(flat.shape[0], dtype=np.int64)
        table.native.predict(
            table.lut, self._level16, table.need_planes,
            flat, class_words, labels, self.dim,
        )
        return labels
