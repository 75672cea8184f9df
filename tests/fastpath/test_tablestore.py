"""Table files: byte-identical round-trips, attach semantics, guards."""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import UHDConfig
from repro.fastpath import PackedLevelEncoder, encoder as encoder_module
from repro.fastpath.tablestore import (
    TABLE_FILE_MAGIC,
    TABLE_FORMAT_VERSION,
    TableFormatError,
    read_table_file,
    table_key,
    write_table_file,
)

PIXELS = 64
CONFIG = UHDConfig(dim=128, backend="packed", binarize=True)
#: the delta table's shape at this geometry: (H, levels, 4 * dim words)
SHAPE = (PIXELS, CONFIG.levels, 8)


@pytest.fixture(scope="module")
def warm_encoder():
    """A warm encoder plus the accumulators it produced to compare to."""
    encoder = PackedLevelEncoder(PIXELS, CONFIG)
    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(160, PIXELS), dtype=np.uint8)
    expected = encoder.encode_batch(images)
    return encoder, images, expected


@pytest.fixture(scope="module")
def table_bytes(warm_encoder, tmp_path_factory):
    """One valid table file's bytes, for mutation tests."""
    encoder, _, _ = warm_encoder
    path = tmp_path_factory.mktemp("valid") / "delta.uhdtbl"
    write_table_file(path, encoder.export_tables())
    return path.read_bytes()


def _read_bytes(data: bytes):
    """``read_table_file`` over ``data`` written to a temporary file."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "t.uhdtbl")
        with open(path, "wb") as handle:
            handle.write(data)
        tables = read_table_file(path)
        tables.flat = np.array(tables.flat)  # detach before the file goes
        return tables


def _header_with(table_bytes: bytes, **changes) -> bytes:
    """``table_bytes`` with its JSON header fields replaced (or dropped
    when the value is ``...``), re-laid out as a well-formed file."""
    offset = len(TABLE_FILE_MAGIC)
    length = int.from_bytes(table_bytes[offset:offset + 8], "little")
    header = json.loads(table_bytes[offset + 8:offset + 8 + length])
    for name, value in changes.items():
        if value is ...:
            del header[name]
        else:
            header[name] = value
    return _relayout(table_bytes, json.dumps(header).encode())


def _relayout(table_bytes: bytes, header: bytes) -> bytes:
    offset = len(TABLE_FILE_MAGIC)
    length = int.from_bytes(table_bytes[offset:offset + 8], "little")
    old_data = -(-(offset + 8 + length) // 64) * 64
    prefix = offset + 8 + len(header)
    padding = b"\x00" * (-(-prefix // 64) * 64 - prefix)
    return (
        TABLE_FILE_MAGIC + len(header).to_bytes(8, "little") + header
        + padding + table_bytes[old_data:]
    )


class TestStoreRoundTrip:
    """Contract 6 over the one table path: export -> file -> attach."""

    @pytest.mark.filterwarnings("ignore:levels=.*power of two")
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        pixels=st.integers(1, 49),
        dim=st.integers(1, 200),
        levels=st.integers(2, 13),
        batch=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_attached_encoder_is_bit_exact(self, pixels, dim, levels, batch, seed):
        """Odd H (including H = 1), ``dim % 64 != 0`` and
        non-power-of-two ``levels``: the attached encoder encodes
        bit-exactly with a built one and never builds a table itself."""
        config = UHDConfig(dim=dim, levels=levels, seed=seed, backend="packed")
        exported = PackedLevelEncoder(pixels, config).export_tables()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "t.uhdtbl")
            write_table_file(path, exported)
            attached_tables = read_table_file(path)
            assert attached_tables.key == exported.key
            assert np.array_equal(attached_tables.flat, exported.flat)
            attached = PackedLevelEncoder(pixels, config)
            attached.attach_tables(attached_tables)
            rng = np.random.default_rng(seed)
            images = rng.integers(0, 256, size=(batch, pixels), dtype=np.uint8)
            built = PackedLevelEncoder(pixels, config).encode_batch(images)
            assert np.array_equal(attached.encode_batch(images), built)
            assert attached.table_builds == 0
            del attached, attached_tables  # release the memmap first

    def test_attached_tables_are_byte_identical(self, warm_encoder, tmp_path):
        """The sixth bit-exactness contract, at the byte level."""
        encoder, _, _ = warm_encoder
        exported = encoder.export_tables()
        path = tmp_path / "delta.uhdtbl"
        write_table_file(path, exported)
        attached = read_table_file(path)
        assert attached.flat.shape == exported.flat.shape == SHAPE
        assert attached.key == exported.key
        assert np.array_equal(np.asarray(attached.flat), np.asarray(exported.flat))

    def test_fanned_out_encoder_attaches_packed_tables(
        self, warm_encoder, monkeypatch, tmp_path
    ):
        """Fan-out shards share one attached table: a multi-chunk batch
        over an attached table file is bit-exact with the serial build."""
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", 2)
        encoder, images, expected = warm_encoder
        path = tmp_path / "fanout.uhdtbl"
        write_table_file(path, encoder.export_tables())
        attached = PackedLevelEncoder(PIXELS, CONFIG)
        attached.attach_tables(read_table_file(path))
        assert np.array_equal(attached.encode_batch(images), expected)
        assert attached.table_builds == 0


class TestGuards:
    def test_attach_refuses_warm_encoder(self, warm_encoder):
        encoder, _, _ = warm_encoder
        with pytest.raises(RuntimeError, match="already has a gather table"):
            encoder.attach_tables(encoder.export_tables())

    def test_attach_refuses_mismatched_key(self, warm_encoder):
        encoder, _, _ = warm_encoder
        exported = encoder.export_tables()
        other = PackedLevelEncoder(PIXELS, UHDConfig(dim=128, seed=99))
        with pytest.raises(TableFormatError, match="cannot attach"):
            other.attach_tables(exported)

    def test_backend_not_part_of_key(self):
        auto = UHDConfig(dim=128, backend="auto", binarize=True)
        assert table_key(PIXELS, CONFIG) == table_key(PIXELS, auto)
        assert table_key(PIXELS, CONFIG) != table_key(PIXELS + 1, CONFIG)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.uhdtbl"
        path.write_bytes(b"definitely not a table file")
        with pytest.raises(TableFormatError, match="bad magic"):
            read_table_file(path)

    def test_truncated_file_raises(self, warm_encoder, tmp_path):
        encoder, _, _ = warm_encoder
        path = tmp_path / "trunc.uhdtbl"
        write_table_file(path, encoder.export_tables())
        full = path.read_bytes()
        path.write_bytes(full[: len(full) // 2])
        with pytest.raises(TableFormatError, match="truncated"):
            read_table_file(path)

    def test_attached_file_is_read_only_memmap(self, warm_encoder, tmp_path):
        encoder, _, _ = warm_encoder
        path = tmp_path / "ro.uhdtbl"
        write_table_file(path, encoder.export_tables())
        attached = read_table_file(path)
        assert isinstance(attached.flat, np.memmap)
        assert not attached.flat.flags.writeable


class TestMalformedHeaders:
    """Every malformed file raises TableFormatError — the only exception
    persistence and the worker bootstrap catch."""

    @pytest.mark.parametrize("field", ["dtype", "shape", "key"])
    def test_missing_field(self, table_bytes, field):
        with pytest.raises(TableFormatError, match="lacks"):
            _read_bytes(_header_with(table_bytes, **{field: ...}))

    def test_header_not_an_object(self, table_bytes):
        with pytest.raises(TableFormatError, match="not an object"):
            _read_bytes(_relayout(table_bytes, b"[1, 2, 3]"))

    def test_deeply_nested_header(self, table_bytes):
        header = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(TableFormatError, match="corrupt table header"):
            _read_bytes(_relayout(table_bytes, header))

    @pytest.mark.parametrize("dtype", ["not-a-dtype", "<i8", {"x": 1}])
    def test_bad_dtype(self, table_bytes, dtype):
        with pytest.raises(TableFormatError, match="dtype"):
            _read_bytes(_header_with(table_bytes, dtype=dtype))

    @pytest.mark.parametrize(
        "shape", [[32, "x", 32], [32, -1, 32], [32, 256], [2**70, 1, 1],
                  [32, 25.0, 32], "abc", [True, 1, 1]],
    )
    def test_bad_shape(self, table_bytes, shape):
        with pytest.raises(TableFormatError):
            _read_bytes(_header_with(table_bytes, shape=shape))

    @pytest.mark.parametrize(
        "changes",
        [{"shape": [PIXELS, 16, 4]}, {"key": [1]}, {"format_version": 1}],
    )
    def test_bad_fields(self, table_bytes, changes):
        """Includes a well-formed file of another shape (it reads, but
        must not attach) and a version-1 header behind version-2 magic."""
        with pytest.raises(TableFormatError):
            tables = _read_bytes(_header_with(table_bytes, **changes))
            PackedLevelEncoder(PIXELS, CONFIG).attach_tables(tables)

    def test_unknown_header_field_is_ignored(self, table_bytes, warm_encoder):
        """Older writers recorded an image counter in the header; files
        carrying a field the reader does not know still attach."""
        tables = _read_bytes(_header_with(table_bytes, retired_counter=200))
        PackedLevelEncoder(PIXELS, CONFIG).attach_tables(tables)
        encoder, _, _ = warm_encoder
        assert np.array_equal(tables.flat, encoder.export_tables().flat)

    def test_huge_header_length(self, table_bytes):
        offset = len(TABLE_FILE_MAGIC)
        data = (
            table_bytes[:offset] + (2**62).to_bytes(8, "little")
            + table_bytes[offset + 8:]
        )
        with pytest.raises(TableFormatError, match="truncated"):
            _read_bytes(data)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(0, 10**9))
    def test_every_truncation_raises(self, table_bytes, cut):
        with pytest.raises(TableFormatError):
            _read_bytes(table_bytes[: cut % len(table_bytes)])

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(position=st.integers(0, 10**9), byte=st.integers(0, 255))
    def test_header_mutation_reads_back_identical_or_raises(
        self, table_bytes, warm_encoder, position, byte
    ):
        """Mutate one byte of the magic, length field or JSON header: the
        read-and-attach path either raises TableFormatError or installs
        the original table bytes (a mutation the JSON parser shrugs off,
        e.g. whitespace)."""
        offset = len(TABLE_FILE_MAGIC)
        length = int.from_bytes(table_bytes[offset:offset + 8], "little")
        position %= offset + 8 + length
        data = bytearray(table_bytes)
        data[position] = byte
        encoder, _, _ = warm_encoder
        try:
            tables = _read_bytes(bytes(data))
            PackedLevelEncoder(PIXELS, CONFIG).attach_tables(tables)
        except TableFormatError:
            return
        assert tables.key == table_key(PIXELS, CONFIG)
        assert np.array_equal(tables.flat, encoder.export_tables().flat)


class TestExport:
    @pytest.mark.parametrize("pixels", [PIXELS, 1], ids=["pair", "single"])
    def test_cold_export_builds_then_exports(self, pixels):
        """A cold export builds the one delta table: ``(H, levels,
        spread_words)``, every level-0 row zero.  The ids name the table
        kind each geometry built in format v1 (pair for H >= 2, single
        for H = 1); both now build the same delta table."""
        encoder = PackedLevelEncoder(pixels, CONFIG)
        assert not encoder.tables_ready
        exported = encoder.export_tables()
        assert encoder.tables_ready
        assert exported.flat.shape == (pixels,) + SHAPE[1:]
        assert not exported.flat[:, 0, :].any()
        assert encoder.table_builds == 1

    def test_table_nbytes_tracks_current_table(self):
        encoder = PackedLevelEncoder(PIXELS, CONFIG)
        assert encoder.table_nbytes == 0
        exported = encoder.export_tables()
        assert encoder.table_nbytes == exported.nbytes > 0


class TestTruncationEdges:
    def test_file_cut_inside_header_length_field(self, tmp_path):
        path = tmp_path / "tiny.uhdtbl"
        path.write_bytes(TABLE_FILE_MAGIC + b"\x10\x00")  # magic + 2 bytes
        with pytest.raises(TableFormatError, match="truncated"):
            read_table_file(path)

    def test_file_cut_inside_header_json(self, tmp_path, warm_encoder):
        encoder, _, _ = warm_encoder
        path = tmp_path / "cut.uhdtbl"
        write_table_file(path, encoder.export_tables())
        full = path.read_bytes()
        path.write_bytes(full[:20])  # magic + length + header fragment
        with pytest.raises(TableFormatError, match="truncated"):
            read_table_file(path)


class TestFormatVersion:
    """Version 2 stores delta rows; a version-1 file (level rows, a
    ``kind`` field) must never attach silently."""

    def _version_1_file(self, path, table_bytes):
        header = json.dumps({
            "format_version": 1, "kind": "single", "shape": list(SHAPE),
            "dtype": "<u8", "key": table_key(PIXELS, CONFIG),
        }).encode()
        relaid = _relayout(table_bytes, header)
        path.write_bytes(b"UHDTBL\x01\n" + relaid[len(TABLE_FILE_MAGIC):])

    def test_version_is_two(self):
        assert TABLE_FORMAT_VERSION == 2
        assert TABLE_FILE_MAGIC == b"UHDTBL\x02\n"

    def test_version_1_file_raises(self, table_bytes, tmp_path):
        path = tmp_path / "v1.uhdtbl"
        self._version_1_file(path, table_bytes)
        with pytest.raises(TableFormatError, match="version 1 is not supported"):
            read_table_file(path)

    def test_header_has_no_kind(self, table_bytes):
        offset = len(TABLE_FILE_MAGIC)
        length = int.from_bytes(table_bytes[offset:offset + 8], "little")
        header = json.loads(table_bytes[offset + 8:offset + 8 + length])
        assert set(header) == {"format_version", "shape", "dtype", "key"}
