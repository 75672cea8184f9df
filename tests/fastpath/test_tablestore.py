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
    TableFormatError,
    read_table_file,
    table_key,
    write_table_file,
)

PIXELS = 64
CONFIG = UHDConfig(dim=128, backend="packed", binarize=True)


@pytest.fixture(scope="module")
def warm_encoder():
    """A pair-promoted encoder plus reference accumulators to compare to."""
    encoder = PackedLevelEncoder(PIXELS, CONFIG)
    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(160, PIXELS), dtype=np.uint8)
    expected = encoder.encode_batch(images)
    assert encoder._table.group == 2  # promoted: the big-table case
    return encoder, images, expected


@pytest.fixture(scope="module")
def table_bytes(warm_encoder, tmp_path_factory):
    """One valid table file's bytes (pair table), for mutation tests."""
    encoder, _, _ = warm_encoder
    path = tmp_path_factory.mktemp("valid") / "pair.uhdtbl"
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
        pair=st.booleans(),
        batch=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_attached_encoder_is_bit_exact(
        self, pixels, dim, levels, pair, batch, seed
    ):
        """Odd H, ``dim % 64 != 0``, non-power-of-two ``levels``, single
        and pair tables: the attached encoder encodes bit-exactly with a
        built one and never builds a table itself."""
        config = UHDConfig(dim=dim, levels=levels, seed=seed, backend="packed")
        exported = PackedLevelEncoder(pixels, config).export_tables(promote=pair)
        assert exported.kind == ("pair" if pair and pixels >= 2 else "single")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "t.uhdtbl")
            write_table_file(path, exported)
            attached_tables = read_table_file(path)
            assert attached_tables.kind == exported.kind
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
        path = tmp_path / "pair.uhdtbl"
        write_table_file(path, exported)
        attached = read_table_file(path)
        assert attached.kind == exported.kind == "pair"
        assert attached.key == exported.key
        assert attached.images_seen == exported.images_seen
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

    def test_single_table_attach_then_promotes_locally(self, tmp_path):
        """Attaching a pre-promotion (single) table still allows the
        local lazy pair promotion — built on top of the attached bytes."""
        encoder = PackedLevelEncoder(PIXELS, CONFIG)
        rng = np.random.default_rng(3)
        few = rng.integers(0, 256, size=(8, PIXELS), dtype=np.uint8)
        many = rng.integers(0, 256, size=(200, PIXELS), dtype=np.uint8)
        expected_few = encoder.encode_batch(few)
        exported = encoder.export_tables()  # still single: 8 < promote point
        assert exported.kind == "single"
        path = tmp_path / "single.uhdtbl"
        write_table_file(path, exported)
        cold = PackedLevelEncoder(PIXELS, CONFIG)
        cold.attach_tables(read_table_file(path))
        assert np.array_equal(cold.encode_batch(few), expected_few)
        assert cold.table_builds == 0
        expected_many = PackedLevelEncoder(PIXELS, CONFIG).encode_batch(many)
        assert np.array_equal(cold.encode_batch(many), expected_many)
        assert cold._table.group == 2  # promoted past the attached table
        assert cold.table_builds == 1  # exactly the pair build, nothing else


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

    @pytest.mark.parametrize("field", ["dtype", "shape", "key", "kind"])
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
        "changes", [{"kind": "triple"}, {"key": [1]}, {"images_seen": -1}],
    )
    def test_bad_fields(self, table_bytes, changes):
        with pytest.raises(TableFormatError):
            _read_bytes(_header_with(table_bytes, **changes))

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
        e.g. whitespace, or one to ``images_seen``)."""
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
        assert tables.kind == "pair"
        assert tables.key == table_key(PIXELS, CONFIG)
        assert np.array_equal(tables.flat, encoder.export_tables().flat)


class TestExport:
    def test_cold_export_builds_then_exports(self):
        encoder = PackedLevelEncoder(PIXELS, CONFIG)
        assert not encoder.tables_ready
        exported = encoder.export_tables()
        assert encoder.tables_ready
        assert exported.kind == "single"
        assert exported.flat.shape[0] == PIXELS

    def test_promote_export_forces_pair_table(self):
        encoder = PackedLevelEncoder(PIXELS, CONFIG)
        exported = encoder.export_tables(promote=True)
        assert exported.kind == "pair"
        assert exported.flat.shape[0] == (PIXELS + 1) // 2
        # an attacher inherits the promoted state: no later re-promotion
        assert exported.images_seen >= PackedLevelEncoder.PAIR_PROMOTE_IMAGES

    def test_table_nbytes_tracks_current_table(self):
        encoder = PackedLevelEncoder(PIXELS, CONFIG)
        assert encoder.table_nbytes == 0
        encoder.export_tables()
        single = encoder.table_nbytes
        assert single > 0
        encoder.export_tables(promote=True)
        assert encoder.table_nbytes > single  # pair table is xi x larger


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
