"""Table stores: byte-identical round-trips, attach semantics, guards."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.config import UHDConfig
from repro.fastpath import PackedLevelEncoder, encoder as encoder_module
from repro.fastpath.tablestore import (
    HeapStore,
    MmapStore,
    SharedMemoryStore,
    TableFormatError,
    attach_handle,
    make_store,
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


def _stores(tmp_path):
    return [HeapStore(), MmapStore(tmp_path / "tables"), SharedMemoryStore()]


class TestStoreRoundTrip:
    def test_attached_tables_are_byte_identical(self, warm_encoder, tmp_path):
        """The sixth bit-exactness contract, at the byte level."""
        encoder, _, _ = warm_encoder
        exported = encoder.export_tables()
        for store in _stores(tmp_path):
            with store:
                attached = attach_handle(store.publish(exported))
                assert attached is not None, store.name
                assert attached.kind == exported.kind
                assert attached.key == exported.key
                assert np.array_equal(
                    np.asarray(attached.flat), np.asarray(exported.flat)
                ), store.name

    def test_attached_encoder_is_bit_exact(self, warm_encoder, tmp_path):
        encoder, images, expected = warm_encoder
        exported = encoder.export_tables()
        for store in _stores(tmp_path):
            with store:
                cold = PackedLevelEncoder(PIXELS, CONFIG)
                cold.attach_tables(attach_handle(store.publish(exported)))
                assert np.array_equal(cold.encode_batch(images), expected)
                assert cold.table_builds == 0  # attached, never built

    def test_fanned_out_encoder_attaches_packed_tables(
        self, warm_encoder, monkeypatch
    ):
        """Fan-out shards share one attached table: a multi-chunk batch
        over attached shared memory is bit-exact with the serial build."""
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", 2)
        encoder, images, expected = warm_encoder
        with SharedMemoryStore() as store:
            handle = store.publish(encoder.export_tables())
            attached = PackedLevelEncoder(PIXELS, CONFIG)
            attached.attach_tables(attach_handle(handle))
            assert np.array_equal(attached.encode_batch(images), expected)
            assert attached.table_builds == 0

    def test_handles_survive_pickling(self, warm_encoder, tmp_path):
        """Handles cross the worker handshake as pickled tuples."""
        encoder, _, _ = warm_encoder
        exported = encoder.export_tables()
        for store in _stores(tmp_path):
            with store:
                handle = store.publish(exported)
                clone = pickle.loads(pickle.dumps(handle))
                attached = attach_handle(clone)
                assert attached is not None
                assert np.array_equal(
                    np.asarray(attached.flat), np.asarray(exported.flat)
                )

    def test_released_handle_attaches_to_none(self, warm_encoder, tmp_path):
        """A released publication resolves to None — callers build instead."""
        encoder, _, _ = warm_encoder
        exported = encoder.export_tables()
        for store in _stores(tmp_path):
            handle = store.publish(exported)
            store.release(handle)
            assert attach_handle(handle) is None, store.name
            store.close()

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

    def test_unknown_store_name_rejected(self):
        with pytest.raises(ValueError, match="unknown table store"):
            make_store("cloud")

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

    def test_shm_attach_is_read_only(self, warm_encoder):
        encoder, _, _ = warm_encoder
        with SharedMemoryStore() as store:
            attached = attach_handle(store.publish(encoder.export_tables()))
            assert not attached.flat.flags.writeable
            del attached  # drop the segment view before the store unlinks


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
        from repro.fastpath.tablestore import TABLE_FILE_MAGIC

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
