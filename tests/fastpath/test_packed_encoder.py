"""Bit-exactness of the packed encoder against the reference quantized path.

The property mirrors the paper's hardware-substitution claim the same way
the unary-domain tests do: every accumulator bit must match, across
dimensions not divisible by 64 and odd/even pixel counts — serial or
fanned out over threads.  ``test_kernel.py`` holds the same contract over
generated geometry for both encode kernels.
"""

import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.core import SobolLevelEncoder, UHDConfig
from repro.api import get_backend
from repro.core.model import UHDClassifier
from repro.fastpath import PackedLevelEncoder
from repro.fastpath import encoder as encoder_module
from repro.fastpath import kernel as kernel_module


def _images(rng, n, pixels):
    return rng.integers(0, 256, size=(n, pixels), dtype=np.uint8)


class TestBitExactness:
    @pytest.mark.parametrize("pixels", [9, 16, 25, 36])  # odd and even H
    @pytest.mark.parametrize("dim", [37, 64, 100])       # incl. D % 64 != 0
    @pytest.mark.parametrize("levels", [4, 16])
    def test_matches_reference(self, pixels, dim, levels, rng):
        config = UHDConfig(dim=dim, levels=levels)
        reference = SobolLevelEncoder(pixels, config)
        packed = PackedLevelEncoder(pixels, config)
        images = _images(rng, 6, pixels)
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )

    @pytest.mark.parametrize("pixels", [7, 12])
    def test_sparse_images_match_reference(self, pixels, rng):
        """Mostly level-0 pixels, which the compiled kernel skips."""
        config = UHDConfig(dim=96, levels=16)
        reference = SobolLevelEncoder(pixels, config)
        packed = PackedLevelEncoder(pixels, config)
        images = _images(rng, 5, pixels)
        images[:, ::2] = 0
        images[0] = 0
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )

    def test_float_images(self, rng):
        config = UHDConfig(dim=80, levels=16)
        reference = SobolLevelEncoder(12, config)
        packed = PackedLevelEncoder(12, config)
        images = rng.random((4, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )

    def test_single_image_encode(self, rng):
        config = UHDConfig(dim=48)
        reference = SobolLevelEncoder(9, config)
        packed = PackedLevelEncoder(9, config)
        image = _images(rng, 1, 9)[0]
        np.testing.assert_array_equal(packed.encode(image), reference.encode(image))

    def test_batch_chunking_invariant(self, rng):
        config = UHDConfig(dim=64)
        packed = PackedLevelEncoder(25, config)
        images = _images(rng, 11, 25)
        np.testing.assert_array_equal(
            packed.encode_batch(images, chunk=3), packed.encode_batch(images, chunk=32)
        )

    def test_extreme_images(self):
        """All-black / all-white hit the count bounds 0 and H exactly."""
        config = UHDConfig(dim=70, levels=16)
        reference = SobolLevelEncoder(33, config)
        packed = PackedLevelEncoder(33, config)
        images = np.stack([
            np.zeros(33, dtype=np.uint8), np.full(33, 255, dtype=np.uint8)
        ])
        np.testing.assert_array_equal(
            packed.encode_batch(images), reference.encode_batch(images)
        )


def _encode_in_child(encoder, images, conn):
    conn.send(encoder.encode_batch(images))
    conn.close()


def _spy_shards(monkeypatch, encoder) -> set:
    """The shard indices ``encoder.encode_batch`` runs from now on."""
    used: set = set()
    original = encoder._encode_shard

    def spy(*args):
        used.add(args[-1])
        return original(*args)

    monkeypatch.setattr(encoder, "_encode_shard", spy)
    return used


class TestFanOut:
    """Batches of two or more chunks split over ``FANOUT_WIDTH`` threads."""

    @pytest.fixture()
    def rng(self):
        """Function-scoped stream: leaves the session ``rng`` fixture (and
        the statistical asserts at fixed positions of it) untouched."""
        return np.random.default_rng(2718)

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("batch", [1, 7, 33, 70])
    def test_bit_exact_with_reference(self, rng, monkeypatch, width, batch):
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", width)
        config = UHDConfig(dim=128)
        reference = SobolLevelEncoder(49, config)
        packed = PackedLevelEncoder(49, config)
        images = _images(rng, batch, 49)
        used = _spy_shards(monkeypatch, packed)
        np.testing.assert_array_equal(
            packed.encode_batch(images, chunk=16),
            reference.encode_batch(images, chunk=16),
        )
        shards = min(width, -(-batch // 16))
        assert used == (set(range(shards)) if shards > 1 else {0})

    def test_more_shards_than_cores_under_frequent_switching(
        self, rng, monkeypatch
    ):
        """Eight shards write disjoint rows of one output while threads
        switch every microsecond — through the loaded kernel, and through
        the NumPy path, whose shards also share the workspace dict."""
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", 8)
        monkeypatch.setattr(encoder_module, "_executor", None)  # 7 threads
        config = UHDConfig(dim=128)
        reference = SobolLevelEncoder(49, config)
        loaded = PackedLevelEncoder(49, config)
        with monkeypatch.context() as patch:
            patch.setattr(kernel_module, "load", lambda: None)
            fallback = PackedLevelEncoder(49, config)
            fallback.export_tables()  # binds the NumPy path
        assert fallback.kernel == "numpy"
        images = _images(rng, 70, 49)
        expected = reference.encode_batch(images)
        for packed in (loaded, fallback):
            used = _spy_shards(monkeypatch, packed)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(5):
                    np.testing.assert_array_equal(
                        packed.encode_batch(images, chunk=4), expected
                    )
            finally:
                sys.setswitchinterval(interval)
            assert used == set(range(8))
        assert {shard for shard, _ in fallback._workspaces} == set(range(8))

    def test_width_one_never_creates_an_executor(self, rng, monkeypatch):
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", 1)
        monkeypatch.setattr(encoder_module, "_executor", None)
        packed = PackedLevelEncoder(49, UHDConfig(dim=64))
        packed.encode_batch(_images(rng, 70, 49), chunk=16)
        assert encoder_module._executor is None

    def test_executor_recreated_when_pid_changes(self, monkeypatch):
        first = encoder_module._shared_executor()
        assert encoder_module._shared_executor() is first  # cached per process
        # what a forked child sees: an executor recorded under another pid
        monkeypatch.setattr(encoder_module, "_executor", (-1, first))
        second = encoder_module._shared_executor()
        assert second is not first
        assert second.submit(lambda: 21 * 2).result(timeout=5.0) == 42

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FORCE_SPAWN"))
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_encodes_after_parent_fanned_out(self, rng, monkeypatch):
        """A child inherits the parent's executor object but not its
        threads; it must start its own pool instead of hanging."""
        monkeypatch.setattr(encoder_module, "FANOUT_WIDTH", 4)
        packed = PackedLevelEncoder(49, UHDConfig(dim=128))
        images = _images(rng, 64, 49)
        expected = packed.encode_batch(images)  # two chunks: fans out
        assert encoder_module._executor is not None
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_encode_in_child, args=(packed, images, sender)
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(30.0), "forked child hung while encoding"
            got = receiver.recv()
        finally:
            child.join(5.0)
            if child.is_alive():
                child.kill()
                child.join()
        np.testing.assert_array_equal(got, expected)
        assert child.exitcode == 0


class TestValidationAndSelection:
    def test_requires_quantized(self):
        with pytest.raises(ValueError, match="quantized"):
            PackedLevelEncoder(4, UHDConfig(dim=32, quantized=False))

    def test_wrong_pixel_count(self):
        packed = PackedLevelEncoder(4, UHDConfig(dim=32))
        with pytest.raises(ValueError, match="pixels"):
            packed.encode_batch(np.zeros((1, 5), dtype=np.uint8))

    def test_auto_selects_packed_when_quantized(self):
        config = UHDConfig(dim=32)
        backend = get_backend(config.backend)
        assert backend.encoder_kind(config, 16) == "packed"
        assert isinstance(backend.make_encoder(16, config), PackedLevelEncoder)

    def test_auto_falls_back_when_not_quantized(self):
        config = UHDConfig(dim=32, quantized=False)
        backend = get_backend(config.backend)
        assert backend.encoder_kind(config, 16) == "reference"
        encoder = backend.make_encoder(16, config)
        assert not isinstance(encoder, PackedLevelEncoder)

    def test_forced_packed_without_quantization_raises(self):
        config = UHDConfig(dim=32, quantized=False, backend="packed")
        with pytest.raises(ValueError, match="quantized"):
            get_backend(config.backend).encoder_kind(config, 16)

    def test_reference_backend_respected(self):
        config = UHDConfig(dim=32, backend="reference")
        assert get_backend(config.backend).encoder_kind(config, 16) == "reference"

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            UHDConfig(backend="gpu")


@pytest.mark.parametrize("backend", ["reference", "packed"])
class TestDegenerateBatches:
    """``chunk < 1`` is refused and an empty batch is an empty result —
    never uninitialised memory or a reshape error."""

    def _encoder(self, backend):
        config = UHDConfig(dim=70, backend=backend)
        return get_backend(backend).make_encoder(25, config)

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_raises(self, backend, chunk):
        encoder = self._encoder(backend)
        images = np.full((3, 25), 100, dtype=np.uint8)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            encoder.encode_batch(images, chunk=chunk)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32])
    def test_empty_batch_encodes_to_empty(self, backend, dtype):
        out = self._encoder(backend).encode_batch(np.zeros((0, 25), dtype=dtype))
        assert out.shape == (0, 70) and out.dtype == np.int64

    def test_empty_batch_still_checks_pixels(self, backend):
        with pytest.raises(ValueError, match="pixels"):
            self._encoder(backend).encode_batch(np.zeros((0, 24), dtype=np.uint8))

    @pytest.mark.parametrize("binarize", [False, True])
    def test_predict_on_zero_rows(self, backend, binarize, tiny_digits):
        config = UHDConfig(dim=64, backend=backend, binarize=binarize)
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, config
        ).fit(tiny_digits.train_images[:40], tiny_digits.train_labels[:40])
        empty = tiny_digits.test_images[:0]
        labels = model.predict(empty)
        assert labels.shape == (0,)
