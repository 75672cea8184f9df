"""Bit-exactness of the packed encoder against the reference quantized path.

The property mirrors the paper's hardware-substitution claim the same way
the unary-domain tests do: every accumulator bit must match, across
dimensions not divisible by 64, odd/even pixel counts and chunk
boundaries.  ``test_kernel.py`` holds the same contract over
generated geometry for both encode kernels.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.core import SobolLevelEncoder, UHDConfig
from repro.api import get_backend
from repro.core.model import UHDClassifier
from repro.fastpath import PackedLevelEncoder, pack_bits, packed_predict
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

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    @pytest.mark.parametrize("batch", [1, 7, 33, 70])
    def test_batches_across_chunks_match_reference(self, monkeypatch, batch, kernel):
        """The compiled kernel takes each batch in one call; the NumPy path
        walks it in 16-row chunks with a short last one."""
        if kernel == "numpy":
            monkeypatch.setattr(kernel_module, "load", lambda: None)
        rng = np.random.default_rng(2718)  # leaves the session stream alone
        config = UHDConfig(dim=128)
        reference = SobolLevelEncoder(49, config)
        packed = PackedLevelEncoder(49, config)
        if packed.kernel != kernel:
            pytest.skip("compiled encode kernel unavailable here")
        images = _images(rng, batch, 49)
        np.testing.assert_array_equal(
            packed.encode_batch(images, chunk=16),
            reference.encode_batch(images, chunk=16),
        )

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


class TestOneThreadPerCall:
    """Every call runs on its caller's thread: the encoder starts none."""

    @pytest.fixture()
    def rng(self):
        """Function-scoped stream: leaves the session ``rng`` fixture (and
        the statistical asserts at fixed positions of it) untouched."""
        return np.random.default_rng(2718)

    def test_one_kernel_call_per_batch_and_no_thread(self, rng, monkeypatch):
        """A 70-row batch spans three default chunks; the compiled kernel
        still takes it in one call, on the calling thread."""
        packed = PackedLevelEncoder(49, UHDConfig(dim=1100))
        if packed.kernel != "c":
            pytest.skip("compiled encode kernel unavailable here")
        images = _images(rng, 70, 49)
        class_words = pack_bits(rng.random((3, 1100)) < 0.5)
        reference = SobolLevelEncoder(49, UHDConfig(dim=1100))
        expected_acc = reference.encode_batch(images)
        expected_labels = packed_predict(expected_acc, class_words, 1100)
        calls: list[tuple[str, int]] = []
        started: list[threading.Thread] = []

        def spy(name):
            original = getattr(kernel_module.EncodeKernel, name)

            def call(self, *args, **kwargs):
                calls.append((name, threading.get_ident()))
                return original(self, *args, **kwargs)

            return call

        for name in ("encode", "predict"):
            monkeypatch.setattr(kernel_module.EncodeKernel, name, spy(name))
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        np.testing.assert_array_equal(packed.encode_batch(images), expected_acc)
        np.testing.assert_array_equal(
            packed.predict_packed(images, class_words), expected_labels
        )
        caller = threading.get_ident()
        assert calls == [("encode", caller), ("predict", caller)]
        assert started == []

    def test_numpy_path_loops_chunks_on_the_calling_thread(self, rng, monkeypatch):
        """Without the kernel, a 70-row batch runs as chunks of 32, 32 and 6
        rows under the encoder lock: no thread, one workspace per row count."""
        monkeypatch.setattr(kernel_module, "load", lambda: None)
        packed = PackedLevelEncoder(49, UHDConfig(dim=1100))
        assert packed.kernel == "numpy"
        images = _images(rng, 70, 49)
        class_words = pack_bits(rng.random((3, 1100)) < 0.5)
        expected_acc = SobolLevelEncoder(49, UHDConfig(dim=1100)).encode_batch(images)
        expected_labels = packed_predict(expected_acc, class_words, 1100)
        started: list[threading.Thread] = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        np.testing.assert_array_equal(packed.encode_batch(images), expected_acc)
        np.testing.assert_array_equal(
            packed.predict_packed(images, class_words), expected_labels
        )
        assert started == []
        assert sorted(packed._workspaces) == [6, 32]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_child_encodes_like_parent(self, rng):
        """A child forked from a parent with a warm encoder (table built,
        kernel loaded) encodes the same multi-chunk batch bit-exactly."""
        packed = PackedLevelEncoder(49, UHDConfig(dim=128))
        images = _images(rng, 64, 49)
        expected = packed.encode_batch(images)  # warm in the parent
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


class TestConcurrentCallers:
    """One encoder shared by many threads, as serving executors share it.

    The compiled kernel takes no lock, and the encoder's own lock guards
    the cold-table build and the NumPy path's workspaces; the serving
    layer relies on exactly this and holds no lock of its own.
    """

    BATCHES = (1, 7, 33, 70)

    @pytest.fixture()
    def rng(self):
        return np.random.default_rng(1618)

    @pytest.mark.parametrize("kernel", ["c", "numpy"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_threads_share_one_encoder_bit_exactly(
        self, rng, monkeypatch, kernel, warm
    ):
        if kernel == "numpy":
            monkeypatch.setattr(kernel_module, "load", lambda: None)
        config = UHDConfig(dim=128)
        reference = SobolLevelEncoder(49, config)
        packed = PackedLevelEncoder(49, config)
        if packed.kernel != kernel:
            pytest.skip("compiled encode kernel unavailable here")
        if warm:
            packed.encode_batch(_images(rng, 1, 49))
        jobs = [
            [_images(rng, batch, 49) for batch in self.BATCHES[k:] + self.BATCHES[:k]]
            for k in range(4)
        ]
        results: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in jobs]
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(jobs))

        def run(index: int) -> None:
            try:
                barrier.wait()  # cold: all four race the table build
                for _ in range(3):
                    for images in jobs[index]:
                        results[index].append(
                            (images, packed.encode_batch(images, chunk=16))
                        )
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert sum(map(len, results)) == 4 * 3 * len(self.BATCHES)
        for rows in results:
            for images, got in rows:
                np.testing.assert_array_equal(got, reference.encode_batch(images))
        assert packed.table_builds == 1
        assert packed.kernel == kernel


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
