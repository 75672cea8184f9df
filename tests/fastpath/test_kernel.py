"""The compiled kernel: contracts 1 and 2 over generated geometry, and a
loader that never runs a build it cannot trust.

Contract 1 (packed encode == reference encode, bit for bit) and the
fused predict's oracle check (``PackedLevelEncoder.predict_packed`` ==
``packed_predict`` of the reference accumulators, ties to the lowest
class) are checked for both implementations behind
``PackedLevelEncoder``: the compiled kernel and the NumPy path it falls
back to (forced here by patching the loader).  The compiled cases skip
where the kernel cannot load (no ``cffi``); CI runs one leg with it and
one without.
"""

from __future__ import annotations

import os
import shutil
import stat
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import SobolLevelEncoder, UHDClassifier, UHDConfig
from repro.fastpath import PackedLevelEncoder, pack_accumulators, packed_predict
from repro.fastpath.bitops import pack_bits
from repro.fastpath import encoder as encoder_module
from repro.fastpath import kernel as kernel_module
from repro.fastpath.kernel import KernelUnavailable


@pytest.fixture(scope="module")
def compiled():
    """The process's loaded kernel; skips where it cannot load."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loaded = kernel_module.load()
    if loaded is None:
        pytest.skip("compiled encode kernel unavailable here")
    return loaded


def _numpy_encoder(pixels: int, config: UHDConfig) -> PackedLevelEncoder:
    """An encoder whose table is bound to the NumPy path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "load", lambda: None)
        encoder = PackedLevelEncoder(pixels, config)
        encoder._ensure_table()
    assert encoder.kernel == "numpy"
    return encoder


def _draw_images(data, batch: int, pixels: int) -> np.ndarray:
    kind = data.draw(st.sampled_from(["random", "sparse", "zeros", "full", "uniform"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    if kind == "zeros":
        return np.zeros((batch, pixels), dtype=np.uint8)
    if kind == "full":
        return np.full((batch, pixels), 255, dtype=np.uint8)
    if kind == "uniform":
        return np.full((batch, pixels), data.draw(st.integers(0, 255)), dtype=np.uint8)
    images = rng.integers(0, 256, size=(batch, pixels), dtype=np.uint8)
    if kind == "sparse":
        images[rng.random(images.shape) < 0.8] = 0
    return images


class TestContractOneGenerated:
    """Packed encode == ``SobolLevelEncoder.encode_batch`` over drawn
    geometry, for both kernels, across chunk and fan-out boundaries."""

    @pytest.mark.filterwarnings("ignore:levels=.*power of two")
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        pixels=st.sampled_from([1, 2, 3, 9, 15, 16, 17, 31, 49]),
        dim=st.sampled_from([1, 37, 64, 65, 100, 1024, 4200]),
        levels=st.sampled_from([2, 3, 5, 7, 12, 16, 20]),
        batch=st.sampled_from([0, 1, 31, 32, 33, 65]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_both_kernels_match_reference(
        self, compiled, pixels, dim, levels, batch, seed, data
    ):
        config = UHDConfig(dim=dim, levels=levels, seed=seed)
        images = _draw_images(data, batch, pixels)
        expected = SobolLevelEncoder(pixels, config).encode_batch(images)
        loaded = PackedLevelEncoder(pixels, config)
        fallback = _numpy_encoder(pixels, config)
        assert loaded.kernel == "c"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder_module, "FANOUT_WIDTH", 2)  # 33+ rows fan out
            for encoder in (loaded, fallback):
                got = encoder.encode_batch(images)
                assert got.dtype == np.int64 and got.shape == (batch, dim)
                assert np.array_equal(got, expected)

    def test_counts_past_every_lane_width(self, compiled):
        """H = 600 saturated pixels: per-dimension counts pass the 4-plane
        group counter (15) and a byte (255), and fill all ten planes; the
        NumPy path's nibble (15) and byte (255) lanes widen on the way."""
        config = UHDConfig(dim=130, levels=16)
        rng = np.random.default_rng(9)
        images = np.concatenate([
            np.full((3, 600), 255, dtype=np.uint8),
            rng.integers(0, 256, (3, 600), dtype=np.uint8),
        ])
        expected = SobolLevelEncoder(600, config).encode_batch(images)
        assert expected.max() > 2 * 255 - 600  # some count exceeds a byte
        for encoder in (PackedLevelEncoder(600, config), _numpy_encoder(600, config)):
            assert np.array_equal(encoder.encode_batch(images), expected)

    @pytest.mark.filterwarnings("ignore:levels=.*power of two")
    def test_wide_codes(self, compiled):
        """``levels > 256`` stores uint16 codes; both kernels read them."""
        config = UHDConfig(dim=70, levels=300)
        images = np.random.default_rng(5).integers(0, 256, (9, 5), dtype=np.uint8)
        expected = SobolLevelEncoder(5, config).encode_batch(images)
        for encoder in (PackedLevelEncoder(5, config), _numpy_encoder(5, config)):
            assert np.array_equal(encoder.encode_batch(images), expected)


class TestFusedPredictGenerated:
    """``predict_packed`` == ``packed_predict(SobolLevelEncoder.encode_batch(x))``
    over drawn geometry and random class words, for both kernels, across
    tiles (``dim > 1024``) and the fan-out boundary."""

    @pytest.mark.filterwarnings("ignore:levels=.*power of two")
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        pixels=st.sampled_from([9, 15, 17, 31, 49, 99]),
        dim=st.sampled_from([1025, 1100, 2047, 2100, 4200]),
        levels=st.sampled_from([3, 5, 7, 12, 20]),
        classes=st.integers(2, 12),
        batch=st.sampled_from([0, 1, 2, 32, 33, 65]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_both_kernels_match_the_composition(
        self, compiled, pixels, dim, levels, classes, batch, seed, data
    ):
        config = UHDConfig(dim=dim, levels=levels, seed=seed)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        images = rng.integers(0, 256, size=(batch, pixels), dtype=np.uint8)
        sparse = images[: batch // 2]
        sparse[rng.random(sparse.shape) < 0.8] = 0
        images[:1] = 0  # blank: bits only where half the codes are 0
        images[1:2] = 255  # saturated: every bit set
        reference = SobolLevelEncoder(pixels, config)
        class_words = pack_bits(rng.random((classes, dim)) < 0.5)
        if batch >= 2:
            # the blank and saturated rows' own bits become two classes,
            # so at least two labels are certain and the ranking is exercised
            planted = pack_accumulators(reference.encode_batch(images[:2]))
            assume(not np.array_equal(planted[0], planted[1]))
            first, second = rng.choice(classes, size=2, replace=False)
            class_words[[first, second]] = planted
        expected = packed_predict(reference.encode_batch(images), class_words, dim)
        if batch >= 2:
            assert np.unique(expected).size >= 2
        loaded = PackedLevelEncoder(pixels, config)
        fallback = _numpy_encoder(pixels, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder_module, "FANOUT_WIDTH", 2)  # 33+ rows fan out
            for encoder in (loaded, fallback):
                got = encoder.predict_packed(images, class_words)
                assert got.dtype == np.int64 and got.shape == (batch,)
                assert np.array_equal(got, expected)
        assert loaded.kernel == "c"

    def test_ties_go_to_the_lowest_class(self, compiled):
        """Duplicated class words tie exactly; the lowest index wins."""
        config = UHDConfig(dim=1100, levels=16)
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, (40, 31), dtype=np.uint8)
        own = pack_accumulators(SobolLevelEncoder(31, config).encode_batch(images[:2]))
        # rows 0 and 1 match classes 0 and 1 exactly, and their copies too
        class_words = np.stack([own[0], own[1], own[1], own[0], own[0]])
        expected = packed_predict(
            SobolLevelEncoder(31, config).encode_batch(images), class_words, 1100
        )
        assert list(expected[:2]) == [0, 1]
        assert set(np.unique(expected)) <= {0, 1}
        identical = np.repeat(own[:1], 3, axis=0)
        for encoder in (PackedLevelEncoder(31, config), _numpy_encoder(31, config)):
            assert np.array_equal(encoder.predict_packed(images, class_words), expected)
            assert not encoder.predict_packed(images, identical).any()

    @pytest.mark.parametrize(
        "binarize, backend, fused",
        [(True, "packed", True), (True, "auto", True),
         (False, "packed", False), (True, "reference", False)],
    )
    def test_model_predict_runs_predict_packed_when_inference_is_packed(
        self, tiny_digits, monkeypatch, binarize, backend, fused
    ):
        model = UHDClassifier(
            784, 10, UHDConfig(dim=128, binarize=binarize, backend=backend)
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        calls = []
        original = model.encoder.predict_packed

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model.encoder, "predict_packed", spy)
        images = tiny_digits.test_images
        expected = model.classifier.predict(model.encoder.encode_batch(images))
        assert np.array_equal(model.predict(images), expected)
        assert len(calls) == int(fused)


def _check_both_entry_points(pixels: int, config: UHDConfig, images) -> None:
    """Encode and fused predict of both kernels == the reference encoder."""
    reference = SobolLevelEncoder(pixels, config)
    expected = reference.encode_batch(images)
    rng = np.random.default_rng(config.seed)
    class_words = pack_bits(rng.random((6, config.dim)) < 0.5)
    pad = -config.dim % 64
    if pad:  # the query has no bit past dim, so these bits count as in the oracle
        class_words[:, -1] |= ~np.uint64(0) << np.uint64(64 - pad)
    # every image's own bits are a class, so each label is certain
    class_words = np.concatenate([pack_accumulators(expected), class_words])
    labels = packed_predict(expected, class_words, config.dim)
    assert (labels < len(images)).all()  # a planted class, at distance 0
    loaded = PackedLevelEncoder(pixels, config)
    assert loaded.kernel == "c"
    for encoder in (loaded, _numpy_encoder(pixels, config)):
        assert np.array_equal(encoder.encode_batch(images), expected)
        assert np.array_equal(encoder.predict_packed(images, class_words), labels)


class TestPlanes:
    """Geometry where the compiled kernel's bit-planes and tiles turn over,
    for both entry points and both kernels, against the reference."""

    @pytest.mark.parametrize("pixels", [1023, 1024, 1025])
    def test_saturated_counts_fill_the_top_plane(self, compiled, pixels):
        """Counts reach H: H = 1024 needs an 11th plane that H = 1023 does
        not, and H = 1025 carries into it.  A table of all-ones rows drives
        every count to exactly H (or H - 1), and the codebook's own table
        is checked on saturated images against the reference."""
        dim = 130
        words = pack_bits(np.ones(dim, dtype=bool))
        lut = np.zeros((pixels, 2, words.size), dtype=np.uint64)
        lut[:, 1] = words
        codes = np.ones((2, pixels), dtype=np.uint8)
        codes[1, pixels // 2] = 0  # one pixel short of H
        out = np.empty((2, dim), dtype=np.int64)
        compiled.encode(lut, np.zeros(dim, dtype=np.int64), codes, out)
        assert (out[0] == pixels).all() and (out[1] == pixels - 2).all()
        need_planes = encoder_module._bit_planes(
            np.full(dim, pixels, dtype=np.int64), pixels.bit_length()
        )
        class_words = np.stack([np.zeros_like(words), words])
        labels = np.empty(2, dtype=np.int64)
        compiled.predict(
            lut, np.minimum(np.arange(256), 1).astype(np.uint16), need_planes,
            codes, class_words, labels, dim,
        )
        assert list(labels) == [1, 0]  # count >= H only where every pixel votes

        config = UHDConfig(dim=dim, levels=16, seed=pixels)
        images = np.full((3, pixels), 255, dtype=np.uint8)
        images[1, ::2] = 0
        images[2] = np.random.default_rng(pixels).integers(0, 256, pixels)
        table = PackedLevelEncoder(pixels, config)._ensure_table()
        assert table.need_planes.shape == (pixels.bit_length(), words.size)
        _check_both_entry_points(pixels, config, images)

    def test_dimensions_that_need_no_votes(self, compiled):
        """Two levels: about half the Sobol codes are 0, so in some
        dimensions ``base >= ceil(H / 2)`` and ``need`` clamps to 0 (the bit
        is always set), while in others it stays positive."""
        pixels, config = 9, UHDConfig(dim=300, levels=2, seed=3)
        base = (SobolLevelEncoder(pixels, config).quantized_codes == 0).sum(axis=0)
        need = (pixels + 1) // 2 - base
        assert (need <= 0).any() and (need > 0).any()
        images = np.random.default_rng(2).integers(0, 256, (8, pixels), dtype=np.uint8)
        images[0] = 0
        _check_both_entry_points(pixels, config, images)

    @pytest.mark.parametrize("dim", [1, 63, 65, 1025])
    def test_partial_words_and_tiles(self, compiled, dim):
        """``dim`` off a word boundary (1, 63, 65) and one past a
        1024-dimension tile (1025, a one-word second tile)."""
        config = UHDConfig(dim=dim, levels=16, seed=dim)
        rng = np.random.default_rng(dim)
        images = rng.integers(0, 256, (7, 49), dtype=np.uint8)
        images[:3][rng.random((3, 49)) < 0.8] = 0
        images[3] = 255
        _check_both_entry_points(49, config, images)

    @pytest.mark.filterwarnings("ignore:levels=.*power of two")
    def test_wide_codes_in_both_entry_points(self, compiled):
        """``levels=300`` stores uint16 codes, and the fused predict's
        level table maps pixels past level 255."""
        config = UHDConfig(dim=200, levels=300, seed=7)
        images = np.random.default_rng(5).integers(0, 256, (9, 31), dtype=np.uint8)
        images[0] = 255
        encoder = PackedLevelEncoder(31, config)
        assert encoder._normalize(images).dtype == np.uint16
        assert encoder._level16.max() == 299
        _check_both_entry_points(31, config, images)


class TestCompiledKernel:
    def test_read_only_table_is_read_in_place(self, compiled):
        """The kernel reads a read-only table without copying it and
        encodes and predicts bit-exactly."""
        config = UHDConfig(dim=130, levels=16)
        encoder = PackedLevelEncoder(49, config)
        table = encoder._ensure_table()
        table.lut.setflags(write=False)
        table.need_planes.setflags(write=False)
        images = np.random.default_rng(3).integers(0, 256, (40, 49), dtype=np.uint8)
        codes = encoder._normalize(images)
        out = np.empty((40, 130), dtype=np.int64)
        compiled.encode(table.lut, table.base, codes, out)
        expected = SobolLevelEncoder(49, config).encode_batch(images)
        assert np.array_equal(out, expected)
        assert np.array_equal(encoder.encode_batch(images), expected)
        class_words = pack_bits(np.random.default_rng(4).random((5, 130)) < 0.5)
        labels = np.empty(40, dtype=np.int64)
        compiled.predict(
            table.lut, encoder._level16, table.need_planes, images, class_words,
            labels, 130,
        )
        assert np.array_equal(labels, packed_predict(expected, class_words, 130))
        assert encoder.table_builds == 1

    def test_loaded_encoder_holds_only_the_packed_table(self, compiled, monkeypatch):
        """With the kernel loaded no nibble-spread table is ever built: at
        H=784, D=1024 the encoder holds the 1.6 MB packed delta table.  The
        NumPy path derives its 4x larger spread copy from it."""
        config = UHDConfig(dim=1024, levels=16)
        fallback = _numpy_encoder(784, config)
        assert fallback.table_nbytes == 5 * 1_605_632

        def refuse(packed):
            raise AssertionError("a spread table was built for the kernel")

        monkeypatch.setattr(encoder_module, "_spread_lut", refuse)
        encoder = PackedLevelEncoder(784, config)
        encoder.encode_batch(np.zeros((1, 784), dtype=np.uint8))
        assert encoder.kernel == "c"
        assert encoder.table_nbytes == 1_605_632 == 784 * 16 * 16 * 8

    def test_out_of_range_codes_are_clamped(self, compiled):
        """A code past the last level reads the last level's row, never
        memory beyond the table, in both entry points."""
        encoder = PackedLevelEncoder(9, UHDConfig(dim=64, levels=4))
        table = encoder._ensure_table()
        top = np.full((2, 9), 3, dtype=np.uint8)
        wild = np.array([[4] * 9, [255] * 9], dtype=np.uint8)
        base = encoder._table.base
        want = np.empty((2, 64), dtype=np.int64)
        got = np.empty((2, 64), dtype=np.int64)
        compiled.encode(table.lut, base, top, want)
        compiled.encode(table.lut, base, wild, got)
        assert np.array_equal(got, want)
        blank = np.empty((1, 64), dtype=np.int64)
        compiled.encode(table.lut, base, np.zeros((1, 9), dtype=np.uint8), blank)
        class_words = pack_accumulators(np.concatenate([blank, want[:1]]))
        assert not np.array_equal(class_words[0], class_words[1])
        images = np.array([[0] * 9, [255] * 9], dtype=np.uint8)
        labels = np.empty(2, dtype=np.int64)
        for level in ([3] * 256, [4] * 128 + [65535] * 128):
            compiled.predict(
                table.lut, np.array(level, dtype=np.uint16), table.need_planes,
                images, class_words, labels, 64,
            )
            assert list(labels) == [1, 1]  # both rows read the top level

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"codes": np.zeros((2, 8), dtype=np.uint8)}, "codes"),
            ({"codes": np.zeros((2, 9), dtype=np.int32)}, "codes"),
            ({"base": np.zeros(63, dtype=np.int64)}, "base"),
            ({"out": np.zeros((2, 128), dtype=np.int64)[:, ::2]}, "out"),
            ({"out": np.zeros((2, 64), dtype=np.int32)}, "out"),
            ({"lut": np.zeros((9, 4, 1), dtype=np.int64)}, "lut"),
            ({"lut": np.zeros((9, 4, 2), dtype=np.uint64)}, "lut words"),
            ({"lut": np.zeros((9, 4, 2), dtype=np.uint64)[:, :, :1]}, "lut"),
            ({"lut": np.zeros((9, 4), dtype=np.uint64)}, "lut"),
        ],
    )
    def test_arguments_are_checked_before_the_call(self, compiled, change, match):
        encoder = PackedLevelEncoder(9, UHDConfig(dim=64, levels=4))
        args = {
            "lut": encoder._ensure_table().lut,
            "base": encoder._table.base,
            "codes": np.zeros((2, 9), dtype=np.uint8),
            "out": np.empty((2, 64), dtype=np.int64),
        }
        args.update(change)
        with pytest.raises(ValueError, match=match):
            compiled.encode(**args)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"level": np.zeros(256, dtype=np.uint8)}, "level"),
            ({"need_planes": np.zeros((4, 1), dtype=np.int64)}, "need_planes"),
            ({"images": np.zeros((2, 8), dtype=np.uint8)}, "images"),
            ({"images": np.zeros((2, 9), dtype=np.uint16)}, "images"),
            ({"class_words": np.zeros((3, 2), dtype=np.uint64)}, "class_words"),
            ({"class_words": np.zeros((3, 2), dtype=np.uint64)[:, :1]},
             "class_words"),
            ({"class_words": np.zeros((0, 1), dtype=np.uint64)}, "class_words"),
            ({"labels": np.zeros(4, dtype=np.int64)[::2]}, "labels"),
            ({"labels": np.zeros(2, dtype=np.int32)}, "labels"),
            ({"need_planes": np.zeros((3, 1), dtype=np.uint64)}, "need_planes"),
            ({"need_planes": np.zeros((4, 2), dtype=np.uint64)[:, ::2]},
             "need_planes"),
            ({"dim": 65}, "lut words"),
            ({"dim": 0}, "lut words"),
            ({"lut": np.zeros((9, 4, 1), dtype=np.uint64)[:, ::2]}, "lut"),
        ],
    )
    def test_predict_arguments_are_checked_before_the_call(
        self, compiled, change, match
    ):
        encoder = PackedLevelEncoder(9, UHDConfig(dim=64, levels=4))
        table = encoder._ensure_table()
        args = {
            "lut": table.lut,
            "level": encoder._level16,
            "need_planes": table.need_planes,
            "images": np.zeros((2, 9), dtype=np.uint8),
            "class_words": np.zeros((3, 1), dtype=np.uint64),
            "labels": np.empty(2, dtype=np.int64),
            "dim": 64,
        }
        args.update(change)
        with pytest.raises(ValueError, match=match):
            compiled.predict(**args)


@pytest.fixture(scope="module")
def built_kernel_dir(tmp_path_factory):
    """A private directory holding one freshly compiled kernel."""
    pytest.importorskip("cffi")
    directory = tmp_path_factory.mktemp("kernel-cache")
    os.chmod(directory, 0o700)
    try:
        kernel_module.load_module(str(directory))
    except KernelUnavailable as exc:
        pytest.skip(f"kernel does not build here: {exc}")
    return directory


def _shared_object(directory) -> str:
    (name,) = [n for n in os.listdir(directory) if n.startswith("_uhd_encode_")]
    return os.path.join(directory, name)


class TestLoader:
    def test_compile_leaves_only_the_shared_object(self, built_kernel_dir):
        """The build directory is gone; the .so is private to the user."""
        names = os.listdir(built_kernel_dir)
        assert len(names) == 1 and not names[0].startswith(".build-")
        mode = stat.S_IMODE(os.stat(_shared_object(built_kernel_dir)).st_mode)
        assert mode & 0o077 == 0

    def test_warm_load_does_not_compile(self, built_kernel_dir, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cached kernel was compiled again")

        monkeypatch.setattr(kernel_module, "_compile", refuse)
        module = kernel_module.load_module(str(built_kernel_dir))
        assert hasattr(module.lib, "uhd_encode")

    def test_cache_key_covers_the_compile_command(self, monkeypatch):
        pytest.importorskip("cffi")
        command = kernel_module._compiler()
        assert not any("march=native" in part for part in command)
        name = kernel_module._module_name(command)
        assert name != kernel_module._module_name(command + ["-O1"])
        monkeypatch.setattr(kernel_module, "_SOURCE", kernel_module._SOURCE + "\n")
        assert name != kernel_module._module_name(command)

    def test_file_of_another_user_is_never_loaded(
        self, built_kernel_dir, monkeypatch
    ):
        monkeypatch.setattr(os, "getuid", lambda: os.stat(built_kernel_dir).st_uid + 1)
        with pytest.raises(KernelUnavailable, match="owned by uid"):
            kernel_module.load_module(str(built_kernel_dir))

    def test_file_writable_by_others_is_never_loaded(
        self, built_kernel_dir, tmp_path
    ):
        directory = tmp_path / "cache"
        directory.mkdir(mode=0o700)
        copy = shutil.copy(_shared_object(built_kernel_dir), directory)
        os.chmod(copy, 0o722)
        with pytest.raises(KernelUnavailable, match="writable by other users"):
            kernel_module.load_module(str(directory))

    def test_failed_compile_names_the_reason(self, monkeypatch, tmp_path):
        pytest.importorskip("cffi")
        monkeypatch.setattr(kernel_module, "_compiler", lambda: ["false"])
        with pytest.raises(KernelUnavailable, match="compile failed"):
            kernel_module.load_module(str(tmp_path))
        assert os.listdir(tmp_path) == []  # no half-written file remains
        missing = str(tmp_path / "no-such-compiler")
        monkeypatch.setattr(kernel_module, "_compiler", lambda: [missing])
        with pytest.raises(KernelUnavailable, match="compiler did not run"):
            kernel_module.load_module(str(tmp_path))

    def test_missing_cffi_names_the_reason(self, monkeypatch, tmp_path):
        monkeypatch.setitem(sys.modules, "cffi", None)
        with pytest.raises(KernelUnavailable, match="cffi is not installed"):
            kernel_module.load_module(str(tmp_path))


class TestCacheDir:
    @pytest.fixture(autouse=True)
    def private_tempdir(self, monkeypatch, tmp_path):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()

    def test_xdg_cache_home_is_used_and_made_private(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = kernel_module.cache_dir()
        assert path == str(tmp_path / "xdg" / "repro-uhd")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    def test_relative_xdg_falls_back_to_home_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert kernel_module.cache_dir() == str(
            tmp_path / "home" / ".cache" / "repro-uhd"
        )

    def test_existing_directory_is_tightened(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        (tmp_path / "xdg" / "repro-uhd").mkdir(parents=True, mode=0o755)
        os.chmod(tmp_path / "xdg" / "repro-uhd", 0o755)
        path = kernel_module.cache_dir()
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    def test_unusable_home_falls_back_to_tempdir(self, monkeypatch, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        path = kernel_module.cache_dir()
        assert path == str(tmp_path / "tmp" / f"repro-uhd-{os.getuid()}")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    def test_directories_of_another_user_are_refused(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        with pytest.raises(KernelUnavailable, match="owned by uid"):
            kernel_module.cache_dir()


class TestFallback:
    @pytest.fixture()
    def fresh_loader(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_loaded", None)

    def test_unavailable_kernel_warns_once_and_encodes_with_numpy(
        self, fresh_loader, monkeypatch
    ):
        def unavailable():
            raise KernelUnavailable("no compiler for this test")

        monkeypatch.setattr(kernel_module, "cache_dir", unavailable)
        with pytest.warns(RuntimeWarning, match="no compiler for this test"):
            assert kernel_module.load() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel_module.load() is None  # memoized: no second warning
            config = UHDConfig(dim=100)
            encoder = PackedLevelEncoder(25, config)
            images = np.random.default_rng(1).integers(0, 256, (40, 25), dtype=np.uint8)
            got = encoder.encode_batch(images)
        assert encoder.kernel == "numpy"
        assert np.array_equal(got, SobolLevelEncoder(25, config).encode_batch(images))
