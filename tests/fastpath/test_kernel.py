"""The compiled encode kernel: contract 1 over generated geometry, and a
loader that never runs a build it cannot trust.

Contract 1 (packed encode == reference encode, bit for bit) is checked
for both implementations behind ``PackedLevelEncoder``: the compiled
kernel and the NumPy path it falls back to (forced here by patching the
loader).  The compiled cases skip where the kernel cannot load (no
``cffi``); CI runs one leg with it and one without.
"""

from __future__ import annotations

import os
import shutil
import stat
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SobolLevelEncoder, UHDConfig
from repro.fastpath import PackedLevelEncoder
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
        """H = 600 saturated pixels: per-dimension counts pass the nibble
        (15), byte (255) and uint16-free widening points."""
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


class TestCompiledKernel:
    def test_read_only_table_is_read_in_place(self, compiled):
        """The kernel reads a read-only table without copying it and
        encodes bit-exactly."""
        config = UHDConfig(dim=130, levels=16)
        encoder = PackedLevelEncoder(49, config)
        table = encoder._ensure_table()
        table.lut.setflags(write=False)
        images = np.random.default_rng(3).integers(0, 256, (40, 49), dtype=np.uint8)
        codes = encoder._normalize(images)
        out = np.empty((40, 130), dtype=np.int64)
        compiled.encode(table.lut, table.base, codes, out)
        expected = SobolLevelEncoder(49, config).encode_batch(images)
        assert np.array_equal(out, expected)
        assert np.array_equal(encoder.encode_batch(images), expected)
        assert encoder.table_builds == 1

    def test_out_of_range_codes_are_clamped(self, compiled):
        """A code past the last level reads the last level's row, never
        memory beyond the table."""
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

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"codes": np.zeros((2, 8), dtype=np.uint8)}, "codes"),
            ({"codes": np.zeros((2, 9), dtype=np.int32)}, "codes"),
            ({"base": np.zeros(63, dtype=np.int64)}, "base"),
            ({"out": np.zeros((2, 128), dtype=np.int64)[:, ::2]}, "out"),
            ({"out": np.zeros((2, 64), dtype=np.int32)}, "out"),
            ({"lut": np.zeros((9, 4, 4), dtype=np.int64)}, "lut"),
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
