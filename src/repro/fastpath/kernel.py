"""The compiled encode kernel: a sparse-skipping gather-accumulate in C.

:class:`repro.fastpath.encoder.PackedLevelEncoder` encodes through this
kernel whenever it loads, and through its NumPy path otherwise; both
read the same delta table and produce the same bits.  The kernel is an
implementation detail of the ``packed`` backend, not a setting: the
encoder reports which one runs as ``PackedLevelEncoder.kernel``.

Build and cache
---------------
The C source below is compiled once per user with ``cffi`` in API mode
and the interpreter's own extension-module compiler (``sysconfig``
``LDSHARED``), at the first table build of a process.  The shared object
lives in a private cache directory, ``$XDG_CACHE_HOME/repro-uhd`` or
``~/.cache/repro-uhd``, else ``<tempdir>/repro-uhd-<uid>``, created
``0o700``.  Its file name carries the sha256 of the C source, the compile
command, the extension ABI tag and the cffi version, so a changed kernel
or interpreter never loads a stale build.  Every compile runs in a private temporary
directory and is moved in with ``os.replace``, so concurrent processes
never load a half-written file.  A directory or shared object the user
does not own is never used.

When the kernel cannot load (``cffi`` missing, no compiler, a failed
compile, no private cache directory) :func:`load` warns once with the
reason and returns ``None`` for the rest of the process.

Codegen is portable: on x86-64 GCC clones the kernel for x86-64-v4,
AVX2 and the baseline and picks one at load time; nothing is built with
``-march=native``, so a cache directory shared between hosts stays safe.
cffi releases the GIL around every call, which is what lets the
encoder's thread fan-out run shards in parallel.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from types import ModuleType

import numpy as np

__all__ = ["EncodeKernel", "KernelUnavailable", "cache_dir", "load", "load_module"]

_CDEF = """
void uhd_encode(const uint64_t *lut, const void *codes, int code_bytes,
                const int64_t *base, int64_t *out,
                int64_t batch, int64_t pixels, int64_t levels,
                int64_t spread, int64_t dim);
"""

# Spread word s holds dimension 16*s + n in nibble lane n (bits 4n..4n+3).
# A delta row adds at most 1 per lane, so a nibble lane holds 15 rows; the
# even/odd nibbles then widen into byte lanes, which hold 17 such flushes
# (17 * 15 = 255), and the byte lanes widen into uint32 counters.  The
# dimension axis is tiled so the accumulators stay on the stack and in L1
# for any dim.
_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define UHD_TILE 64
#define UHD_NIBBLE_ROWS 15
#define UHD_BYTE_FLUSHES 17
#define UHD_LOW_NIBBLES 0x0F0F0F0F0F0F0F0FULL

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && __GNUC__ >= 12
#define UHD_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define UHD_CLONES
#endif

UHD_CLONES
void uhd_encode(const uint64_t *lut, const void *codes, int code_bytes,
                const int64_t *base, int64_t *out,
                int64_t batch, int64_t pixels, int64_t levels,
                int64_t spread, int64_t dim)
{
    uint64_t nib[UHD_TILE], even[UHD_TILE], odd[UHD_TILE];
    uint32_t counts[16 * UHD_TILE];
    const uint8_t *codes8 = (const uint8_t *)codes;
    const uint16_t *codes16 = (const uint16_t *)codes;

    for (int64_t b = 0; b < batch; b++) {
        int64_t *row_out = out + b * dim;
        for (int64_t t0 = 0; t0 < spread; t0 += UHD_TILE) {
            int64_t width = spread - t0 < UHD_TILE ? spread - t0 : UHD_TILE;
            int rows = 0, flushes = 0;
            memset(nib, 0, sizeof nib);
            memset(even, 0, sizeof even);
            memset(odd, 0, sizeof odd);
            memset(counts, 0, sizeof counts);
            for (int64_t p = 0; p < pixels; p++) {
                int64_t v = code_bytes == 1 ? codes8[b * pixels + p]
                                            : codes16[b * pixels + p];
                if (v == 0)
                    continue;  /* a level-0 pixel's delta row is all zero */
                if (v >= levels)
                    v = levels - 1;
                const uint64_t *row = lut + (p * levels + v) * spread + t0;
                for (int64_t i = 0; i < width; i++)
                    nib[i] += row[i];
                if (++rows < UHD_NIBBLE_ROWS)
                    continue;
                rows = 0;
                for (int64_t i = 0; i < width; i++) {
                    even[i] += nib[i] & UHD_LOW_NIBBLES;
                    odd[i] += (nib[i] >> 4) & UHD_LOW_NIBBLES;
                    nib[i] = 0;
                }
                if (++flushes < UHD_BYTE_FLUSHES)
                    continue;
                flushes = 0;
                for (int64_t i = 0; i < width; i++) {
                    for (int k = 0; k < 8; k++) {
                        counts[16 * i + 2 * k] += (even[i] >> (8 * k)) & 0xFF;
                        counts[16 * i + 2 * k + 1] += (odd[i] >> (8 * k)) & 0xFF;
                    }
                    even[i] = 0;
                    odd[i] = 0;
                }
            }
            for (int64_t i = 0; i < width; i++) {
                uint64_t e = even[i] + (nib[i] & UHD_LOW_NIBBLES);
                uint64_t o = odd[i] + ((nib[i] >> 4) & UHD_LOW_NIBBLES);
                for (int k = 0; k < 8; k++) {
                    counts[16 * i + 2 * k] += (e >> (8 * k)) & 0xFF;
                    counts[16 * i + 2 * k + 1] += (o >> (8 * k)) & 0xFF;
                }
            }
            int64_t d0 = 16 * t0;
            int64_t d1 = d0 + 16 * width < dim ? d0 + 16 * width : dim;
            for (int64_t d = d0; d < d1; d++)
                row_out[d] = 2 * (base[d] + (int64_t)counts[d - d0]) - pixels;
        }
    }
}
"""

#: extra compiler flags; part of the cache key
_CFLAGS = ("-O3", "-std=c99")


class KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


def cache_dir() -> str:
    """The private per-user directory compiled kernels are cached in.

    ``$XDG_CACHE_HOME/repro-uhd`` (an absolute ``XDG_CACHE_HOME`` only)
    or ``~/.cache/repro-uhd``, else ``<tempdir>/repro-uhd-<uid>`` when
    the first cannot be made private.  Raises :class:`KernelUnavailable`
    when neither can.
    """
    if not hasattr(os, "getuid"):
        raise KernelUnavailable("no per-user cache on this platform")
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    root = xdg if os.path.isabs(xdg) else os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    candidates = (
        os.path.join(root, "repro-uhd"),
        os.path.join(tempfile.gettempdir(), f"repro-uhd-{os.getuid()}"),
    )
    reasons = []
    for path in candidates:
        try:
            _make_private_dir(path)
            return path
        except (OSError, KernelUnavailable) as exc:
            reasons.append(f"{path}: {exc}")
    raise KernelUnavailable("no private cache directory (" + "; ".join(reasons) + ")")


def _make_private_dir(path: str) -> None:
    """Create ``path`` mode 0o700, or check an existing one is ours."""
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode):
        raise KernelUnavailable("not a directory")
    if info.st_uid != os.getuid():
        raise KernelUnavailable(f"owned by uid {info.st_uid}, not {os.getuid()}")
    if stat.S_IMODE(info.st_mode) != 0o700:
        os.chmod(path, 0o700)


def _compiler() -> list[str]:
    """The interpreter's extension-module compile-and-link command."""
    ldshared = sysconfig.get_config_var("LDSHARED") or "cc -shared"
    ccshared = sysconfig.get_config_var("CCSHARED") or "-fPIC"
    return shlex.split(ldshared) + shlex.split(ccshared) + list(_CFLAGS)


def _module_name(command: list[str]) -> str:
    """``_uhd_encode_<digest>``: sha256 of source, command and ABI tag."""
    import cffi

    digest = hashlib.sha256()
    for part in (
        _SOURCE,
        _CDEF,
        "\0".join(command),
        importlib.machinery.EXTENSION_SUFFIXES[0],
        cffi.__version__,
    ):
        digest.update(part.encode("utf-8") + b"\0")
    return f"_uhd_encode_{digest.hexdigest()[:24]}"


def _check_owned_file(path: str) -> None:
    info = os.lstat(path)
    if not stat.S_ISREG(info.st_mode):
        raise KernelUnavailable(f"{path} is not a regular file")
    if info.st_uid != os.getuid():
        raise KernelUnavailable(
            f"{path} is owned by uid {info.st_uid}, not {os.getuid()}"
        )
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise KernelUnavailable(f"{path} is writable by other users")


def _compile(directory: str, name: str, command: list[str], target: str) -> None:
    """Build the extension in a private temp dir, then move it to ``target``."""
    import cffi
    from cffi.recompiler import make_c_source

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    build = tempfile.mkdtemp(prefix=".build-", dir=directory)
    try:
        source = os.path.join(build, name + ".c")
        # ffi.emit_c_code would print its progress to stdout
        make_c_source(ffi, name, _SOURCE, source, verbose=False)
        built = os.path.join(build, os.path.basename(target))
        include = sysconfig.get_paths()["include"]
        try:
            result = subprocess.run(
                [*command, f"-I{include}", source, "-o", built],
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise KernelUnavailable(f"compiler did not run: {exc}") from exc
        if result.returncode != 0:
            tail = (result.stderr or result.stdout).strip()[-400:]
            raise KernelUnavailable(
                f"compile failed (exit {result.returncode}): {tail}"
            )
        os.chmod(built, 0o700)
        os.replace(built, target)
    finally:
        shutil.rmtree(build, ignore_errors=True)


def load_module(directory: str) -> ModuleType:
    """Load the kernel from ``directory``, compiling it there if absent."""
    try:
        import cffi  # noqa: F401
    except ImportError as exc:
        raise KernelUnavailable("cffi is not installed") from exc
    command = _compiler()
    name = _module_name(command)
    path = os.path.join(directory, name + importlib.machinery.EXTENSION_SUFFIXES[0])
    try:
        if not os.path.exists(path):
            _compile(directory, name, command, path)
        _check_owned_file(path)
    except OSError as exc:
        raise KernelUnavailable(f"cannot build or stat {path}: {exc}") from exc
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise KernelUnavailable(f"{path} is not a loadable extension")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise KernelUnavailable(f"{path} failed to load: {exc}") from exc
    return module


class EncodeKernel:
    """Typed entry point of the loaded kernel.

    Every pointer handed to C is checked here first: dtype, contiguity
    and shape, so the kernel itself only has to clamp codes.
    """

    def __init__(self, module: ModuleType) -> None:
        self._ffi = module.ffi
        self._lib = module.lib

    def encode(
        self, lut: np.ndarray, base: np.ndarray, codes: np.ndarray, out: np.ndarray
    ) -> None:
        """``out[b, j] = 2 * (base[j] + Σ_p lut[p, codes[b, p]]_j) - H``.

        ``lut`` is the ``(H, levels, spread)`` uint64 delta table (read
        in place, so a read-only memmap is never copied); ``codes`` the
        ``(batch, H)`` uint8/uint16 level codes; ``out`` the C-contiguous
        ``(batch, dim)`` int64 destination.
        """
        pixels, levels, spread = lut.shape
        batch, dim = out.shape
        if lut.dtype != np.uint64 or not lut.flags.c_contiguous:
            raise ValueError("lut must be C-contiguous uint64")
        if codes.dtype not in (np.uint8, np.uint16) or codes.shape != (batch, pixels):
            raise ValueError(f"codes must be ({batch}, {pixels}) uint8 or uint16")
        if base.dtype != np.int64 or base.shape != (dim,):
            raise ValueError(f"base must be ({dim},) int64")
        if out.dtype != np.int64 or not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous int64")
        if not 0 < dim <= 16 * spread:
            raise ValueError(f"dim {dim} does not fit {spread} spread words")
        codes = np.ascontiguousarray(codes)
        base = np.ascontiguousarray(base)
        ffi = self._ffi
        self._lib.uhd_encode(
            ffi.from_buffer("uint64_t[]", lut),
            ffi.from_buffer("char[]", codes),
            codes.itemsize,
            ffi.from_buffer("int64_t[]", base),
            ffi.from_buffer("int64_t[]", out, require_writable=True),
            batch,
            pixels,
            levels,
            spread,
            dim,
        )


_lock = threading.Lock()
#: ``(kernel,)`` once :func:`load` has run in this process (``(None,)``
#: after a failure, which is never retried)
_loaded: tuple[EncodeKernel | None] | None = None


def _reset_lock_in_child() -> None:
    # a fork while another thread compiles would hand the child a lock
    # nobody will release; the child loads for itself instead
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def load() -> EncodeKernel | None:
    """The process's compiled kernel, or ``None`` when it cannot load.

    The first call compiles into (or loads from) :func:`cache_dir`; a
    failure warns once, naming the reason, and later calls return
    ``None`` without retrying.
    """
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                try:
                    _loaded = (EncodeKernel(load_module(cache_dir())),)
                except KernelUnavailable as exc:
                    # memoized first: a caller turning warnings into
                    # errors must still get the fallback next time
                    _loaded = (None,)
                    warnings.warn(
                        f"compiled encode kernel unavailable ({exc}); the "
                        "packed encoder runs its NumPy path",
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return _loaded[0]
