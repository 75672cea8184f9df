"""The compiled kernel: a sparse-skipping gather-accumulate in C, with two
entry points over one accumulation loop.

* ``uhd_encode`` writes the int64 accumulators ``2 * count - H``
  (:meth:`EncodeKernel.encode`);
* ``uhd_predict`` is binarized inference fused into the same pass: uint8
  pixels are read through the encoder's 256-entry level table, each
  dimension's bit is set when ``count >= need`` (exactly ``acc >= 0``),
  and the packed bits are XORed and popcounted against the packed class
  words tile by tile, so only the label leaves the kernel
  (:meth:`EncodeKernel.predict`).  Nothing is stored between encode and
  search, as in a combinational associative memory.

:class:`repro.fastpath.encoder.PackedLevelEncoder` runs through this
kernel whenever it loads, and through its NumPy path otherwise; both
read the same delta table and produce the same bits and labels.  The
kernel is an implementation detail of the ``packed`` backend, not a
setting: the encoder reports which one runs as
``PackedLevelEncoder.kernel``.

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
encoder's thread fan-out run shards in parallel and serving executor
threads predict side by side.
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
void uhd_predict(const uint64_t *lut, const uint16_t *level,
                 const uint8_t *images, const int64_t *need,
                 const uint64_t *class_words, int64_t classes,
                 int64_t *hamming, int64_t *labels,
                 int64_t batch, int64_t pixels, int64_t levels,
                 int64_t spread, int64_t dim);
"""

# Spread word s holds dimension 16*s + n in nibble lane n (bits 4n..4n+3).
# A delta row adds at most 1 per lane, so a nibble lane holds 15 rows; the
# even/odd nibbles then widen into byte lanes, which hold 17 such flushes
# (17 * 15 = 255), and the byte lanes widen into uint32 counters.  The
# dimension axis is tiled so the accumulators stay on the stack and in L1
# for any dim.  Both entry points count through uhd_tile_counts: encode
# writes 2 * (base + count) - H, predict sets bit d when that is >= 0
# (count >= need[d], need = ceil(H / 2) - base) and XOR-popcounts the
# tile's words against every class as it goes.
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

#if defined(__GNUC__)
#define UHD_INLINE static inline __attribute__((always_inline))
#define uhd_popcount(x) __builtin_popcountll(x)
#else
#define UHD_INLINE static inline
static int uhd_popcount(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & UHD_LOW_NIBBLES;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
#endif

/* counts[j] = number of delta rows with bit 16 * t0 + j set, j < 16 * width,
   over one image.  Pixel p's level is level[codes8[p]] when a level table
   is given, else codes8[p] or codes16[p]; a level past the last reads the
   last level's row. */
UHD_INLINE void uhd_tile_counts(const uint64_t *lut, const uint8_t *codes8,
                                const uint16_t *codes16, const uint16_t *level,
                                int64_t pixels, int64_t levels, int64_t spread,
                                int64_t t0, int64_t width, uint32_t *counts)
{
    uint64_t nib[UHD_TILE], even[UHD_TILE], odd[UHD_TILE];
    int rows = 0, flushes = 0;
    memset(nib, 0, sizeof nib);
    memset(even, 0, sizeof even);
    memset(odd, 0, sizeof odd);
    memset(counts, 0, 16 * UHD_TILE * sizeof *counts);
    for (int64_t p = 0; p < pixels; p++) {
        int64_t v = level ? level[codes8[p]] : codes8 ? codes8[p] : codes16[p];
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
}

UHD_CLONES
void uhd_encode(const uint64_t *lut, const void *codes, int code_bytes,
                const int64_t *base, int64_t *out,
                int64_t batch, int64_t pixels, int64_t levels,
                int64_t spread, int64_t dim)
{
    uint32_t counts[16 * UHD_TILE];

    for (int64_t b = 0; b < batch; b++) {
        const uint8_t *codes8 = code_bytes == 1
            ? (const uint8_t *)codes + b * pixels : NULL;
        const uint16_t *codes16 = code_bytes == 1
            ? NULL : (const uint16_t *)codes + b * pixels;
        int64_t *row_out = out + b * dim;
        for (int64_t t0 = 0; t0 < spread; t0 += UHD_TILE) {
            int64_t width = spread - t0 < UHD_TILE ? spread - t0 : UHD_TILE;
            uhd_tile_counts(lut, codes8, codes16, NULL, pixels, levels,
                            spread, t0, width, counts);
            int64_t d0 = 16 * t0;
            int64_t d1 = d0 + 16 * width < dim ? d0 + 16 * width : dim;
            for (int64_t d = d0; d < d1; d++)
                row_out[d] = 2 * (base[d] + (int64_t)counts[d - d0]) - pixels;
        }
    }
}

UHD_CLONES
void uhd_predict(const uint64_t *lut, const uint16_t *level,
                 const uint8_t *images, const int64_t *need,
                 const uint64_t *class_words, int64_t classes,
                 int64_t *hamming, int64_t *labels,
                 int64_t batch, int64_t pixels, int64_t levels,
                 int64_t spread, int64_t dim)
{
    uint32_t counts[16 * UHD_TILE];
    uint8_t set[16 * UHD_TILE];
    uint64_t words[UHD_TILE / 4];
    int64_t dim_words = (dim + 63) / 64;

    for (int64_t b = 0; b < batch; b++) {
        memset(hamming, 0, classes * sizeof *hamming);
        for (int64_t t0 = 0; t0 < spread; t0 += UHD_TILE) {
            int64_t width = spread - t0 < UHD_TILE ? spread - t0 : UHD_TILE;
            uhd_tile_counts(lut, images + b * pixels, NULL, level, pixels,
                            levels, spread, t0, width, counts);
            /* a tile spans whole words: t0 and spread are multiples of 4 */
            int64_t d0 = 16 * t0;
            int64_t d1 = d0 + 16 * width < dim ? d0 + 16 * width : dim;
            int64_t w0 = d0 / 64, nwords = (d1 - d0 + 63) / 64;
            for (int64_t d = d0; d < d1; d++)
                set[d - d0] = (int64_t)counts[d - d0] >= need[d];
            memset(set + (d1 - d0), 0, 64 * nwords - (d1 - d0));  /* pad */
            for (int64_t w = 0; w < nwords; w++) {
                uint64_t bits = 0;
                for (int q = 0; q < 8; q++) {
                    uint64_t bytes;  /* eight 0/1 bytes -> eight bits */
                    memcpy(&bytes, set + 64 * w + 8 * q, 8);
                    bits |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * q);
                }
                words[w] = bits;
            }
            for (int64_t c = 0; c < classes; c++) {
                const uint64_t *cw = class_words + c * dim_words + w0;
                int64_t h = 0;
                for (int64_t w = 0; w < nwords; w++)
                    h += uhd_popcount(words[w] ^ cw[w]);
                hamming[c] += h;
            }
        }
        int64_t best = 0;  /* fewest disagreements; ties to the lowest class */
        for (int64_t c = 1; c < classes; c++)
            if (hamming[c] < hamming[best])
                best = c;
        labels[b] = best;
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
    """Typed entry points of the loaded kernel.

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
        in place, never copied, so it may be read-only); ``codes`` the
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

    def predict(
        self,
        lut: np.ndarray,
        level: np.ndarray,
        need: np.ndarray,
        images: np.ndarray,
        class_words: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """``labels[b]`` = the class whose packed words ``images[b]``
        disagrees with least, ties to the lowest class index.

        The query bits are ``acc >= 0`` of :meth:`encode`'s accumulator,
        i.e. ``count >= need``; no accumulator is ever stored.  ``level``
        is the ``(256,)`` uint16 pixel-to-level table, ``need`` the
        ``(dim,)`` int64 per-dimension threshold, ``images`` the
        ``(batch, H)`` uint8 pixels, ``class_words`` the C-contiguous
        ``(classes, ceil(dim / 64))`` uint64 packed class hypervectors and
        ``labels`` the C-contiguous ``(batch,)`` int64 destination.
        """
        pixels, levels, spread = lut.shape
        (dim,) = need.shape
        (batch,) = labels.shape
        words = -(-dim // 64)
        if lut.dtype != np.uint64 or not lut.flags.c_contiguous:
            raise ValueError("lut must be C-contiguous uint64")
        if level.dtype != np.uint16 or level.shape != (256,):
            raise ValueError("level must be (256,) uint16")
        if need.dtype != np.int64:
            raise ValueError(f"need must be ({dim},) int64")
        if images.dtype != np.uint8 or images.shape != (batch, pixels):
            raise ValueError(f"images must be ({batch}, {pixels}) uint8")
        if (
            class_words.dtype != np.uint64
            or not class_words.flags.c_contiguous
            or class_words.ndim != 2
            or class_words.shape[0] < 1
            or class_words.shape[1] != words
        ):
            raise ValueError(
                f"class_words must be C-contiguous (classes, {words}) uint64"
            )
        if labels.dtype != np.int64 or not labels.flags.c_contiguous:
            raise ValueError("labels must be C-contiguous int64")
        if not 0 < dim <= 16 * spread:
            raise ValueError(f"dim {dim} does not fit {spread} spread words")
        level = np.ascontiguousarray(level)
        need = np.ascontiguousarray(need)
        images = np.ascontiguousarray(images)
        classes = class_words.shape[0]
        hamming = np.empty(classes, dtype=np.int64)
        ffi = self._ffi
        self._lib.uhd_predict(
            ffi.from_buffer("uint64_t[]", lut),
            ffi.from_buffer("uint16_t[]", level),
            ffi.from_buffer("uint8_t[]", images),
            ffi.from_buffer("int64_t[]", need),
            ffi.from_buffer("uint64_t[]", class_words),
            classes,
            ffi.from_buffer("int64_t[]", hamming, require_writable=True),
            ffi.from_buffer("int64_t[]", labels, require_writable=True),
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
