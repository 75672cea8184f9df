"""The compiled kernel: a sparse-skipping, bit-sliced gather-count in C,
with two entry points over one counting routine.

* ``uhd_encode`` writes the int64 accumulators ``2 * count - H``
  (:meth:`EncodeKernel.encode`);
* ``uhd_predict`` is binarized inference fused into the same pass: uint8
  pixels are read through the encoder's 256-entry level table, each
  dimension's bit is set when ``count >= need`` (exactly ``acc >= 0``),
  and the packed bits are XORed and popcounted against the packed class
  words tile by tile, so only the label leaves the kernel
  (:meth:`EncodeKernel.predict`).  Nothing is stored between encode and
  search, as in a combinational associative memory.

Layout
------
Both read the packed delta table ``(H, levels, ceil(D / 64))`` uint64 in
place: a row is one pixel's delta at one level, bit ``b`` of word ``w``
standing for dimension ``64 w + b`` (1.6 MB at H=784, D=1024, 128 B per
row read).  Counting is bit-sliced, the software form of uHD's bank of
per-dimension unary counters: per 1024-dimension tile each count is held
as ``H.bit_length()`` plane words (plane ``k`` = bit ``k`` of every
count).  The rows of the next 15 non-zero-level pixels ripple into a
4-plane counter held in registers, and that 4-bit count is added into the
planes with one full-adder chain.  Encode turns the planes back into
integers; predict compares them against the bit-planes of ``need``
(clamped at 0) from the most significant plane down, which is uHD's
comparator, and masks the bits past ``dim``.

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
Under GCC and Clang the counters work on 8-word GNU C vectors, which
each clone lowers to its own registers; other compilers count one word
at a time.
Each call takes a whole batch and keeps its state on the stack; cffi
releases the GIL around it, which is what lets serving executor threads
predict side by side.
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
                int64_t words, int64_t dim);
void uhd_predict(const uint64_t *lut, const uint16_t *level,
                 const uint8_t *images, const uint64_t *need_planes,
                 const uint64_t *class_words, int64_t classes,
                 int64_t *hamming, int64_t *labels,
                 int64_t batch, int64_t pixels, int64_t levels,
                 int64_t words, int64_t dim);
"""

# The layout is in the module docstring.  uhd_tile_planes is the one
# counting routine: per tile it collects the row pointers of the next 15
# non-zero-level pixels without a branch, ripples them into the 4-plane
# counter one lane (8 words, or 1 without GNU C vectors) at a time, and
# adds that counter into the planes; the dimension loops of both entry
# points then run over whole words.
_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define UHD_TILE_WORDS 16
#define UHD_GROUP_ROWS 15
#define UHD_MAX_PLANES 16

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
#define uhd_prefetch(p) __builtin_prefetch(p)
/* a lane: 8 words as a GNU C vector, in whatever registers the clone has */
#define UHD_LANE_WORDS 8
typedef uint64_t uhd_lane __attribute__((vector_size(8 * UHD_LANE_WORDS)));
#else
#define UHD_INLINE static inline
#define UHD_LANE_WORDS 1
typedef uint64_t uhd_lane;
#define uhd_prefetch(p) ((void)(p))
static int uhd_popcount(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
#endif

/* *x = the n <= UHD_LANE_WORDS words at src, zero-filled */
UHD_INLINE void uhd_load(uhd_lane *x, const uint64_t *src, int n)
{
    if (n == UHD_LANE_WORDS) {
        memcpy(x, src, sizeof *x);
    } else {
        memset(x, 0, sizeof *x);
        memcpy(x, src, n * sizeof *src);
    }
}

/* bit_length(pixels): planes enough for any count of delta rows */
static int uhd_planes(int64_t pixels)
{
    int n = 0;
    while (n < UHD_MAX_PLANES && (pixels >> n) != 0)
        n++;
    return n;
}

/* planes[k][i] = bit k of the number of delta rows, over one image, with
   bit 64 * (t0 + i) + b set, for i < width.  Pixel p's level is
   level[codes8[p]] when a level table is given, else codes8[p] or
   codes16[p]; a level past the last reads the last level's row, and a
   level-0 pixel's row (all zero) is never read. */
UHD_INLINE void uhd_tile_planes(const uint64_t *lut, const uint8_t *codes8,
                                const uint16_t *codes16, const uint16_t *level,
                                int64_t pixels, int64_t levels, int64_t words,
                                int64_t t0, int64_t width, int nplanes,
                                uint64_t planes[][UHD_TILE_WORDS])
{
    const uint64_t *rows[UHD_GROUP_ROWS];
    /* eight zero bytes are eight level-0 pixels: skipped in one test */
    int skip8 = codes8 != NULL && (level == NULL || level[0] == 0);
    memset(planes, 0, nplanes * sizeof *planes);
    for (int64_t p = 0; p < pixels;) {
        int n = 0;  /* branch-free: a level-0 pixel's slot is overwritten */
        for (; p < pixels && n < UHD_GROUP_ROWS; p++) {
            uint64_t block;
            if (skip8 && p % 8 == 0 && p + 8 <= pixels) {
                memcpy(&block, codes8 + p, sizeof block);
                if (block == 0) {
                    p += 7;
                    continue;
                }
            }
            int64_t v = level ? level[codes8[p]] : codes8 ? codes8[p] : codes16[p];
            v = v < levels ? v : levels - 1;
            rows[n] = lut + (p * levels + v) * words + t0;
            uhd_prefetch(rows[n]);  /* the tile's part of the row: 2 lines */
            uhd_prefetch(rows[n] + 8);
            n += v != 0;
        }
        for (int64_t w = 0; w < width; w += UHD_LANE_WORDS) {
            int nw = width - w < UHD_LANE_WORDS ? (int)(width - w) : UHD_LANE_WORDS;
            uhd_lane c0 = {0}, c1 = {0}, c2 = {0}, c3 = {0}, t, x;
            for (int r = 0; r < n; r++) {
                uhd_load(&t, rows[r] + w, nw);
                x = c0 & t; c0 ^= t; t = x;
                x = c1 & t; c1 ^= t; t = x;
                x = c2 & t; c2 ^= t; t = x;
                c3 ^= t;
            }
            /* planes += c; a count never passes H, so no carry leaves the
               top plane, and planes above c's four only take a carry */
            uhd_lane carry = {0}, zero = {0}, a, s;
            for (int k = 0; k < nplanes; k++) {
                uhd_lane b = k == 0 ? c0 : k == 1 ? c1 : k == 2 ? c2
                                    : k == 3 ? c3 : zero;
                memcpy(&a, planes[k] + w, sizeof a);
                s = a ^ b ^ carry;
                carry = (a & b) | (carry & (a ^ b));
                memcpy(planes[k] + w, &s, sizeof s);
            }
        }
    }
}

UHD_CLONES
void uhd_encode(const uint64_t *lut, const void *codes, int code_bytes,
                const int64_t *base, int64_t *out,
                int64_t batch, int64_t pixels, int64_t levels,
                int64_t words, int64_t dim)
{
    uint64_t planes[UHD_MAX_PLANES][UHD_TILE_WORDS];
    int nplanes = uhd_planes(pixels);

    for (int64_t b = 0; b < batch; b++) {
        const uint8_t *codes8 = code_bytes == 1
            ? (const uint8_t *)codes + b * pixels : NULL;
        const uint16_t *codes16 = code_bytes == 1
            ? NULL : (const uint16_t *)codes + b * pixels;
        int64_t *row_out = out + b * dim;
        for (int64_t t0 = 0; t0 < words; t0 += UHD_TILE_WORDS) {
            int64_t width = words - t0 < UHD_TILE_WORDS ? words - t0 : UHD_TILE_WORDS;
            uhd_tile_planes(lut, codes8, codes16, NULL, pixels, levels, words,
                            t0, width, nplanes, planes);
            for (int64_t i = 0; i < width; i++) {
                /* plane-outer, so the 64-dimension loop vectorizes */
                uint64_t counts[64] = {0};
                for (int k = 0; k < nplanes; k++) {
                    uint64_t bits = planes[k][i];
                    for (uint64_t j = 0; j < 64; j++)
                        counts[j] |= ((bits >> j) & 1) << k;
                }
                int64_t d0 = 64 * (t0 + i);
                int64_t n = dim - d0 < 64 ? dim - d0 : 64;
                for (int64_t j = 0; j < n; j++)
                    row_out[d0 + j] = 2 * (base[d0 + j] + (int64_t)counts[j]) - pixels;
            }
        }
    }
}

UHD_CLONES
void uhd_predict(const uint64_t *lut, const uint16_t *level,
                 const uint8_t *images, const uint64_t *need_planes,
                 const uint64_t *class_words, int64_t classes,
                 int64_t *hamming, int64_t *labels,
                 int64_t batch, int64_t pixels, int64_t levels,
                 int64_t words, int64_t dim)
{
    uint64_t planes[UHD_MAX_PLANES][UHD_TILE_WORDS];
    uint64_t gt[UHD_TILE_WORDS], eq[UHD_TILE_WORDS];
    int nplanes = uhd_planes(pixels);
    uint64_t last = dim % 64 ? (1ULL << (dim % 64)) - 1 : ~0ULL;

    for (int64_t b = 0; b < batch; b++) {
        memset(hamming, 0, classes * sizeof *hamming);
        for (int64_t t0 = 0; t0 < words; t0 += UHD_TILE_WORDS) {
            int64_t width = words - t0 < UHD_TILE_WORDS ? words - t0 : UHD_TILE_WORDS;
            uhd_tile_planes(lut, images + b * pixels, NULL, level, pixels,
                            levels, words, t0, width, nplanes, planes);
            /* count >= need, compared from the most significant plane down */
            for (int64_t i = 0; i < width; i++) {
                gt[i] = 0;
                eq[i] = ~0ULL;
            }
            for (int k = nplanes - 1; k >= 0; k--) {
                const uint64_t *n = need_planes + k * words + t0;
                for (int64_t i = 0; i < width; i++) {
                    gt[i] |= eq[i] & planes[k][i] & ~n[i];
                    eq[i] &= ~(planes[k][i] ^ n[i]);
                }
            }
            for (int64_t i = 0; i < width; i++)
                gt[i] |= eq[i];
            if (t0 + width == words)
                gt[width - 1] &= last;  /* no bit past dim */
            for (int64_t c = 0; c < classes; c++) {
                const uint64_t *cw = class_words + c * words + t0;
                int64_t h = 0;
                for (int64_t i = 0; i < width; i++)
                    h += uhd_popcount(gt[i] ^ cw[i]);
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

    #: bit-planes a count may span; the kernel's UHD_MAX_PLANES
    MAX_PLANES = 16

    def __init__(self, module: ModuleType) -> None:
        self._ffi = module.ffi
        self._lib = module.lib

    @classmethod
    def _check_lut(cls, lut: np.ndarray, dim: int) -> tuple[int, int, int]:
        """``(pixels, levels, words)`` of a valid packed delta table."""
        if lut.dtype != np.uint64 or lut.ndim != 3 or not lut.flags.c_contiguous:
            raise ValueError("lut must be C-contiguous (pixels, levels, words) uint64")
        pixels, levels, words = lut.shape
        if not 0 < pixels < 1 << cls.MAX_PLANES or levels < 1:
            raise ValueError(
                f"lut must have 1 to {(1 << cls.MAX_PLANES) - 1} pixels "
                "and at least one level"
            )
        if not 0 < dim or words != -(-dim // 64):
            raise ValueError(f"dim {dim} does not fill {words} lut words")
        return pixels, levels, words

    def encode(
        self, lut: np.ndarray, base: np.ndarray, codes: np.ndarray, out: np.ndarray
    ) -> None:
        """``out[b, j] = 2 * (base[j] + Σ_p lut[p, codes[b, p]]_j) - H``.

        ``lut`` is the ``(H, levels, ceil(dim / 64))`` uint64 packed delta
        table (read in place, never copied, so it may be read-only);
        ``codes`` the ``(batch, H)`` uint8/uint16 level codes; ``out`` the
        C-contiguous ``(batch, dim)`` int64 destination.
        """
        batch, dim = out.shape
        pixels, levels, words = self._check_lut(lut, dim)
        if codes.dtype not in (np.uint8, np.uint16) or codes.shape != (batch, pixels):
            raise ValueError(f"codes must be ({batch}, {pixels}) uint8 or uint16")
        if base.dtype != np.int64 or base.shape != (dim,):
            raise ValueError(f"base must be ({dim},) int64")
        if out.dtype != np.int64 or not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous int64")
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
            words,
            dim,
        )

    def predict(
        self,
        lut: np.ndarray,
        level: np.ndarray,
        need_planes: np.ndarray,
        images: np.ndarray,
        class_words: np.ndarray,
        labels: np.ndarray,
        dim: int,
    ) -> None:
        """``labels[b]`` = the class whose packed words ``images[b]``
        disagrees with least, ties to the lowest class index.

        The query bits are ``acc >= 0`` of :meth:`encode`'s accumulator,
        i.e. ``count >= need``; no accumulator is ever stored, and bits
        past ``dim`` are zero.  ``level`` is the ``(256,)`` uint16
        pixel-to-level table, ``need_planes`` the C-contiguous
        ``(H.bit_length(), words)`` uint64 bit-planes of the
        per-dimension threshold ``need`` clamped at 0 (plane ``k`` holds
        bit ``k`` of every dimension, packed like a hypervector),
        ``images`` the ``(batch, H)`` uint8 pixels, ``class_words`` the
        C-contiguous ``(classes, words)`` uint64 packed class
        hypervectors and ``labels`` the C-contiguous ``(batch,)`` int64
        destination.
        """
        pixels, levels, words = self._check_lut(lut, dim)
        (batch,) = labels.shape
        if level.dtype != np.uint16 or level.shape != (256,):
            raise ValueError("level must be (256,) uint16")
        planes = (pixels.bit_length(), words)
        if (
            need_planes.dtype != np.uint64
            or need_planes.shape != planes
            or not need_planes.flags.c_contiguous
        ):
            raise ValueError(f"need_planes must be C-contiguous {planes} uint64")
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
        level = np.ascontiguousarray(level)
        images = np.ascontiguousarray(images)
        classes = class_words.shape[0]
        hamming = np.empty(classes, dtype=np.int64)
        ffi = self._ffi
        self._lib.uhd_predict(
            ffi.from_buffer("uint64_t[]", lut),
            ffi.from_buffer("uint16_t[]", level),
            ffi.from_buffer("uint8_t[]", images),
            ffi.from_buffer("uint64_t[]", need_planes),
            ffi.from_buffer("uint64_t[]", class_words),
            classes,
            ffi.from_buffer("int64_t[]", hamming, require_writable=True),
            ffi.from_buffer("int64_t[]", labels, require_writable=True),
            batch,
            pixels,
            levels,
            words,
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
