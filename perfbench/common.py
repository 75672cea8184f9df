"""Shared pieces of the benchmark: clock, exact percentiles, inputs, host facts.

Everything that turns raw samples into a reported number lives here, in
the benchmark's own files, so a change to the program under test cannot
move a figure by changing how it is summarised.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: model geometry of every workload (same as BENCH_throughput.json)
PIXELS = 784
DIM = 1024
LEVELS = 16
CLASSES = 10


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now_ns() -> int:
    """CLOCK_MONOTONIC: one clock shared by the benchmark, daemon and workers."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def sleep_until(t_ns: int) -> None:
    delay = (t_ns - now_ns()) / 1e9
    if delay > 0:
        time.sleep(delay)


def percentile(samples, q: float) -> float:
    """Exact ``q``-th percentile of raw samples (linear between ranks)."""
    xs = sorted(samples)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples) -> float:
    return percentile(samples, 50.0)


def mean(samples) -> float:
    samples = list(samples)
    return sum(samples) / len(samples) if samples else 0.0


def digest(*arrays) -> str:
    """sha256 over shapes and bytes: proves two runs saw identical inputs."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def host_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bitwise_count": hasattr(np, "bitwise_count"),
        "machine": platform.machine(),
    }


def config():
    from repro import UHDConfig

    return UHDConfig(dim=DIM, levels=LEVELS, binarize=True)


def mnist(seed: int, n_train: int, n_test: int):
    """Synthetic MNIST as flat uint8 rows: (train, train_labels, test)."""
    from repro import load_dataset

    data = load_dataset("mnist", n_train=n_train, n_test=n_test, seed=seed)
    data = data.grayscale()
    train = data.train_images.reshape(n_train, -1)
    test = data.test_images.reshape(n_test, -1)
    if train.shape[1] != PIXELS or train.dtype.name != "uint8":
        raise ValueError(f"expected uint8 rows of {PIXELS} pixels, got {train.dtype} {train.shape}")
    return train, data.train_labels, test


def dense(seed: int, rows: int):
    """Uniform-random pixels: defeats the gather table's cache locality."""
    import numpy as np

    rng = np.random.default_rng([seed, 0xD15E])
    return rng.integers(0, 256, size=(rows, PIXELS), dtype=np.uint8)
