"""Machine-readable throughput benchmarks across registered backends.

Runs the hot paths a downstream serving system cares about — batch
encoding and binarized inference — on the reference and packed
backends, checks bit-exactness *before* timing anything, and returns a
JSON-friendly record so successive PRs accumulate a perf trajectory
(``BENCH_throughput.json``) to regress against.

Timings interleave the backends round-robin so machine noise (shared
cores, frequency drift) hits both distributions equally, and report the
median, which pytest-benchmark also favours.

The packed encoder only fans out over threads when a batch spans two or
more encode chunks, so ``uhd_encode_packed_large`` times a larger batch
(``thread_batch``) next to the serial 32-image ``uhd_encode_packed`` row;
``fanout_width`` in the config records how many threads it could use,
and ``encode_kernel`` which encode implementation ran (``"c"`` or
``"numpy"``, :attr:`PackedLevelEncoder.kernel`).

Per-layer rows time one layer at the serving batch sizes 1 and 32 on
sparse synthetic MNIST (the offline workload's input): encode
(``layer_encode_b*``, ``us_per_image``) and binarized packed classify
(``layer_classify_b*``, ``us_per_query``).  ``layer_predict_b1`` and
``layer_predict_b64`` time a binarized packed ``UHDClassifier.predict``
end to end, uint8 pixels in and labels out (``us_per_image``; one fused
kernel call per 32-row chunk when the compiled kernel loads).  :func:`kernel_compile_rows`
records the compiled kernel's one-off set-up (``kernel_compile_s``): a
cold compile into an empty cache next to a warm load of the cached build
in a fresh interpreter.

``encoder_cold_setup`` times what every process start (and every
``load_model``) pays before its first encode: the codebook memo is
dropped, then a ``PackedLevelEncoder`` is built and encodes one image
with the compiled kernel already loaded.  It records the medians of the
Sobol codebook generation (``codebook_s``), the gather-table build plus
first encode (``table_s``) and the whole span (``total_s``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.config import UHDConfig
from ..core.encoder import SobolLevelEncoder
from ..fastpath import HAS_BITWISE_COUNT, PackedLevelEncoder
from ..fastpath import kernel as native_kernel
from ..fastpath.encoder import FANOUT_WIDTH
from ..hdc.classifier import CentroidClassifier
from ..lds.sobol import clear_sobol_cache, sobol_sequences

__all__ = [
    "BenchResult",
    "kernel_compile_rows",
    "run_throughput_suite",
    "write_bench_json",
    "render_results",
]


@dataclass(frozen=True)
class BenchResult:
    """One benchmark row: timings plus the speedup over the reference."""

    name: str
    median_s: float
    ops_per_s: float
    speedup_vs_reference: float | None = None


def _interleaved_medians(
    callables: dict[str, object], repeats: int, block: int = 8
) -> dict[str, float]:
    """Median wall time per callable, sampled in alternating blocks.

    Blocks of ``block`` consecutive runs keep each callable's working set
    cache-hot (matching how pytest-benchmark times each test in its own
    loop) while alternating blocks spreads machine noise across all
    callables instead of letting a burst hit only one.
    """
    samples: dict[str, list[float]] = {name: [] for name in callables}
    for _ in range(-(-repeats // block)):
        for name, fn in callables.items():
            times = samples[name]
            for _ in range(min(block, repeats - len(times))):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
    return {name: float(np.median(times)) for name, times in samples.items()}


def run_throughput_suite(
    pixels: int = 784,
    dim: int = 1024,
    levels: int = 16,
    batch: int = 32,
    thread_batch: int = 256,
    queries: int = 512,
    num_classes: int = 10,
    repeats: int = 15,
    seed: int = 0,
) -> dict:
    """Encode + binarized-predict throughput across backends.

    Returns a dict with a ``benchmarks`` list (name, median_s, ops_per_s,
    speedup_vs_reference) and the workload ``config``;
    raises if any fast backend is not bit-exact with its baseline on this
    workload.
    """
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(pixels))

    def draw(count: int) -> np.ndarray:
        shape = (count, side, side) if side * side == pixels else (count, pixels)
        return rng.integers(0, 256, size=shape, dtype=np.uint8)

    images = draw(batch)
    images_large = draw(thread_batch)

    config = UHDConfig(dim=dim, levels=levels)
    reference = SobolLevelEncoder(pixels, config)
    packed = PackedLevelEncoder(pixels, config)
    # warm the table build and first-touch page faults
    packed.encode_batch(images)
    packed.encode_batch(images)
    packed.encode_batch(images_large)
    reference.encode_batch(images)
    if not np.array_equal(reference.encode_batch(images), packed.encode_batch(images)):
        raise AssertionError("packed encoder is not bit-exact with the reference")

    encoded = rng.integers(-pixels, pixels + 1, size=(queries, dim), dtype=np.int64)
    labels = rng.integers(0, num_classes, size=queries)
    ref_clf = CentroidClassifier(num_classes, dim, binarize=True, backend="reference")
    packed_clf = CentroidClassifier(num_classes, dim, binarize=True, backend="packed")
    for clf in (ref_clf, packed_clf):
        clf.fit(encoded, labels)
        clf.predict(encoded)  # warm the packed class-HV caches
    # compare where the binarized ranking is well-defined; on exact
    # integer-dot ties the reference argmax is float-rounding noise
    # (batch-shape dependent), the packed path picks the lowest index
    from ..hdc.ops import binarize

    dots = (
        binarize(encoded).astype(np.int64)
        @ binarize(ref_clf.accumulators).astype(np.int64).T
    )
    well_defined = (dots == dots.max(axis=1, keepdims=True)).sum(axis=1) == 1
    if not np.array_equal(
        ref_clf.predict(encoded)[well_defined],
        packed_clf.predict(encoded)[well_defined],
    ):
        raise AssertionError("packed inference disagrees with the reference")

    # interleave each fast benchmark only with its own baseline so both
    # sides of a ratio see identical machine noise; the predict trio's
    # multi-MB query arrays would otherwise evict the encoder's
    # cache-resident workspace between rounds
    medians = _interleaved_medians(
        {
            "uhd_encode_reference": lambda: reference.encode_batch(images),
            "uhd_encode_packed": lambda: packed.encode_batch(images),
        },
        repeats,
    )
    medians.update(
        _interleaved_medians(
            {"uhd_encode_packed_large": lambda: packed.encode_batch(images_large)},
            repeats,
        )
    )
    medians.update(
        _interleaved_medians(
            {
                "uhd_predict_binarized_reference": lambda: ref_clf.predict(encoded),
                "uhd_predict_binarized_packed": lambda: packed_clf.predict(encoded),
            },
            repeats,
        )
    )

    def result(name: str, ops: int, reference_name: str | None = None) -> BenchResult:
        median = medians[name]
        return BenchResult(
            name,
            median,
            ops / median,
            medians[reference_name] / median if reference_name else None,
        )

    benchmarks = [
        result("uhd_encode_reference", batch),
        result("uhd_encode_packed", batch, reference_name="uhd_encode_reference"),
        result("uhd_encode_packed_large", thread_batch),
        result("uhd_predict_binarized_reference", queries),
        result(
            "uhd_predict_binarized_packed",
            queries,
            reference_name="uhd_predict_binarized_reference",
        ),
    ]
    return {
        "config": {
            "pixels": pixels,
            "dim": dim,
            "levels": levels,
            "batch": batch,
            "thread_batch": thread_batch,
            "queries": queries,
            "num_classes": num_classes,
            "repeats": repeats,
            "numpy": np.__version__,
            "bitwise_count": HAS_BITWISE_COUNT,
            "cpu_count": os.cpu_count(),
            "fanout_width": FANOUT_WIDTH,
            "encode_kernel": packed.kernel,
        },
        "benchmarks": [asdict(b) for b in benchmarks]
        + _layer_rows(packed, packed_clf, pixels, repeats)
        + [_cold_setup_row(pixels, config, images[:1], repeats)],
    }


def _cold_setup_row(
    pixels: int, config: UHDConfig, image: np.ndarray, repeats: int
) -> dict:
    """Median cold encoder set-up: codebook, table build, whole span."""
    native_kernel.load()  # the kernel's one-off load is not this row's cost
    codebook, table, total = [], [], []
    for _ in range(repeats):
        clear_sobol_cache()
        start = time.perf_counter()
        # the encoder's own codebook call, made first so its time is
        # separable; the constructor below then hits the memo
        sobol_sequences(
            pixels, config.dim, seed=config.seed, dtype=np.float32,
            digital_shift=config.digital_shift,
        )
        generated = time.perf_counter()
        encoder = PackedLevelEncoder(pixels, config)
        built = time.perf_counter()
        encoder.encode_batch(image)
        done = time.perf_counter()
        codebook.append(generated - start)
        table.append(done - built)
        total.append(done - start)
    total_s = float(np.median(total))
    return {
        "name": "encoder_cold_setup",
        "median_s": total_s,
        "ops_per_s": 1 / total_s,
        "speedup_vs_reference": None,
        "codebook_s": float(np.median(codebook)),
        "table_s": float(np.median(table)),
        "total_s": total_s,
        "repeats": repeats,
    }


def _layer_rows(
    packed: PackedLevelEncoder,
    classifier: CentroidClassifier,
    pixels: int,
    repeats: int,
) -> list[dict]:
    """Encode µs/image and classify µs/query at batch 1 and 32, and the
    whole binarized ``UHDClassifier.predict`` µs/image at batch 1 and 64."""
    from ..core.model import UHDClassifier
    from ..datasets import synthetic_mnist

    classes = classifier.num_classes
    if pixels == 784:
        data = synthetic_mnist(n_train=200, n_test=64, seed=11)
        images = data.test_images.reshape(64, pixels)
        train, labels = data.train_images, data.train_labels % classes
        source = "synthetic_mnist"
    else:
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, (64, pixels), np.uint8)
        train = rng.integers(0, 256, (200, pixels), np.uint8)
        labels = rng.integers(0, classes, 200)
        source = "uniform_random"
    model = UHDClassifier(
        pixels, classes, replace(packed.config, binarize=True, backend="packed")
    ).fit(train, labels)
    queries = packed.encode_batch(images[:32])
    calls = {}
    for rows in (1, 32):
        calls[f"layer_encode_b{rows}"] = (
            lambda x=images[:rows]: packed.encode_batch(x)
        )
        calls[f"layer_classify_b{rows}"] = (
            lambda q=queries[:rows]: classifier.predict(q)
        )
    for rows in (1, 64):
        calls[f"layer_predict_b{rows}"] = lambda x=images[:rows]: model.predict(x)
    medians = _interleaved_medians(calls, 4 * repeats)
    out = []
    for name, median in medians.items():
        rows = int(name.rsplit("_b", 1)[1])
        per = "us_per_query" if "classify" in name else "us_per_image"
        out.append({
            "name": name,
            "median_s": median,
            "ops_per_s": rows / median,
            "speedup_vs_reference": None,
            "batch": rows,
            per: median / rows * 1e6,
            "input": source,
        })
    return out


def kernel_compile_rows(repeats: int = 3) -> list[dict]:
    """``kernel_compile_s``: cold compile vs a fresh process's cached load.

    Empty where the compiled kernel is unavailable.  Kept out of
    :func:`run_throughput_suite` because each repeat compiles from
    scratch (seconds).
    """
    if native_kernel.load() is None:
        return []
    probe = (
        "import sys, time\n"
        "from repro.fastpath import kernel\n"
        "t = time.perf_counter()\n"
        "kernel.load_module(sys.argv[1])\n"
        "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    cold, warm = [], []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as directory:
            start = time.perf_counter()
            native_kernel.load_module(directory)
            cold.append(time.perf_counter() - start)
            done = subprocess.run(
                [sys.executable, "-c", probe, directory],
                capture_output=True, text=True, check=True, env=env,
            )
            warm.append(float(done.stdout.strip()))
    cold_s, warm_s = float(np.median(cold)), float(np.median(warm))
    return [{
        "name": "kernel_compile_s",
        "median_s": cold_s,
        "ops_per_s": 1 / cold_s,
        "speedup_vs_reference": None,
        "cold_compile_s": cold_s,
        "warm_load_s": warm_s,
        "repeats": repeats,
    }]


def write_bench_json(results: dict, path: str, merge: bool = True) -> None:
    """Write suite results as indented JSON (the checked-in perf record).

    With ``merge=True`` (default) an existing record at ``path`` is
    *updated*, not clobbered: benchmark rows are replaced by name and
    rows the new results do not produce are preserved, as are top-level
    sections the new results do not carry.  That lets independent
    benchmark writers — ``run_bench.py`` (encode/predict rows plus the
    ``config`` section) and ``bench_serving.py`` (``serve_*`` rows plus
    ``serve_config``) — share one ``BENCH_throughput.json`` without
    erasing each other's recorded speedups.
    """
    merged = results
    if merge:
        try:
            with open(path, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict):
            merged = dict(existing)
            for key, value in results.items():
                if key != "benchmarks":
                    merged[key] = value
            new_rows = {b["name"]: b for b in results.get("benchmarks", [])}
            rows = [
                new_rows.pop(b["name"], b)
                for b in existing.get("benchmarks", [])
            ]
            rows.extend(new_rows.values())  # rows recorded for the first time
            merged["benchmarks"] = rows
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")


def render_results(results: dict) -> str:
    """Human-readable table of a suite run."""
    lines = ["throughput (median over interleaved repeats):"]
    for bench in results["benchmarks"]:
        suffix = ""
        if bench.get("speedup_vs_reference"):
            suffix += f"  ({bench['speedup_vs_reference']:.1f}x vs reference)"
        lines.append(
            f"  {bench['name']:<34} {bench['median_s'] * 1e3:8.3f} ms "
            f"{bench['ops_per_s']:10.0f} ops/s{suffix}"
        )
    return "\n".join(lines)
