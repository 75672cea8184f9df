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
``fanout_width`` in the config records how many threads it could use.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..core.config import UHDConfig
from ..core.encoder import SobolLevelEncoder
from ..fastpath import HAS_BITWISE_COUNT, PackedLevelEncoder
from ..fastpath.encoder import FANOUT_WIDTH
from ..hdc.classifier import CentroidClassifier

__all__ = ["BenchResult", "run_throughput_suite", "write_bench_json", "render_results"]


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
        },
        "benchmarks": [asdict(b) for b in benchmarks],
    }


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
