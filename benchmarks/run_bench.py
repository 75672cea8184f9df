#!/usr/bin/env python
"""Throughput benchmark runner: writes the machine-readable perf trajectory.

Executes the reference-vs-packed encode and binarized-predict
benchmarks (the same hot paths ``bench_throughput.py`` measures under
pytest-benchmark, without needing the plugin) and writes
``BENCH_throughput.json``: name, median seconds, ops/s and speedup ratios
per benchmark, plus per-layer encode/classify rows at batch 1 and 32, the
cold encoder set-up row (``encoder_cold_setup``: codebook generation,
table build and their total) and the compiled encode kernel's
cold-compile vs cached-load row (``kernel_compile_s``).  Subsequent
changes regress against the checked-in file.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --out BENCH_throughput.json --repeats 25
    PYTHONPATH=src python benchmarks/run_bench.py --smoke

``--smoke`` is the CI guard: a quick run compared against the checked-in
baseline — every recorded speedup must hold to within ``--min-ratio``
(default 0.5, generous because CI machines differ from the recording
machine).  Smoke mode never overwrites the baseline; it exits non-zero on
regression.

Also exposed as ``repro-uhd bench`` (without the guards).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.throughput import (
    kernel_compile_rows,
    render_results,
    run_throughput_suite,
    write_bench_json,
)

#: workload keys that must match the baseline for speedup ratios to be
#: commensurate (machine keys like numpy/cpu_count legitimately differ;
#: the encode kernel does not: its NumPy fallback is several times slower)
_WORKLOAD_KEYS = (
    "pixels", "dim", "levels", "batch", "queries", "encode_kernel",
)


def check_smoke(results: dict, baseline: dict, min_ratio: float) -> list[str]:
    """Recorded-speedup regression verdicts; empty list means pass."""
    failures: list[str] = []
    for key in _WORKLOAD_KEYS:
        new_value = results["config"].get(key)
        old_value = baseline.get("config", {}).get(key)
        if old_value is not None and new_value != old_value:
            failures.append(
                f"workload mismatch: {key}={new_value} but the baseline was "
                f"recorded at {key}={old_value}; speedup comparison would be "
                "meaningless (rerun with matching flags and environment)"
            )
    if failures:
        return failures
    recorded = {b["name"]: b for b in baseline.get("benchmarks", [])}
    result_names = {b["name"] for b in results["benchmarks"]}
    compared = 0
    for bench in results["benchmarks"]:
        old = recorded.get(bench["name"])
        if old is None:
            continue  # benchmark added after the baseline was recorded
        old_speedup = old.get("speedup_vs_reference")
        new_speedup = bench.get("speedup_vs_reference")
        if not old_speedup or not new_speedup:
            continue
        compared += 1
        if new_speedup < min_ratio * old_speedup:
            failures.append(
                f"{bench['name']}: speedup_vs_reference regressed to "
                f"{new_speedup:.2f}x (recorded {old_speedup:.2f}x, floor "
                f"{min_ratio * old_speedup:.2f}x)"
            )
    # a rename/removal must not turn the guard into a vacuous pass
    for name, old in recorded.items():
        if old.get("speedup_vs_reference") and name not in result_names:
            failures.append(
                f"baseline row {name!r} has no matching result — renamed or "
                "removed benchmark? regenerate the baseline"
            )
    if compared == 0:
        failures.append(
            "no speedup comparisons ran against the baseline — the smoke "
            "guard would pass vacuously; regenerate the baseline"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_throughput.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per benchmark, median reported "
             "(default: 25, or 5 under --smoke)",
    )
    parser.add_argument(
        "--dim", "--dims", type=int, default=1024, dest="dim",
        help="hypervector dimension (``--dims`` accepted to match the CLI)",
    )
    parser.add_argument("--pixels", type=int, default=784, help="pixels per image")
    parser.add_argument("--batch", type=int, default=32, help="encode batch size")
    parser.add_argument(
        "--queries", type=int, default=512, help="inference query count"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="quick CI guard: compare against --baseline instead of writing",
    )
    parser.add_argument(
        "--baseline", default="BENCH_throughput.json",
        help="recorded baseline for --smoke (default: %(default)s)",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.5,
        help="--smoke floor: measured speedup must be >= this fraction of "
             "the recorded one (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (5 if args.smoke else 25)
    results = run_throughput_suite(
        pixels=args.pixels,
        dim=args.dim,
        batch=args.batch,
        queries=args.queries,
        repeats=repeats,
    )
    if not args.smoke:  # seconds per cold compile; no speedup to guard
        results["benchmarks"] += kernel_compile_rows()
    print(render_results(results))
    if args.smoke:
        try:
            with open(args.baseline, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"SMOKE REGRESSION: cannot read baseline {args.baseline}: {exc}",
                file=sys.stderr,
            )
            return 1
        failures = check_smoke(results, baseline, args.min_ratio)
        for failure in failures:
            print(f"SMOKE REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print(f"smoke check OK against {args.baseline}")
        return 1 if failures else 0
    write_bench_json(results, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
