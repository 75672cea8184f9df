"""The repository benchmark: three workloads, one command.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 20 --trace 0

Workloads: ``offline`` (in-process ``UHDClassifier`` fit + predict),
``serve_trickle`` and ``serve_mixed`` (a ``repro-uhd serve`` daemon with
1 forked worker, driven over its binary and HTTP wires).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload untraced for half the time and traced for the other
half, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything a run writes stays under ``perfbench/out``.
See ``perfbench/README.md`` for every metric and why each workload
exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

from common import (
    CLASSES, OUT, PIXELS, config, dense, digest, host_facts, median,
    mnist, now_ns, percentile, use_checkout_source,
)

#: (name, unit, better); the same three on every workload (README maps
#: each to the workload-specific figure it carries).  Tail latencies are
#: printed, not bounded: on a shared 2-core host they spread too much
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("images_per_s", "1/s", "higher"),
    ("latency_ms", "ms", "lower"),
]
SERVE_TRAIN = 1024
SERVE_POOL = 512
BULK_BATCHES = 16
SETUP_LAUNCHES = 5


def run_offline(args, work) -> dict:
    import offline
    from layers import accumulate, compute, empty

    train, labels, test = mnist(args.seed, offline.N_TRAIN, offline.N_TEST)
    setups = []
    for _ in range(offline.SETUP_REPEATS):
        model, seconds = offline.setup(train)
        setups.append(seconds)
    expected, problems = offline.gate(model, train, labels, test, args.seed)
    result = {"inputs": digest(train, labels, test), "problems": problems}
    if not args.trace:
        m = offline.measure(model, train, labels, test, expected, args.seconds)
        result["metrics"] = {
            "setup_s": median(setups),
            "images_per_s": percentile(m["predict_rates"], 90),
            "latency_ms": percentile(m["call_ms"], 10),
        }
        result["named"] = {
            "fit_images_per_s": percentile(m["fit_rates"], 90),
            "predict_images_per_s": percentile(m["predict_rates"], 90),
            "call_p50_ms": percentile(m["call_ms"], 50),
            "call_p99_ms": percentile(m["call_ms"], 99),
        }
    else:
        from spans import Tracer, install_library

        half = args.seconds / 2
        m = offline.measure(model, train, labels, test, expected, half)
        tracer = Tracer()
        install_library(tracer)
        t0 = now_ns()
        model, _ = offline.setup(train, tracer)
        setup_records = [r for r in tracer.records if r[1] >= t0]
        w0 = now_ns()
        traced = offline.measure(model, train, labels, test, expected, half)
        window = (w0, now_ns())
        in_window = [r for r in tracer.records if window[0] <= r[1] < window[1]]
        layers = empty()
        layers.update(compute(tracer.records, window))
        layers["fit.accumulate_us_per_image"] = accumulate(in_window)
        layers["setup.codebook_s"] = sum(
            r[2] - r[1] for r in setup_records if r[0] == "codebook") / 1e9
        layers["setup.table_build_s"] = sum(
            r[2] - r[1] for r in setup_records if r[0] == "warmup") / 1e9
        layers["setup.table_bytes"] = getattr(model.encoder, "table_nbytes", 0)
        layers["trace.overhead_ms"] = (
            percentile(traced["call_ms"], 10) - percentile(m["call_ms"], 10)
        )
        result["layers"] = layers
        m = traced
    result["attempted"] = m["attempted"]
    result["failed"] = m["failed"]
    result["wrong"] = m["failed"]
    return result


def run_serving(args, work) -> dict:
    import serving
    from repro import UHDClassifier
    from repro.api import load_model, save_model

    tracer = None
    if args.trace:
        from spans import Tracer, install_client, install_library

        tracer = Tracer()
        install_library(tracer)
        install_client(tracer)
    trickle = args.workload == "serve_trickle"
    train, labels, pool = mnist(args.seed, SERVE_TRAIN, SERVE_POOL)
    bulk = dense(args.seed, BULK_BATCHES * serving.BULK_ROWS).reshape(
        BULK_BATCHES, serving.BULK_ROWS, PIXELS)
    model_path = work / "model.npz"
    save_model(UHDClassifier(PIXELS, CLASSES, config()).fit(train, labels), model_path)
    served = load_model(model_path)
    expected = served.predict(pool)
    bulk_expected = served.predict(bulk.reshape(-1, PIXELS)).reshape(bulk.shape[:2])
    lanes = () if trickle else serving.MIXED_LANES
    arrays = [train, labels, pool, bulk]
    if trickle:
        arrays.extend(serving.trickle_schedule(args.seed, args.seconds, len(pool)))
    result = {"inputs": digest(*arrays), "problems": []}
    log = open(work / "daemon.log", "w")

    def drive(daemon, seconds):
        if trickle:
            return serving.trickle(daemon, pool, expected, args.seed, seconds)
        return serving.mixed(daemon, pool, expected, bulk, bulk_expected,
                             args.seed, seconds)

    def launch(trace_dir=None):
        daemon = serving.Daemon(model_path, lanes, trace_dir, log)
        return daemon, daemon.start(pool[0], expected[0])

    daemons = []
    try:
        if not args.trace:
            setups = []
            for _ in range(SETUP_LAUNCHES):
                daemon, seconds = launch()
                daemons.append(daemon)
                setups.append(seconds)
                if len(setups) < SETUP_LAUNCHES:
                    daemon.stop()
            r = drive(daemon, args.seconds)
            mismatch, result["reconcile"] = serving.reconcile(daemon)
            daemon.stop()
            lat = r["latency_ms"]
            result["metrics"] = {
                "setup_s": median(setups),
                "images_per_s": r["images_per_s"],
                "latency_ms": median(lat),
            }
            result["named"] = (
                {"latency_p50_ms": median(lat),
                 "latency_p95_ms": percentile(lat, 95),
                 "latency_p99_ms": percentile(lat, 99)} if trickle else
                {"bulk_images_per_s": r["images_per_s"],
                 "interactive_p50_ms": median(lat),
                 "interactive_p95_ms": percentile(lat, 95)}
            )
            result["named"]["reconcile.mismatch"] = mismatch
        else:
            import layers as layer_metrics
            from spans import load_records

            half = args.seconds / 2
            daemon, _ = launch()
            daemons.append(daemon)
            untraced = drive(daemon, half)
            daemon.stop()
            trace_dir = work / "spans"
            daemon, _ = launch(trace_dir)
            daemons.append(daemon)
            stats0 = daemon.stats()
            r = drive(daemon, half)
            stats1 = daemon.stats()
            mismatch, result["reconcile"] = serving.reconcile(daemon)
            pid = daemon.proc.pid
            daemon.stop()
            by_pid = load_records(trace_dir)
            main = by_pid.pop(pid, [])
            workers = [rec for recs in by_pid.values() for rec in recs]
            errors = sum(rec[0] == "trace.error" for rec in main + workers)
            if errors:
                result["notes"] = [f"{errors} span records could not be taken"]
            layers = layer_metrics.empty()
            layers.update(layer_metrics.serving(
                main, workers, tracer.records, r["window_ns"], stats0, stats1,
                r.get("rtt_ns", ()),
            ))
            layers["fit.accumulate_us_per_image"] = layer_metrics.accumulate(
                tracer.records)
            layers["reconcile.mismatch"] = mismatch
            p50 = median(r["latency_ms"])
            layers["trace.overhead_ms"] = p50 - median(untraced["latency_ms"])
            if trickle:
                layers["gen.late_p99_ms"] = percentile(r["late_ms"], 99)
                layers["trace.unaccounted_ms"] = (
                    p50 - layer_metrics.stage_sum_ms(layers))
            result["layers"] = layers
    finally:
        for daemon in daemons:
            daemon.stop()
        log.close()
    result["attempted"] = r["attempted"]
    result["failed"] = r["failed"]
    result["wrong"] = r["wrong"]
    return result


WORKLOADS = {
    "offline": run_offline,
    "serve_trickle": run_serving,
    "serve_mixed": run_serving,
}

#: workload-specific figures printed beside the bounded metrics
NAMED_UNITS = {
    "fit_images_per_s": ("1/s", "higher"),
    "predict_images_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "bulk_images_per_s": ("1/s", "higher"),
    "latency_p95_ms": ("ms", "lower"),
    "call_p50_ms": ("ms", "lower"),
    "call_p99_ms": ("ms", "lower"),
    "interactive_p50_ms": ("ms", "lower"),
    "interactive_p95_ms": ("ms", "lower"),
    "reconcile.mismatch": ("count", "lower"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through the finally blocks that stop the daemons
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    use_checkout_source()
    import repro  # noqa: F401  (fails fast outside a checkout)

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = WORKLOADS[args.workload](args, work)
    shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    correct = not result["problems"] and result["wrong"] == 0 and attempted > 0
    if args.trace:
        from layers import PER_LAYER

        specs = PER_LAYER
        values = result["layers"]
    else:
        specs = END_TO_END
        values = result["metrics"]
    host = host_facts()
    print(f"workload {args.workload}  seed {args.seed}  inputs {result['inputs']}  "
          f"trace {args.trace}  " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for name, unit, better in specs:
        print(f"  {name:<34} {values[name]:>14.6g} {unit:<6} ({better} is better)")
    for name, value in result.get("named", {}).items():
        unit, better = NAMED_UNITS[name]
        print(f"  [{args.workload}] {name:<28} {value:>12.6g} {unit:<6} ({better} is better)")
    print(f"  error_rate {failed / max(attempted, 1):.6g} ({failed} of {attempted} "
          f"failed, {result['wrong']} wrong labels)")
    for problem in (result["problems"] + result.get("reconcile", [])
                    + result.get("notes", [])):
        print(f"  ! {problem}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": result["inputs"], "host": host,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": values, "named": result.get("named", {}),
        "problems": result["problems"], "reconcile": result.get("reconcile", []),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _better in specs
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
