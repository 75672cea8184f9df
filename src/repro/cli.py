"""Command-line interface: regenerate tables/figures, and model lifecycle.

Usage::

    repro-uhd list
    repro-uhd table1
    repro-uhd table4 --dims 1024 2048 --backend packed
    repro-uhd fig6
    repro-uhd checkpoints
    repro-uhd bench --out BENCH_throughput.json
    repro-uhd save --out model.npz --dataset mnist --dim 2048 --backend packed
    repro-uhd save --out model.npz --dim 2048 --include-tables
    repro-uhd load --model model.npz --dataset mnist
    repro-uhd serve-check --model model.npz --batch 64
    repro-uhd serve --model model.npz --workers 2 --rounds 3 --batch 16
    repro-uhd serve --model model.npz --workers 2 --start-method spawn
    repro-uhd serve --model model.npz --http-port 8080 --binary-port 9090 --serve-forever
    repro-uhd serve --model model.npz --http-port 0 \\
        --lane interactive:16:1:4 --lane bulk:64:50 --deadline-ms 5000
    repro-uhd route --model mnist=mnist.npz --model fashion=fashion.npz \\
        --replicas 2 --http-port 0 --reload

Accuracy experiments honour ``REPRO_FULL=1`` for paper-leaning workload
sizes; ``--backend`` accepts any backend registered with
:func:`repro.api.register_backend` (bit-exact built-ins: auto, packed,
reference).  ``save``/``load`` round-trip trained models through
the versioned :mod:`repro.api.persistence` format; ``serve-check`` is the
serving-readiness probe — it loads a warm model (no retraining) and
reports prediction latency.

``serve`` and ``route`` are one command: ``route`` stands up a
:class:`repro.serve.Router` over ``--model NAME=PATH`` deployments of
``--replicas`` servers each, and ``serve --model PATH`` is the same
router with one deployment of one replica, named after the file's stem
(each replica's workers run the serve-check probe before accepting
traffic).  Both answer ``--rounds`` self-test round-trips verified
bit-exact — over the binary wire when ``--binary-port`` is set, else
over HTTP when ``--http-port`` is set, else in-process — print batching
stats, and shut down cleanly.  ``--http-port`` puts the stdlib HTTP
transport in front (bare ``/predict`` and ``/stats`` address the default
model; ``/models/<id>/...``, ``/healthz``, Prometheus ``/metrics``);
``--serve-forever`` keeps serving until SIGTERM/SIGINT, which drain
every deployment, and hot-reloads every model on SIGHUP.  ``--lane
NAME[:MAX_BATCH[:MAX_WAIT_MS[:WEIGHT]]]`` (repeatable) declares priority
lanes; the first is the default lane the round-trips use.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
import time

from .api import list_backends
from .eval import experiments as ex
from .eval.figures import ascii_chart
from .eval.tables import render_table

__all__ = ["main"]


def _dims_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[1024, 2048, 8192],
        help="hypervector dimensions to sweep",
    )
    _backend_arg(parser)


def _backend_arg(parser: argparse.ArgumentParser, default: str | None = "auto") -> None:
    parser.add_argument(
        "--backend", choices=sorted(list_backends()), default=default,
        help="execution backend from the repro.api registry; bit-exact either way",
    )


def _cmd_table1(_: argparse.Namespace) -> str:
    rows = ex.table1_embedded()
    return render_table(
        ["design", "D", "runtime_s", "dyn_mem_KB", "code_KB",
         "paper_runtime_s", "paper_mem_KB"],
        [(r.design, r.dim, r.runtime_s, r.dynamic_memory_kb, r.code_memory_kb,
          r.paper_runtime_s, r.paper_memory_kb) for r in rows],
        title="Table I - embedded platform performance",
    )


def _cmd_table2(args: argparse.Namespace) -> str:
    rows = ex.table2_energy_area(dims=tuple(args.dims))
    return render_table(
        ["design", "D", "E/HV (pJ)", "E/image (pJ)", "AxD (m^2 s)",
         "paper E/HV", "paper AxD"],
        [(r.design, r.dim, r.energy_per_hv_pj, r.energy_per_image_pj,
          r.area_delay_m2s, r.paper_energy_per_hv_pj, r.paper_area_delay_m2s)
         for r in rows],
        title="Table II - energy and area-delay",
    )


def _cmd_table3(_: argparse.Namespace) -> str:
    rows = ex.table3_sota()
    return render_table(
        ["framework", "platform", "energy efficiency (x)"],
        [(r.framework, r.platform, r.energy_efficiency) for r in rows],
        title="Table III - energy efficiency vs SOTA",
    )


def _cmd_table4(args: argparse.Namespace) -> str:
    rows = ex.table4_mnist_accuracy(dims=tuple(args.dims), backend=args.backend)
    checkpoints = sorted(rows[0].baseline_by_checkpoint) if rows else []
    headers = ["D"] + [f"base i<={c}" for c in checkpoints] + [
        "uHD", "paper base i=1", "paper uHD"]
    body = [
        [r.dim] + [r.baseline_by_checkpoint[c] for c in checkpoints]
        + [r.uhd, r.paper_baseline_i1, r.paper_uhd]
        for r in rows
    ]
    return render_table(headers, body, title="Table IV - MNIST accuracy (%)")


def _cmd_table5(args: argparse.Namespace) -> str:
    rows = ex.table5_datasets(dims=tuple(args.dims), backend=args.backend)
    return render_table(
        ["dataset", "D", "uHD", "baseline", "paper uHD", "paper baseline"],
        [(r.dataset, r.dim, r.uhd, r.baseline, r.paper_uhd, r.paper_baseline)
         for r in rows],
        title="Table V - accuracy across datasets (%)",
    )


def _cmd_fig6(args: argparse.Namespace) -> str:
    series = ex.fig6a_iteration_series(dim=args.dims[0])
    uhd = ex.fig6c_uhd_series(dims=tuple(args.dims), backend=args.backend)
    lines = [
        "Fig. 6(a) - baseline accuracy per random draw:",
        ascii_chart(series, label=f"D={args.dims[0]}"),
        "",
        "Fig. 6(b) - prior art (quoted):",
    ]
    for point in ex.fig6b_prior_art():
        retrain = "w/ retrain" if point.retrained else "w/o retrain"
        lines.append(f"  {point.label}: {point.accuracy_percent:.2f}% "
                     f"@ D={point.dim} ({retrain})")
    lines.append("")
    lines.append("Fig. 6(c) - uHD single-pass accuracy:")
    for dim, acc in uhd.items():
        lines.append(f"  D={dim}: {acc:.2f}%")
    return "\n".join(lines)


def _cmd_checkpoints(_: argparse.Namespace) -> str:
    rows = [
        ex.checkpoint1_generation(),
        ex.checkpoint2_comparator(),
        ex.checkpoint3_binarize(),
    ]
    return render_table(
        ["checkpoint", "uHD (fJ)", "baseline (fJ)", "measured ratio",
         "paper ratio"],
        [(r.name, r.uhd_fj, r.baseline_fj, r.measured_ratio, r.paper_ratio)
         for r in rows],
        title="Design checkpoints 1-3 - energy",
    )


def _cmd_report(_: argparse.Namespace) -> str:
    from .eval.report import build_experiments_markdown

    return build_experiments_markdown("benchmarks/results")


def _cmd_bench(args: argparse.Namespace) -> str:
    from .eval.throughput import render_results, run_throughput_suite, write_bench_json

    results = run_throughput_suite(dim=args.dims[0], repeats=args.repeats)
    if args.out:
        write_bench_json(results, args.out)
    return render_results(results)


# ----------------------------------------------------------------------
# Model lifecycle: save / load / serve-check (the repro.api surface)
# ----------------------------------------------------------------------
def _load_split(name: str, n_train: int, n_test: int, seed: int):
    from .datasets import load_dataset

    return load_dataset(name, n_train=n_train, n_test=n_test, seed=seed).grayscale()


def _cmd_save(args: argparse.Namespace) -> str:
    from .api.persistence import save_model, table_sidecar_path
    from .core.config import UHDConfig
    from .core.model import UHDClassifier

    data = _load_split(args.dataset, args.n_train, args.n_test, args.seed)
    config = UHDConfig(dim=args.dim, backend=args.backend)
    model = UHDClassifier(data.num_pixels, data.num_classes, config)
    if args.include_tables and not hasattr(model.encoder, "export_tables"):
        # fail before the (potentially long) fit, not after
        raise SystemExit(
            f"--include-tables: backend {args.backend!r} resolves to an "
            "encoder without exportable gather tables; use a "
            "packed-capable backend (auto/packed)"
        )
    start = time.perf_counter()
    model.fit(data.train_images, data.train_labels)
    fit_s = time.perf_counter() - start
    accuracy = model.score(data.test_images, data.test_labels)
    save_model(model, args.out, include_tables=args.include_tables)
    lines = [
        f"trained UHDClassifier on {args.dataset} "
        f"(n={data.train_images.shape[0]}, D={args.dim}, "
        f"backend={args.backend}) in {fit_s:.2f}s; "
        f"test accuracy {accuracy * 100.0:.2f}%",
        f"saved model to {args.out}",
    ]
    if args.include_tables:
        lines.append(
            f"flushed warm gather tables to {table_sidecar_path(args.out)} "
            "(loads will attach, not rebuild)"
        )
    return "\n".join(lines)


def _cmd_load(args: argparse.Namespace) -> str:
    from .core.model import UHDClassifier

    model = UHDClassifier.load(args.model)
    if args.backend is not None and args.backend != model.config.backend:
        model = model.with_backend(args.backend)
    data = _load_split(args.dataset, args.n_train, args.n_test, args.seed)
    accuracy = model.score(data.test_images, data.test_labels)
    return (
        f"loaded UHDClassifier from {args.model} "
        f"(D={model.config.dim}, levels={model.config.levels}, "
        f"backend={model.config.backend}, classes={model.num_classes}) "
        "without retraining\n"
        f"test accuracy on {args.dataset}: {accuracy * 100.0:.2f}%"
    )


def _cmd_serve_check(args: argparse.Namespace) -> str:
    """Serving-readiness probe: warm-load a model and time its predictions.

    Runs :func:`repro.serve.readiness_probe` — the *same* function every
    ``repro-uhd serve`` worker runs before accepting traffic, so a
    passing serve-check here means the worker handshake will pass too.
    """
    from .core.model import UHDClassifier
    from .serve import readiness_probe

    model = UHDClassifier.load(args.model)
    if args.backend is not None and args.backend != model.config.backend:
        model = model.with_backend(args.backend)
    probe = readiness_probe(
        model, model.num_pixels,
        batch=args.batch, repeats=args.repeats, seed=args.seed,
    )
    return (
        f"serve-check OK: {args.model} "
        f"(D={model.config.dim}, backend={model.config.backend})\n"
        f"  loaded warm (no retraining), predictions deterministic\n"
        f"  batch={probe.batch}: median {probe.median_ms:.3f} ms "
        f"({probe.images_per_s:.0f} images/s over {probe.repeats} repeats)"
    )


def _parse_lane(spec: str):
    """``NAME[:MAX_BATCH[:MAX_WAIT_MS[:WEIGHT]]]`` -> LaneConfig.

    Empty fields inherit the server-wide knob: ``bulk::50`` is a lane
    named bulk with the global max_batch and a 50 ms window.
    """
    from .serve import LaneConfig

    fields = spec.split(":")
    if len(fields) > 4:
        raise argparse.ArgumentTypeError(
            f"lane spec {spec!r} has too many fields; expected "
            "NAME[:MAX_BATCH[:MAX_WAIT_MS[:WEIGHT]]]"
        )

    def _field(index: int, cast):
        if len(fields) <= index or fields[index] == "":
            return None
        try:
            return cast(fields[index])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"lane spec {spec!r}: field {index} ({fields[index]!r}) "
                f"is not a valid {cast.__name__}"
            ) from None

    weight = _field(3, float)
    try:
        return LaneConfig(
            name=fields[0],
            max_batch=_field(1, int),
            max_wait_ms=_field(2, float),
            weight=1.0 if weight is None else weight,
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"lane spec {spec!r}: {exc}") from None


@contextlib.contextmanager
def _graceful_shutdown():
    """Install SIGTERM/SIGINT handlers that request a drain, not a kill.

    Yields a ``threading.Event`` set when either signal arrives; the
    caller's ``with Router(...)`` block then exits normally and
    ``close()`` drains in-flight lanes (``ServeConfig.drain_timeout_s``)
    before stopping the workers — instead of the default SIGTERM action
    killing the pool with queued requests.  Handlers are restored on
    exit; outside the main thread (where signals cannot be installed)
    the event is yielded unarmed.
    """
    stop = threading.Event()

    def _handler(signum, frame):  # pragma: no cover - exercised via CI/tests
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except ValueError:  # not the main thread
            pass
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _http_predict(http, model_id: str, batch, deadline_ms: float | None):
    """POST one batch to ``/models/<id>/predict`` as JSON; returns its labels."""
    import json
    import urllib.request

    import numpy as np

    payload: dict = {"images": batch.tolist()}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    request = urllib.request.Request(
        f"{http.address}/models/{model_id}/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60.0) as response:
        return np.asarray(json.load(response)["labels"])


@contextlib.contextmanager
def _reload_on_sighup():
    """Install a SIGHUP handler that requests a rolling hot reload.

    Yields a ``threading.Event`` the daemon loop polls: set means "an
    operator sent SIGHUP, reload every deployment".  Platforms without
    SIGHUP (Windows) and non-main threads get the event unarmed — the
    daemon still runs, reload is just unavailable by signal there.
    """
    trigger = threading.Event()

    def _handler(signum, frame):  # pragma: no cover - exercised via CI
        trigger.set()

    sighup = getattr(signal, "SIGHUP", None)
    previous = None
    armed = False
    if sighup is not None:
        try:
            previous = signal.signal(sighup, _handler)
            armed = True
        except ValueError:  # not the main thread
            pass
    try:
        yield trigger
    finally:
        if armed:
            signal.signal(sighup, previous)


def _parse_model_spec(spec: str) -> tuple[str, str]:
    """``NAME=PATH`` -> (model id, model path) for ``route --model``."""
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(
            f"model spec {spec!r} must be NAME=PATH (e.g. mnist=mnist.npz)"
        )
    if "/" in name:
        raise argparse.ArgumentTypeError(
            f"model id {name!r} must be slash-free (it becomes a URL segment)"
        )
    return name, path


def _stem_model_spec(path: str) -> tuple[str, str]:
    """``PATH`` -> (file stem, path): ``serve``'s one deployment id."""
    from pathlib import Path

    return Path(path).stem, path


def _reload_all(router) -> list[str]:
    """Rolling hot reload of every deployment; one report line each."""
    lines = []
    for model_id in router.deployments:
        report = router.reload(model_id)
        lines.append(
            f"  reload: {model_id} generation {report['from_generation']} -> "
            f"{report['to_generation']} ({report['replaced']} replica(s) "
            f"swapped in {report['duration_s']:.2f}s)"
        )
    return lines


def _cmd_route(args: argparse.Namespace) -> str:
    """Start a router, answer self-test round-trips (or serve), shut down.

    ``serve`` is this command with one deployment of one replica whose
    id is the model file's stem.  Each ``route --model NAME=PATH``
    becomes a deployment of ``--replicas`` servers with least-loaded
    dispatch.  The self-test rounds are :func:`_round_trips`.  Daemon
    mode (``--serve-forever``) hot-reloads every deployment on SIGHUP
    and drains all deployments **concurrently** on SIGTERM/SIGINT —
    total shutdown is bounded by the slowest deployment's drain window,
    not the sum.
    """
    from .serve import (
        DeploymentSpec,
        HttpTransport,
        Router,
        ServeConfig,
        SocketTransport,
    )

    if args.serve_forever and args.http_port is None and args.binary_port is None:
        # fail fast: a supervisor that believes it started a daemon must
        # not get a self-test run that exits after --rounds
        raise SystemExit(
            f"repro-uhd {args.command}: --serve-forever requires --http-port "
            "or --binary-port (there is no transport to keep serving "
            "without one)"
        )
    config = ServeConfig(
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        lanes=tuple(args.lane or ()),
        backend=args.backend,
        start_method=args.start_method,
        drain_timeout_s=args.drain_timeout_s,
    )
    specs: dict[str, DeploymentSpec] = {}
    for name, path in args.model if args.command == "route" else [args.model]:
        if name in specs:
            raise SystemExit(f"repro-uhd route: duplicate model id {name!r}")
        specs[name] = DeploymentSpec(
            path,
            replicas=args.replicas,
            min_ready=args.min_ready,
            serve=config,
        )
    lines: list[str] = []
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        stop = stack.enter_context(_graceful_shutdown())
        hup = stack.enter_context(_reload_on_sighup())
        router = stack.enter_context(Router(specs))
        startup_s = time.perf_counter() - start
        mode = "in-process fallback" if config.workers == 0 else (
            f"{config.workers} worker process(es) per replica"
        )
        lane_names = ", ".join(lane.name for lane in config.effective_lanes())
        lines.append(
            f"{args.command}: {len(specs)} model(s) x {args.replicas} "
            f"replica(s) up in {startup_s:.2f}s ({mode}, "
            f"max_batch={config.max_batch}, max_wait={config.max_wait_ms:g}ms, "
            f"lanes: {lane_names})"
        )
        for row in router.models():
            lines.append(
                f"  model {row['model']}: generation {row['generation']}, "
                f"{row['ready']}/{row['replicas']} replica(s) ready "
                f"({row['path']})"
            )
            doc = router.stats(row["model"])
            builds = doc["worker_table_builds"]
            for slot, probe_ms in enumerate(doc["worker_probe_ms"]):
                warm = ""
                if slot < len(builds):
                    warm = (
                        ", tables attached (0 builds)" if builds[slot] == 0
                        else f", tables built ({builds[slot]})"
                    )
                lines.append(
                    f"  {row['model']} worker {slot}: ready, serve-check "
                    f"probe median {probe_ms:.3f} ms{warm}"
                )
        # transports enter the stack after the router, so they close
        # (answering what they accepted) before the router drains
        http = binary = None
        if args.http_port is not None:
            http = stack.enter_context(
                HttpTransport(router, host=args.http_host, port=args.http_port)
            )
            lines.append(
                f"  http: listening on {http.address} (POST /predict, "
                "POST /models/<id>/predict, GET /models, GET /healthz, "
                "GET /stats, GET /metrics)"
            )
        if args.binary_port is not None:
            binary = stack.enter_context(
                SocketTransport(
                    router, host=args.http_host, port=args.binary_port
                )
            )
            lines.append(
                f"  binary: listening on {binary.address} (framed predict "
                "protocol, model id in-frame; repro.serve.BinaryClient)"
            )
        if args.serve_forever:
            print("\n".join(lines), flush=True)
            lines = []
            while not stop.wait(0.2):
                if hup.is_set():
                    hup.clear()
                    print("\n".join(_reload_all(router)), flush=True)
            lines.append("  signal received: draining deployments")
            # per-lane latency at drain time — the operator's last look at
            # the run's tail before the process exits (merged across
            # every replica and retired generation)
            for model_id, deployment in router.deployments.items():
                for lane in deployment.snapshot()[0].lanes:
                    snap = lane.latency
                    lines.append(
                        f"  drain {model_id}/{lane.name}: {snap.count} served, "
                        f"p50 {snap.p50_ms:.2f}ms, p95 {snap.p95_ms:.2f}ms, "
                        f"{snap.excluded} expired"
                    )
        else:
            lines.extend(_round_trips(args, router, http, binary, stop))
        health = router.healthz()
        lines.append(
            f"  healthz: {health['status']} ({health['ready_replicas']} "
            f"replica(s) ready across {health['deployments']} deployment(s))"
        )
        for model_id in router.deployments:
            doc = router.stats(model_id)
            lines.append(
                f"  stats {model_id}: generation {doc['generation']}, "
                f"{doc['requests']} request(s), {doc['images']} image(s) in "
                f"{doc['batches']} batch(es) (mean {doc['mean_batch_size']:.1f}, "
                f"max {doc['max_batch_seen']}), {doc['retired_replicas']} "
                "retired replica(s)"
            )
            for lane in doc["lanes"]:
                lines.append(
                    f"  stats {model_id}/{lane['name']}: served "
                    f"{lane['served_rows']} row(s), expired {lane['expired']}"
                )
    lines.append("  shutdown clean")
    return "\n".join(lines)


def _round_trips(args, router, http, binary, stop) -> list[str]:
    """The self-test rounds: one batch per model per round, timed, verified.

    Rounds go over the binary wire when it is up, else over HTTP, else
    in-process, and the report names the wire it used.  ``--reload``
    hot-reloads every deployment halfway.  With ``--verify`` (default)
    every answer is compared bit-for-bit with ``predict`` on a directly
    loaded copy of its model — the serving layer's core contract.
    """
    import numpy as np

    from .serve import BinaryClient

    rng = np.random.default_rng(args.seed)
    model_ids = list(router.deployments)
    lines: list[str] = []
    sent = []  # (model id, batch, served labels)
    with contextlib.ExitStack() as stack:
        if binary is not None:
            # one persistent connection; the model id travels in-frame
            client = stack.enter_context(BinaryClient(binary.host, binary.port))
            via = " via binary"

            def ask(model_id, batch):
                return client.predict(
                    batch, model=model_id, deadline_ms=args.deadline_ms
                )
        elif http is not None:
            via = " via HTTP"

            def ask(model_id, batch):
                return _http_predict(http, model_id, batch, args.deadline_ms)
        else:
            via = ""

            def ask(model_id, batch):
                return router.predict(
                    model_id, batch, timeout=60.0, deadline_ms=args.deadline_ms
                )

        t0 = time.perf_counter()
        for round_idx in range(args.rounds):
            if stop.is_set():  # a signal stops new submissions
                break
            if args.reload and round_idx == args.rounds // 2:
                lines.extend(_reload_all(router))
            for model_id in model_ids:
                pixels = router.deployment(model_id).num_pixels
                batch = rng.integers(
                    0, 256, size=(args.batch, pixels), dtype=np.uint8
                )
                sent.append((model_id, batch, ask(model_id, batch)))
        elapsed = time.perf_counter() - t0
    total = len(sent) * args.batch
    lines.append(
        f"  served {len(sent)} request(s) x {args.batch} image(s) across "
        f"{len(model_ids)} model(s) in {elapsed * 1e3:.2f} ms "
        f"({total / max(elapsed, 1e-9):.0f} images/s){via}"
    )
    if args.verify:
        from .api import load_model

        # load_model, not UHDClassifier.load: the router fronts any
        # persisted image model (StreamingUHD included), and the
        # backend= re-home is the same path the workers took
        direct = {
            model_id: load_model(
                router.deployment(model_id).model_path, backend=args.backend
            )
            for model_id in model_ids
        }
        for model_id, batch, answer in sent:
            if not np.array_equal(direct[model_id].predict(batch), answer):
                raise AssertionError(
                    f"served labels for {model_id!r} differ from "
                    "UHDClassifier.predict"
                )
        lines.append(
            f"  verify OK: all {total} labels bit-exact with "
            "UHDClassifier.predict"
        )
    return lines


def _model_io_args(parser: argparse.ArgumentParser, needs_model: bool) -> None:
    if needs_model:
        parser.add_argument("--model", required=True, help="saved model (.npz) path")
    parser.add_argument(
        "--dataset", default="mnist",
        help="dataset name (see repro.datasets; synthetic fallback, no network)",
    )
    parser.add_argument("--n-train", type=int, default=2000,
                        help="training samples")
    parser.add_argument("--n-test", type=int, default=500, help="test samples")
    parser.add_argument("--seed", type=int, default=0, help="data/query seed")


def _configure_save(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output model (.npz) path")
    parser.add_argument("--dim", type=int, default=1024,
                        help="hypervector dimension D")
    parser.add_argument(
        "--include-tables", action="store_true",
        help="also flush the warm gather tables to <out>.tables so "
        "loads warm-start by attaching instead of rebuilding",
    )
    _model_io_args(parser, needs_model=False)
    _backend_arg(parser)


def _configure_load(parser: argparse.ArgumentParser) -> None:
    _model_io_args(parser, needs_model=True)
    _backend_arg(parser, default=None)


def _configure_serve_check(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="saved model (.npz) path")
    parser.add_argument("--batch", type=int, default=64,
                        help="images per timed predict call")
    parser.add_argument("--repeats", type=int, default=10,
                        help="timed predict calls (median reported)")
    parser.add_argument("--seed", type=int, default=0, help="query seed")
    _backend_arg(parser, default=None)


def _configure_route(
    parser: argparse.ArgumentParser, one_model: bool = False
) -> None:
    """``route``'s flags; ``one_model`` swaps in ``serve``'s ``--model PATH``.

    Everything after the model flags is shared by both commands.
    """
    if one_model:
        parser.add_argument(
            "--model", required=True, type=_stem_model_spec, metavar="PATH",
            help="saved model (.npz) path; served as the one deployment, "
            "named after the file's stem",
        )
        parser.set_defaults(replicas=1, min_ready=1, reload=False)
    else:
        parser.add_argument(
            "--model", action="append", required=True,
            type=_parse_model_spec, metavar="NAME=PATH",
            help="deployment spec: model id and saved .npz path "
            "(repeatable; the id becomes the /models/<id>/... URL segment)",
        )
        parser.add_argument(
            "--replicas", type=int, default=1,
            help="servers per model deployment (least-loaded dispatch)",
        )
        parser.add_argument(
            "--min-ready", type=int, default=1,
            help="healthz floor: a deployment stays healthy while at least "
            "this many replicas are ready (rolling reload never drops below)",
        )
        parser.add_argument(
            "--reload", action="store_true",
            help="self-test mode: rolling-hot-reload every model halfway "
            "through the rounds (daemon mode reloads on SIGHUP instead)",
        )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per replica (0 = synchronous in-process "
        "fallback)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batching bound: images per dispatched batch",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="micro-batching window before a partial batch flushes",
    )
    parser.add_argument(
        "--start-method", default="auto",
        choices=("auto", "fork", "spawn", "forkserver"),
        help="multiprocessing start method (auto = fork where available); "
        "fork workers inherit the warm gather tables, spawn/forkserver "
        "workers attach one table file",
    )
    parser.add_argument(
        "--lane", action="append", type=_parse_lane, metavar="SPEC",
        help="declare a priority lane: NAME[:MAX_BATCH[:MAX_WAIT_MS[:WEIGHT]]]"
        " (repeatable; empty fields inherit --max-batch/--max-wait-ms; the"
        " first lane is the default one round-trips use)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request queueing deadline for the self-test round-trips; "
        "requests still queued when it passes fail loudly instead of "
        "being served late",
    )
    parser.add_argument(
        "--drain-timeout-s", type=float, default=10.0,
        help="how long shutdown (close / SIGTERM / SIGINT) waits for "
        "in-flight lanes to drain before failing the stragglers; "
        "deployments drain concurrently, so total shutdown is bounded by "
        "the max, not the sum",
    )
    parser.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="put the stdlib threaded HTTP transport in front (POST "
        "/predict, POST /models/<id>/predict, GET /models, /healthz, "
        "/stats, /metrics); 0 binds an ephemeral port; the self-test "
        "round-trips then go over real HTTP",
    )
    parser.add_argument(
        "--binary-port", type=int, default=None, metavar="PORT",
        help="put the framed binary transport in front (length-prefixed "
        "predict frames over persistent connections, model id in-frame; "
        "see repro.serve.BinaryClient); 0 binds an ephemeral port; may "
        "coexist with --http-port — both feed the same router; when set, "
        "the self-test round-trips go over the binary wire",
    )
    parser.add_argument(
        "--http-host", default="127.0.0.1",
        help="interface the HTTP and binary transports bind "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--serve-forever", action="store_true",
        help="with --http-port/--binary-port: skip the self-test rounds "
        "and serve until SIGTERM/SIGINT (concurrent drain), hot-reloading "
        "every model on SIGHUP",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="self-test rounds; each round sends one request per model",
    )
    parser.add_argument(
        "--batch", type=int, default=16, help="images per served request"
    )
    parser.add_argument("--seed", type=int, default=0, help="query seed")
    parser.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="skip the bit-exactness check against UHDClassifier.predict",
    )
    _backend_arg(parser, default=None)


_MODEL_COMMANDS = {
    "save": (_cmd_save, _configure_save),
    "load": (_cmd_load, _configure_load),
    "serve-check": (_cmd_serve_check, _configure_serve_check),
    "serve": (_cmd_route, lambda parser: _configure_route(parser, True)),
    "route": (_cmd_route, _configure_route),
}

_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "fig6": _cmd_fig6,
    "checkpoints": _cmd_checkpoints,
    "report": _cmd_report,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-uhd``."""
    parser = argparse.ArgumentParser(
        prog="repro-uhd",
        description="Regenerate tables/figures of the uHD paper (DATE 2024).",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiment IDs")
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"reproduce {name}")
        _dims_arg(cmd)
        if name == "bench":
            cmd.add_argument(
                "--out", default=None,
                help="write BENCH_throughput.json-style results here",
            )
            cmd.add_argument(
                "--repeats", type=int, default=15,
                help="timing repeats per benchmark (median reported)",
            )
    for name, (_, configure) in _MODEL_COMMANDS.items():
        configure(sub.add_parser(name, help=f"model lifecycle: {name}"))
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available experiments:", ", ".join(sorted(_COMMANDS)))
        print("model lifecycle:", ", ".join(sorted(_MODEL_COMMANDS)))
        return 0
    if args.command in _MODEL_COMMANDS:
        print(_MODEL_COMMANDS[args.command][0](args))
        return 0
    print(_COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
