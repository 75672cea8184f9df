#!/usr/bin/env python
"""Serving benchmark: micro-batched vs unbatched request throughput.

Stands up two :class:`repro.serve.UHDServer`\ s over the same saved
model and pushes the same stream of small predict requests through both:

* ``serve_unbatched`` — ``max_batch`` pinned to the request size, so
  every request pays its own dispatch and predict call; this is what a
  naive per-request server does.
* ``serve_batched`` — the real micro-batcher: dispatch is
  work-conserving, so requests queued while every executor is busy
  coalesce up to ``--max-batch`` rows and the packed kernels see wide
  batches that amortize the per-request fixed costs.  A lone request
  is never held back (``--max-wait-ms`` is only the lane's urgency
  bound).

Three request-path rows measure the transport/scheduler layers:

* ``serve_http`` — the same request stream POSTed over the stdlib
  threaded HTTP transport (keep-alive connections, several client
  threads so handler threads feed the scheduler concurrently), against
  the in-process ``serve_batched`` number: the recorded
  ``overhead_vs_inproc`` is what the socket + JSON codec cost end to
  end.  A second pass with ``Accept: application/octet-stream`` (raw
  int64 label bytes instead of JSON) is recorded in the same row as
  ``octet_response_*`` — the response-codec share of that overhead.
* ``serve_binary`` — the same stream pipelined through one persistent
  :class:`repro.serve.BinaryClient` connection to the framed
  :class:`repro.serve.SocketTransport` (no JSON anywhere, pixels
  zero-copied from the receive buffer into batch assembly); its
  ``overhead_vs_inproc`` is asserted ``< 3.0`` before the row is
  written.
* ``serve_priority_mixed`` — an ``interactive`` lane (1 ms urgency
  bound, weight 4) probed with single-image requests while a ``bulk``
  lane (50 ms bound) is kept saturated by a background flood; the
  recorded interactive p50/p95 must stay bounded by the *interactive*
  lane's bound (plus one in-flight batch), not the bulk lane's — the
  scheduler's anti-starvation contract, asserted before writing.

``serve_router_zoo`` exercises the fleet layer: a two-model router
(one server per model) under mixed traffic from concurrent clients,
with a **hot reload of both models mid-run** — the row is only written after asserting zero failed
requests and per-model bit-exact labels across the generation swap.

Labels are checked bit-exact against ``UHDClassifier.predict`` before
anything is timed.  Results merge into ``BENCH_throughput.json``
alongside the encode/predict rows ``run_bench.py`` records — the two
writers share the file without clobbering each other (see
``write_bench_json``), so the checked-in perf trajectory keeps its
existing recorded speedups.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --workers 2 --requests 128
    PYTHONPATH=src python benchmarks/bench_serving.py --no-write   # print only
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from repro.core.config import UHDConfig
from repro.core.model import UHDClassifier
from repro.datasets import synthetic_mnist
from repro.eval.throughput import write_bench_json
from repro.serve import (
    DeploymentSpec,
    HttpTransport,
    LaneConfig,
    Router,
    ServeConfig,
    UHDServer,
)


def _router(model_path: str, config: ServeConfig) -> Router:
    """One deployment — what ``repro-uhd serve`` runs."""
    return Router({"m": DeploymentSpec(model_path, serve=config)})


def _train_model(path: str, dim: int, backend: str, seed: int) -> UHDClassifier:
    data = synthetic_mnist(n_train=500, n_test=100, seed=seed)
    model = UHDClassifier(
        data.num_pixels,
        data.num_classes,
        UHDConfig(dim=dim, backend=backend, binarize=True),
    )
    model.fit(data.train_images, data.train_labels)
    model.save(path)
    return model


def _time_round(server: UHDServer, queries: list[np.ndarray]) -> float:
    start = time.perf_counter()
    handles = [server.submit(batch) for batch in queries]
    for handle in handles:
        handle.result(timeout=60.0)
    return time.perf_counter() - start


def _serve_scenario(
    model_path: str,
    config: ServeConfig,
    queries: list[np.ndarray],
    expected: list[np.ndarray],
    repeats: int,
) -> tuple[float, float]:
    """(median wall seconds per round, mean batch size); verifies bit-exactness."""
    with UHDServer(model_path, config) as server:
        answers = [server.submit(batch) for batch in queries]
        for answer, want in zip(answers, expected):
            if not np.array_equal(answer.result(timeout=60.0), want):
                raise AssertionError(
                    "served labels are not bit-exact with UHDClassifier.predict"
                )
        _time_round(server, queries)  # warm
        times = [_time_round(server, queries) for _ in range(repeats)]
        stats = server.stats()
    return float(np.median(times)), stats.mean_batch_size


def _http_scenario(
    model_path: str,
    config: ServeConfig,
    queries: list[np.ndarray],
    expected: list[np.ndarray],
    repeats: int,
    client_threads: int = 8,
    octet_response: bool = False,
) -> tuple[float, float]:
    """(median wall seconds per round over HTTP, mean batch size).

    Each client thread holds one keep-alive connection and posts its
    share of the stream serially — concurrent handler threads then feed
    the scheduler together, which is the deployment shape.  Labels are
    verified bit-exact before timing.  ``octet_response=True`` sends
    ``Accept: application/octet-stream`` so the labels come back as raw
    int64 bytes instead of JSON — isolating the response-codec share of
    the HTTP overhead.
    """
    import http.client
    import json
    import threading

    with _router(model_path, config) as router:
        with HttpTransport(router) as transport:
            host, port = "127.0.0.1", transport.port

            def post_range(indices: list[int], answers: dict) -> None:
                conn = http.client.HTTPConnection(host, port, timeout=60.0)
                headers = {"Content-Type": "application/json"}
                if octet_response:
                    headers["Accept"] = "application/octet-stream"
                try:
                    for index in indices:
                        body = json.dumps(
                            {"images": queries[index].tolist()}
                        ).encode("utf-8")
                        conn.request(
                            "POST", "/predict", body=body, headers=headers,
                        )
                        response = conn.getresponse()
                        raw = response.read()
                        if octet_response:
                            answers[index] = np.frombuffer(raw, dtype="<i8")
                        else:
                            answers[index] = np.asarray(
                                json.loads(raw)["labels"]
                            )
                finally:
                    conn.close()

            def one_round() -> dict:
                answers: dict[int, np.ndarray] = {}
                threads = [
                    threading.Thread(
                        target=post_range,
                        args=(list(range(t, len(queries), client_threads)),
                              answers),
                    )
                    for t in range(client_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                return answers

            answers = one_round()  # warm + verify
            for index, want in enumerate(expected):
                if not np.array_equal(answers[index], want):
                    raise AssertionError(
                        "HTTP-served labels are not bit-exact with "
                        "UHDClassifier.predict"
                    )
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                one_round()
                times.append(time.perf_counter() - start)
            stats = router.stats()
    return float(np.median(times)), stats["mean_batch_size"]


def _binary_scenario(
    model_path: str,
    config: ServeConfig,
    queries: list[np.ndarray],
    expected: list[np.ndarray],
    repeats: int,
) -> tuple[float, float]:
    """(median wall seconds per round over the framed socket, mean batch size).

    One persistent :class:`BinaryClient` **pipelines** the stream: every
    predict frame goes out before the first response is collected, then
    responses are matched by echoed request id (they may complete out of
    order across executor batches).  That is the same submit-all-then-wait
    shape as the in-process scenario, so ``overhead_vs_inproc`` isolates
    pure wire + codec cost rather than serial round-trip stalls — and it
    is how a throughput-sensitive binary client should drive the server.
    Labels are verified bit-exact before timing.
    """
    from repro.serve import BinaryClient, SocketTransport

    with _router(model_path, config) as router:
        with SocketTransport(router) as transport:
            with BinaryClient(
                transport.host, transport.port, timeout_s=60.0
            ) as client:
                def one_round() -> list[np.ndarray]:
                    ids = [client.send(batch) for batch in queries]
                    index_of = {rid: i for i, rid in enumerate(ids)}
                    answers: list = [None] * len(ids)
                    for _ in ids:
                        rid, labels = client.recv()
                        answers[index_of[rid]] = labels
                    return answers

                answers = one_round()  # warm + verify
                for answer, want in zip(answers, expected):
                    if not np.array_equal(answer, want):
                        raise AssertionError(
                            "binary-served labels are not bit-exact with "
                            "UHDClassifier.predict"
                        )
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    one_round()
                    times.append(time.perf_counter() - start)
            stats = router.stats()
    return float(np.median(times)), stats["mean_batch_size"]


def _priority_mixed_scenario(
    model_path: str,
    workers: int,
    num_pixels: int,
    backend: str,
    seed: int,
    interactive_requests: int = 40,
) -> dict:
    """Interactive latency percentiles under a saturated bulk lane.

    A flood thread keeps several bulk requests outstanding at all times
    (the queue is never empty), while the main thread trickles
    single-image interactive requests and measures each submit→result
    round trip.  The scheduler's urgency rule must keep interactive p50
    bounded by the interactive lane's bound plus one in-flight bulk
    batch — nowhere near the bulk lane's bound.
    """
    import threading
    from collections import deque

    interactive = LaneConfig(
        "interactive", max_batch=16, max_wait_ms=1.0, weight=4.0
    )
    bulk = LaneConfig("bulk", max_batch=64, max_wait_ms=50.0, weight=1.0)
    config = ServeConfig(
        workers=workers, lanes=(interactive, bulk), backend=backend
    )
    rng = np.random.default_rng(seed)
    bulk_images = rng.integers(0, 256, size=(64, num_pixels), dtype=np.uint8)
    single = rng.integers(
        0, 256, size=(interactive_requests, 1, num_pixels), dtype=np.uint8
    )
    stop = threading.Event()
    bulk_done = [0]

    with UHDServer(model_path, config) as server:
        def flood() -> None:
            pending: deque = deque()
            while not stop.is_set():
                while len(pending) < 6:
                    pending.append(server.submit(bulk_images, lane="bulk"))
                pending.popleft().result(timeout=60.0)
                bulk_done[0] += bulk_images.shape[0]
            while pending:
                pending.popleft().result(timeout=60.0)
                bulk_done[0] += bulk_images.shape[0]

        flood_start = time.perf_counter()
        flooder = threading.Thread(target=flood, daemon=True)
        flooder.start()
        time.sleep(0.2)  # let the bulk backlog build
        latencies = []
        for query in single:
            t0 = time.perf_counter()
            server.submit(query, lane="interactive").result(timeout=60.0)
            latencies.append(time.perf_counter() - t0)
            time.sleep(0.002)  # interactive traffic trickles, not floods
        stop.set()
        flooder.join(timeout=60.0)
        elapsed = time.perf_counter() - flood_start

    p50_ms = float(np.percentile(latencies, 50)) * 1e3
    p95_ms = float(np.percentile(latencies, 95)) * 1e3
    if p50_ms >= bulk.max_wait_ms:
        raise AssertionError(
            f"interactive p50 {p50_ms:.1f} ms is not bounded by its own "
            f"lane: it exceeds even the bulk bound ({bulk.max_wait_ms} ms) "
            "- the anti-starvation contract is broken"
        )
    return {
        "name": "serve_priority_mixed",
        "median_s": p50_ms / 1e3,
        "ops_per_s": 1e3 / p50_ms,
        "speedup_vs_reference": None,
        "speedup_vs_packed": None,
        "workers": workers,
        "interactive_p50_ms": p50_ms,
        "interactive_p95_ms": p95_ms,
        "interactive_requests": interactive_requests,
        "interactive_max_wait_ms": interactive.max_wait_ms,
        "interactive_weight": interactive.weight,
        "bulk_max_wait_ms": bulk.max_wait_ms,
        "bulk_images_per_s": bulk_done[0] / elapsed if elapsed > 0 else 0.0,
        "p50_bounded_by_own_lane": True,  # asserted above
    }


def _router_zoo_scenario(
    dim: int,
    backend: str,
    seed: int,
    clients_per_model: int = 2,
    requests_per_client: int = 24,
    request_batch: int = 4,
) -> dict:
    """Two-model router under mixed traffic with a mid-run hot reload.

    Each model gets one in-process server (workers=0: each client
    thread drains the lanes itself, so no executor thread hop is timed)
    and ``clients_per_model`` threads
    hammering it with fixed request streams.  Once a third of the
    traffic has been served, both deployments are hot-reloaded to a new
    generation *while the clients keep going*.  The row is only written
    after asserting: zero failed requests, every label bit-exact with
    its model's direct ``predict`` (before and after the swap), and both
    deployments healthy on generation 2.
    """
    import threading

    from repro.serve import DeploymentSpec, Router

    rng = np.random.default_rng(seed)
    model_ids = ("zoo-a", "zoo-b")
    paths: dict[str, str] = {}
    streams: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    try:
        for offset, name in enumerate(model_ids):
            fd, path = tempfile.mkstemp(suffix=".npz", prefix=f"uhd-{name}-")
            os.close(fd)
            paths[name] = path
            model = _train_model(path, dim, backend, seed + 1 + offset)
            queries = [
                rng.integers(
                    0, 256, size=(request_batch, model.num_pixels),
                    dtype=np.uint8,
                )
                for _ in range(requests_per_client)
            ]
            streams[name] = [(q, model.predict(q)) for q in queries]

        specs = {
            name: DeploymentSpec(
                path, serve=ServeConfig(workers=0, backend=backend)
            )
            for name, path in paths.items()
        }
        failures: list[str] = []
        served = [0]
        counter_lock = threading.Lock()
        total = len(model_ids) * clients_per_model * requests_per_client

        with Router(specs) as router:
            def client(name: str) -> None:
                for query, want in streams[name]:
                    try:
                        labels = router.predict(name, query, timeout=60.0)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(
                            f"{name}: {type(exc).__name__}: {exc}"
                        )
                        return
                    if not np.array_equal(labels, want):
                        failures.append(f"{name}: labels diverged")
                        return
                    with counter_lock:
                        served[0] += 1

            threads = [
                threading.Thread(target=client, args=(name,))
                for name in model_ids
                for _ in range(clients_per_model)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            while served[0] < total // 3 and not failures:
                time.sleep(0.001)  # reload lands mid-traffic, not after
            reload_start = time.perf_counter()
            reports = [router.reload(name) for name in model_ids]
            reload_s = time.perf_counter() - reload_start
            for thread in threads:
                thread.join(timeout=120.0)
            elapsed = time.perf_counter() - start
            health = router.healthz()
    finally:
        for path in paths.values():
            os.unlink(path)

    if failures:
        raise AssertionError(
            f"router zoo traffic failed during hot reload: {failures[:3]}"
        )
    if served[0] != total:
        raise AssertionError(
            f"dropped requests: served {served[0]} of {total}"
        )
    for report in reports:
        if report["to_generation"] != 2:
            raise AssertionError(f"reload did not advance generation: {report}")
    if not health["ok"] or any(m["generation"] != 2 for m in health["models"]):
        raise AssertionError(f"fleet unhealthy after reload: {health}")
    images = total * request_batch
    return {
        "name": "serve_router_zoo",
        "median_s": elapsed,
        "ops_per_s": images / elapsed,
        "speedup_vs_reference": None,
        "speedup_vs_packed": None,
        "models": len(model_ids),
        "client_threads": len(model_ids) * clients_per_model,
        "requests": total,
        "images": images,
        "failed_requests": 0,  # asserted above
        "reloads": len(reports),
        "reload_s": reload_s,
        "zero_failed_during_reload": True,  # asserted above
        "bit_exact_across_generations": True,  # asserted above
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--model", default=None,
        help="saved model (.npz); a small one is trained when omitted",
    )
    parser.add_argument("--dim", type=int, default=1024,
                        help="hypervector dimension for the trained model")
    parser.add_argument("--backend", default="packed",
                        help="backend-table name for model and servers")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="executor threads per server (0 = in-process fallback)",
    )
    parser.add_argument(
        "--requests", type=int, default=96,
        help="predict requests per timed round",
    )
    parser.add_argument(
        "--request-batch", type=int, default=1,
        help="images per request (1 = the pure micro-batching case)",
    )
    parser.add_argument("--max-batch", type=int, default=64,
                        help="coalescing bound for the batched scenario")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="urgency bound of the batched scenario's lane")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed rounds (median reported)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="BENCH_throughput.json",
        help="perf record to merge serve rows into (default: %(default)s)",
    )
    parser.add_argument(
        "--no-write", dest="write", action="store_false",
        help="print results without touching the perf record",
    )
    args = parser.parse_args(argv)

    tmp = None
    model_path = args.model
    if model_path is None:
        fd, model_path = tempfile.mkstemp(suffix=".npz", prefix="uhd-serving-")
        os.close(fd)
        tmp = model_path
        model = _train_model(model_path, args.dim, args.backend, args.seed)
    else:
        model = UHDClassifier.load(model_path)
    try:
        rng = np.random.default_rng(args.seed)
        queries = [
            rng.integers(
                0, 256, size=(args.request_batch, model.num_pixels),
                dtype=np.uint8,
            )
            for _ in range(args.requests)
        ]
        expected = [model.predict(batch) for batch in queries]

        unbatched = ServeConfig(
            workers=args.workers,
            max_batch=args.request_batch,
            max_wait_ms=0.0,
            backend=args.backend,
        )
        batched = ServeConfig(
            workers=args.workers,
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            backend=args.backend,
        )
        unbatched_s, unbatched_mean = _serve_scenario(
            model_path, unbatched, queries, expected, args.repeats
        )
        batched_s, batched_mean = _serve_scenario(
            model_path, batched, queries, expected, args.repeats
        )
        http_s, http_mean = _http_scenario(
            model_path, batched, queries, expected, args.repeats
        )
        http_octet_s, _ = _http_scenario(
            model_path, batched, queries, expected, args.repeats,
            octet_response=True,
        )
        binary_s, binary_mean = _binary_scenario(
            model_path, batched, queries, expected, args.repeats
        )
        priority_row = _priority_mixed_scenario(
            model_path, max(1, args.workers), model.num_pixels,
            args.backend, args.seed,
        )
        router_row = _router_zoo_scenario(args.dim, args.backend, args.seed)
    finally:
        if tmp is not None:
            os.unlink(tmp)

    images = args.requests * args.request_batch
    rows = [
        {
            "name": "serve_unbatched",
            "median_s": unbatched_s,
            "ops_per_s": images / unbatched_s,
            "speedup_vs_reference": None,
            "speedup_vs_packed": None,
            "requests": args.requests,
            "images_per_request": args.request_batch,
            # amortized: round wall time / request count with all requests
            # submitted up front — inverse throughput, NOT queueing latency
            "ms_per_request_amortized": unbatched_s / args.requests * 1e3,
            "mean_batch_size": unbatched_mean,
        },
        {
            "name": "serve_batched",
            "median_s": batched_s,
            "ops_per_s": images / batched_s,
            "speedup_vs_reference": None,
            "speedup_vs_packed": None,
            "requests": args.requests,
            "images_per_request": args.request_batch,
            "ms_per_request_amortized": batched_s / args.requests * 1e3,
            "mean_batch_size": batched_mean,
            "speedup_vs_unbatched": unbatched_s / batched_s,
        },
        {
            "name": "serve_http",
            "median_s": http_s,
            "ops_per_s": images / http_s,
            "speedup_vs_reference": None,
            "speedup_vs_packed": None,
            "requests": args.requests,
            "images_per_request": args.request_batch,
            "ms_per_request_amortized": http_s / args.requests * 1e3,
            "mean_batch_size": http_mean,
            # > 1.0: what the loopback socket + JSON codec cost per round
            # relative to in-process submit on the identical stream
            "overhead_vs_inproc": http_s / batched_s,
            # same stream with Accept: application/octet-stream — labels
            # come back as raw int64 bytes, skipping the JSON response
            # codec (the request side still pays JSON)
            "octet_response_median_s": http_octet_s,
            "octet_response_overhead_vs_inproc": http_octet_s / batched_s,
            "octet_response_speedup": http_s / http_octet_s,
        },
        {
            "name": "serve_binary",
            "median_s": binary_s,
            "ops_per_s": images / binary_s,
            "speedup_vs_reference": None,
            "speedup_vs_packed": None,
            "requests": args.requests,
            "images_per_request": args.request_batch,
            "ms_per_request_amortized": binary_s / args.requests * 1e3,
            "mean_batch_size": binary_mean,
            # the tentpole number: framed socket + zero-copy assembly vs
            # in-process submit on the identical pipelined stream
            "overhead_vs_inproc": binary_s / batched_s,
            "speedup_vs_http": http_s / binary_s,
        },
    ]
    binary_overhead = binary_s / batched_s
    if binary_overhead >= 3.0:
        raise AssertionError(
            f"binary transport overhead {binary_overhead:.2f}x vs in-process "
            "submit breaches the < 3.0x budget - not writing the row"
        )
    rows.append(priority_row)
    rows.append(router_row)
    print("serving throughput (median round over repeats, bit-exact verified):")
    for row in rows:
        if row["name"] == "serve_priority_mixed":
            print(
                f"  {row['name']:<22} interactive p50 "
                f"{row['interactive_p50_ms']:6.2f} ms  p95 "
                f"{row['interactive_p95_ms']:6.2f} ms  (own bound "
                f"{row['interactive_max_wait_ms']:g} ms, bulk bound "
                f"{row['bulk_max_wait_ms']:g} ms)  bulk "
                f"{row['bulk_images_per_s']:.0f} images/s"
            )
            continue
        if row["name"] == "serve_router_zoo":
            print(
                f"  {row['name']:<22} {row['requests']} requests over "
                f"{row['models']} models  {row['ops_per_s']:8.0f} images/s  reload "
                f"{row['reload_s'] * 1e3:.0f} ms mid-run, 0 failed, "
                "bit-exact across generations"
            )
            continue
        extra = ""
        if "speedup_vs_unbatched" in row:
            extra = f"  ({row['speedup_vs_unbatched']:.1f}x vs unbatched)"
        if "overhead_vs_inproc" in row:
            extra = f"  ({row['overhead_vs_inproc']:.2f}x vs inproc submit)"
        print(
            f"  {row['name']:<18} {row['median_s'] * 1e3:8.3f} ms/round "
            f"{row['ops_per_s']:10.0f} images/s  "
            f"mean batch {row['mean_batch_size']:5.1f}{extra}"
        )
    if args.write:
        write_bench_json(
            {
                "serve_config": {
                    "workers": args.workers,
                    "requests": args.requests,
                    "images_per_request": args.request_batch,
                    "max_batch": args.max_batch,
                    "max_wait_ms": args.max_wait_ms,
                    "backend": args.backend,
                    "dim": model.config.dim,  # the served model's true D
                    "repeats": args.repeats,
                    "cpu_count": os.cpu_count(),
                },
                "benchmarks": rows,
            },
            args.out,
        )
        print(f"merged serve rows into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
