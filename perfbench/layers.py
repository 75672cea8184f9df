"""Per-layer metrics from span records (see :mod:`spans`).

Every metric is reported on every workload; a layer a workload does not
run reads 0 (the offline workload has no queue, IPC or wire).  Stage
times are medians over the traced window; ``*_per_image`` and
``*_per_query`` figures are totals divided by rows.
"""

from __future__ import annotations

import bisect

from common import mean, percentile

LANES = ("default", "interactive", "bulk")

#: (name, unit, better) in report order
PER_LAYER = [
    ("encode.calls", "count", "lower"),
    ("encode.rows_mean", "rows", "higher"),
    ("encode.us_per_image", "us", "lower"),
    ("encode.self_share", "share", "lower"),
    ("classify.calls", "count", "lower"),
    ("classify.us_per_query", "us", "lower"),
    ("fit.accumulate_us_per_image", "us", "lower"),
    ("setup.codebook_s", "s", "lower"),
    ("setup.table_build_s", "s", "lower"),
    ("setup.load_model_s", "s", "lower"),
    ("setup.worker_ready_s", "s", "lower"),
    ("setup.table_bytes", "bytes", "lower"),
    *[
        (f"queue.{lane}.{name}", unit, better)
        for lane in LANES
        for name, unit, better in (
            ("wait_p50_ms", "ms", "lower"),
            ("wait_p99_ms", "ms", "lower"),
            ("batch_rows_mean", "rows", "higher"),
            ("depth_max", "count", "lower"),
            ("expired", "count", "lower"),
        )
    ],
    ("ipc.out_us", "us", "lower"),
    ("worker.predict_us_per_batch", "us", "lower"),
    ("worker.busy_share", "share", "lower"),
    ("ipc.back_us", "us", "lower"),
    ("worker.restarts", "count", "lower"),
    ("server.batches", "count", "lower"),
    ("wire.binary.decode_us", "us", "lower"),
    ("wire.binary.reply_us", "us", "lower"),
    ("wire.binary.frames", "count", "lower"),
    ("wire.binary.bytes", "bytes", "lower"),
    ("wire.binary.malformed", "count", "lower"),
    ("client.binary.send_us", "us", "lower"),
    ("wire.http.handler_us", "us", "lower"),
    ("wire.http.client_gap_ms", "ms", "lower"),
    ("wire.http.requests", "count", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("reconcile.mismatch", "count", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


def empty() -> dict:
    return {name: 0 for name, _unit, _better in PER_LAYER}


def _in(records, name, window):
    w0, w1 = window
    return [r for r in records if r[0] == name and w0 <= r[1] < w1]


def compute(records, window) -> dict:
    """encode / classify / accumulate figures from one set of records."""
    out = {}
    wall = window[1] - window[0]
    enc = _in(records, "encode", window)
    rows = sum(r[4] for r in enc)
    out["encode.calls"] = len(enc)
    out["encode.rows_mean"] = rows / len(enc) if enc else 0
    out["encode.us_per_image"] = sum(r[3] for r in enc) / rows / 1e3 if rows else 0
    out["encode.self_share"] = sum(r[3] for r in enc) / wall
    cls = _in(records, "classify", window)
    rows = sum(r[4] for r in cls)
    out["classify.calls"] = len(cls)
    out["classify.us_per_query"] = (
        sum(r[2] - r[1] for r in cls) / rows / 1e3 if rows else 0
    )
    return out


def accumulate(records) -> float:
    acc = [r for r in records if r[0] == "accumulate"]
    rows = sum(r[4] for r in acc)
    return sum(r[3] for r in acc) / rows / 1e3 if rows else 0


def _span_s(records, *names) -> float:
    return sum(r[2] - r[1] for r in records if r[0] in names) / 1e9


def _p50_us(values_ns) -> float:
    return percentile(values_ns, 50) / 1e3


def serving(main, workers, client, window, stats0, stats1, rtt_ns=()) -> dict:
    """Daemon, worker and client layers of one traced serving run.

    ``main``/``workers``/``client`` are the record lists of the daemon's
    main process, its workers and the benchmark process; ``stats0`` and
    ``stats1`` are ``/stats`` before and after the traffic.
    """
    w0, w1 = window
    out = compute(workers, window)

    # -- setup, all in the daemon's main process
    out["setup.codebook_s"] = _span_s(main, "codebook")
    out["setup.table_build_s"] = _span_s(main, "cache.warm", "cache.publish")
    out["setup.load_model_s"] = _span_s(main, "load_model")
    starts = [r[1] for r in main if r[0] == "proc.start"]
    ready = [r[1] for r in main if r[0] == "worker.ready"]
    out["setup.worker_ready_s"] = (max(ready) - min(starts)) / 1e9 if ready and starts else 0
    out["setup.table_bytes"] = stats1["cache"]["table_bytes"]

    # -- scheduler, per lane
    lanes0 = {lane["name"]: lane for lane in stats0["lanes"]}
    for lane in stats1["lanes"]:
        name = lane["name"]
        if name not in LANES:
            continue
        waits = [r[2] - r[1] for r in main
                 if r[0] == "q.wait" and r[4] == name and w0 <= r[2] < w1]
        batches = [r[4][1] for r in _in(main, "q.batch", window) if r[4][0] == name]
        depths = [r[4][1] for r in _in(main, "q.depth", window) if r[4][0] == name]
        out[f"queue.{name}.wait_p50_ms"] = percentile(waits, 50) / 1e6
        out[f"queue.{name}.wait_p99_ms"] = percentile(waits, 99) / 1e6
        out[f"queue.{name}.batch_rows_mean"] = mean(batches)
        out[f"queue.{name}.depth_max"] = max(depths, default=0)
        out[f"queue.{name}.expired"] = lane["expired"] - lanes0[name]["expired"]

    # -- server <-> worker
    sent = {r[4]: r[1] for r in _in(main, "ipc.send", window)}
    got = {r[4]: r[1] for r in workers if r[0] == "ipc.recv"}
    out["ipc.out_us"] = _p50_us([got[b] - t for b, t in sent.items() if b in got])
    predicts = [r for r in _in(workers, "predict", window) if r[4][1] >= 0]
    out["worker.predict_us_per_batch"] = _p50_us([r[2] - r[1] for r in predicts])
    out["worker.busy_share"] = sum(r[2] - r[1] for r in predicts) / (w1 - w0)
    ended = {r[4][1]: r[2] for r in workers if r[0] == "predict" and r[4][1] >= 0}
    out["ipc.back_us"] = _p50_us(
        [r[1] - ended[r[4]] for r in _in(main, "done", window) if r[4] in ended]
    )
    out["worker.restarts"] = stats1["restarts"] - stats0["restarts"]
    out["server.batches"] = stats1["batches"] - stats0["batches"]

    # -- binary wire
    out["wire.binary.decode_us"] = _p50_us(
        [r[4] for r in _in(main, "binary.decode", window)]
    )
    received = {r[4]: r[1] for r in _in(client, "client.recv", window)}
    replies = [r[4] for r in main if r[0] == "binary.reply"]
    out["wire.binary.reply_us"] = _p50_us([
        received[rid] - done for rid, done in replies
        if done is not None and w0 <= done < w1 and rid in received
    ])
    wire0 = {t["name"]: t for t in stats0["transports"]}
    for t in stats1["transports"]:
        if t["name"] == "binary":
            before = wire0.get("binary", {})
            out["wire.binary.frames"] = t["frames_in"] - before.get("frames_in", 0)
            out["wire.binary.bytes"] = (
                t["bytes_in"] + t["bytes_out"]
                - before.get("bytes_in", 0) - before.get("bytes_out", 0)
            )
            out["wire.binary.malformed"] = t["malformed"] - before.get("malformed", 0)
    out["client.binary.send_us"] = _p50_us(
        [r[2] - r[1] for r in _in(client, "client.send", window)]
    )

    # -- HTTP wire: handler time, and what the client waited beyond it
    handlers = sorted((r[1], r[2]) for r in _in(main, "http.handler", window))
    out["wire.http.handler_us"] = _p50_us([t1 - t0 for t0, t1 in handlers])
    out["wire.http.requests"] = len(handlers)
    handler_starts = [t0 for t0, _t1 in handlers]
    gaps = []
    for c0, c1 in rtt_ns:
        i = bisect.bisect_left(handler_starts, c0)
        if i < len(handlers) and handlers[i][1] <= c1:
            gaps.append((c1 - c0) - (handlers[i][1] - handlers[i][0]))
    out["wire.http.client_gap_ms"] = percentile(gaps, 50) / 1e6
    return out


def stage_sum_ms(layers: dict) -> float:
    """Per-stage p50s of a trickle request: wire in .. wire out."""
    return (
        layers["client.binary.send_us"] / 1e3
        + layers["wire.binary.decode_us"] / 1e3
        + layers["queue.default.wait_p50_ms"]
        + layers["ipc.out_us"] / 1e3
        + layers["worker.predict_us_per_batch"] / 1e3
        + layers["ipc.back_us"] / 1e3
        + layers["wire.binary.reply_us"] / 1e3
    )
