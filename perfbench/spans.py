"""Spans recorded by wrappers around the program's public functions.

The benchmark installs these wrappers in its own process and, through
``daemon.py``, in the serving daemon before ``repro.cli.main`` runs;
forked workers inherit them.  Every timestamp comes from CLOCK_MONOTONIC
(:func:`common.now_ns`), which all processes share, so spans from the
client, the daemon and its workers line up on one time axis.

A record is ``(name, t0_ns, t1_ns, self_ns, info)``.  ``self_ns`` is the
span's duration minus the time its child spans on the same thread cover.
Instant events have ``t0 == t1``.  Records stay in memory; each process
writes its own ``spans-<pid>.json`` when it exits.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import json
import os
import sys
import threading
from pathlib import Path

from common import now_ns


class Tracer:
    """One process's span store."""

    def __init__(self, out_dir: "str | Path | None" = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.records: list[tuple] = []
        self.tls = threading.local()

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self.tls, "stack", None)
        if stack is None:
            stack = self.tls.stack = []
        return stack

    def span(self, name: str, fn, info=None):
        """Wrap ``fn`` so each call records a span; ``info(args, kwargs)``."""
        records = self.records

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0)
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                records.append(
                    (name, t0, t1, t1 - t0 - child,
                     info(args, kwargs) if info is not None else 0)
                )

        wrapper.__perfbench_original__ = fn
        return wrapper

    def event(self, name: str, info=0, t: "int | None" = None) -> None:
        t = now_ns() if t is None else t
        self.records.append((name, t, t, 0, info))

    # ------------------------------------------------------------ output
    def dump(self) -> None:
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "records": self.records}, fh)

    def write_at_exit(self) -> None:
        """Dump at interpreter exit, and in every multiprocessing child."""
        import multiprocessing.util as mp_util

        atexit.register(self.dump)
        mp_util.register_after_fork(self, Tracer._in_child)

    def _in_child(self) -> None:
        # a forked worker starts with an empty store of its own and, since
        # multiprocessing children leave through os._exit (no atexit),
        # writes it from a multiprocessing finalizer instead
        import multiprocessing.util as mp_util

        self.records.clear()
        self.tls = threading.local()
        mp_util.Finalize(self, self.dump, exitpriority=100)


def load_records(out_dir: Path) -> dict[int, list[tuple]]:
    """``{pid: records}`` for every process that wrote into ``out_dir``."""
    by_pid = {}
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        with open(path) as fh:
            data = json.load(fh)
        by_pid[data["pid"]] = [tuple(r) for r in data["records"]]
    return by_pid


# ---------------------------------------------------------------- install


def _patch_method(owner, attr: str, make) -> None:
    original = getattr(owner, attr, None)
    if original is None or hasattr(original, "__perfbench_original__"):
        return
    setattr(owner, attr, make(original))


def _patch_function(module, attr: str, make) -> None:
    """Replace a module function, including every ``from m import f`` copy."""
    original = getattr(module, attr, None)
    if original is None or hasattr(original, "__perfbench_original__"):
        return
    wrapped = make(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _rows(index: int):
    def info(args, kwargs):
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0
    return info


def install_library(tracer: Tracer) -> None:
    """Encode, classify, fit, codebook and model loading (any process)."""
    import repro.api.persistence as persistence
    import repro.core.encoder as core_encoder
    import repro.core.model as core_model
    import repro.fastpath.encoder as fast_encoder
    import repro.hdc.classifier as classifier
    import repro.lds.sobol as sobol

    def predict_info(args, kwargs):
        # the worker's batch id (set when its task pipe delivered the
        # batch) ties this predict to the batch's IPC timestamps
        return (_rows(1)(args, kwargs), getattr(tracer.tls, "batch", -1))

    for cls in (fast_encoder.PackedLevelEncoder, core_encoder.SobolLevelEncoder):
        _patch_method(cls, "encode_batch",
                      lambda f: tracer.span("encode", f, _rows(1)))
    _patch_method(classifier.CentroidClassifier, "predict",
                  lambda f: tracer.span("classify", f, _rows(1)))
    _patch_method(classifier.CentroidClassifier, "fit",
                  lambda f: tracer.span("accumulate", f, _rows(1)))
    _patch_method(core_model.UHDClassifier, "predict",
                  lambda f: tracer.span("predict", f, predict_info))
    _patch_function(sobol, "sobol_sequences",
                    lambda f: tracer.span("codebook", f))
    _patch_function(persistence, "load_model",
                    lambda f: tracer.span("load_model", f))


def install_client(tracer: Tracer) -> None:
    """The benchmark's calls into the binary client."""
    import repro.serve.binary as binary

    _patch_method(binary.BinaryClient, "send",
                  lambda f: tracer.span("client.send", f))

    def wrap_recv(f):
        def recv(self):
            rid, labels = f(self)
            tracer.event("client.recv", rid)
            return rid, labels
        recv.__perfbench_original__ = f
        return recv
    _patch_method(binary.BinaryClient, "recv", wrap_recv)


def install_server(tracer: Tracer) -> None:
    """Daemon-side layers: setup, scheduler, worker IPC and both wires."""
    import http.server
    import multiprocessing.connection as mp_connection
    import multiprocessing.process as mp_process
    import selectors

    import repro.serve.binary as binary
    import repro.serve.cache as cache
    import repro.serve.scheduler as scheduler
    import repro.serve.server as server
    import repro.serve.transport as transport
    import repro.serve.types as types

    tls = _TlsProxy(tracer)
    event = tracer.event

    @contextlib.contextmanager
    def book():
        # tracing must never change what the daemon does: a record that
        # cannot be taken (say, an internal renamed) is noted, not raised
        try:
            yield
        except Exception as exc:
            event("trace.error", type(exc).__name__)

    install_library(tracer)
    _patch_method(cache.EncoderCache, "warm",
                  lambda f: tracer.span("cache.warm", f))
    _patch_method(cache.EncoderCache, "publish",
                  lambda f: tracer.span("cache.publish", f))
    _patch_method(server.UHDServer, "start",
                  lambda f: tracer.span("server.start", f))

    def wrap_process_start(f):
        def start(self, *a, **k):
            event("proc.start")
            return f(self, *a, **k)
        start.__perfbench_original__ = f
        return start
    _patch_method(mp_process.BaseProcess, "start", wrap_process_start)

    # -- worker pipes: the tuples carry the batch id on both sides
    def wrap_send(f):
        def send(self, obj, *a, **k):
            with book():
                if type(obj) is tuple and obj and obj[0] == "batch":
                    event("ipc.send", obj[1])
            return f(self, obj, *a, **k)
        send.__perfbench_original__ = f
        return send

    def wrap_recv(f):
        def recv(self, *a, **k):
            msg = f(self, *a, **k)
            with book():
                if type(msg) is tuple and msg:
                    kind = msg[0]
                    if kind == "batch":
                        tls.set("batch", msg[1])
                        event("ipc.recv", msg[1])
                    elif kind in ("result", "error"):
                        tls.set("batch", msg[2])
                    elif kind == "ready":
                        event("worker.ready", msg[1])
            return msg
        recv.__perfbench_original__ = f
        return recv
    _patch_method(mp_connection._ConnectionBase, "send", wrap_send)
    _patch_method(mp_connection._ConnectionBase, "recv", wrap_recv)

    # -- scheduler: put -> returned by next_batch, per lane
    put_at: dict[int, tuple[int, str]] = {}
    depth: dict[str, int] = {}
    lock = threading.Lock()

    def wrap_put(f):
        def put(self, item, lane=None, *a, **k):
            t = now_ns()
            f(self, item, lane, *a, **k)
            with book(), lock:
                name = self.default_lane if lane is None else lane
                put_at[id(item)] = (t, name)
                depth[name] = depth.get(name, 0) + 1
                event("q.depth", (name, depth[name]), t)
        put.__perfbench_original__ = f
        return put

    def wrap_next_batch(f):
        def next_batch(self, *a, **k):
            batch = f(self, *a, **k)
            if batch:
                t = now_ns()
                rows = 0
                with book(), lock:
                    for item in batch.items:
                        rows += item.rows
                        start = put_at.pop(id(item), None)
                        if start is not None:
                            tracer.records.append(
                                ("q.wait", start[0], t, 0, start[1])
                            )
                            depth[start[1]] -= 1
                    event("q.batch", (batch.lane, rows), t)
            return batch
        next_batch.__perfbench_original__ = f
        return next_batch
    _patch_method(scheduler.Scheduler, "put", wrap_put)
    _patch_method(scheduler.Scheduler, "next_batch", wrap_next_batch)

    # -- request completion: stamp the handle when its batch lands
    def mark_done(handle):
        handle._perfbench_done = now_ns()
        event("done", tls.get("batch", -1), handle._perfbench_done)

    def wrap_submit(f):
        def submit(self, *a, **k):
            t = now_ns()
            if tls.get("binary_frame", False):
                # frame fully read -> handed to the scheduler, on the
                # binary transport's event-loop thread
                since = max(tls.get("wake", t), tls.get("submitted", 0))
                event("binary.decode", t - since, t)
                tls.set("binary_frame", False)
            handle = f(self, *a, **k)
            tls.set("submitted", now_ns())
            with book():
                handle.add_done_callback(mark_done)
            return handle
        submit.__perfbench_original__ = f
        return submit
    _patch_method(server.UHDServer, "submit", wrap_submit)

    def wrap_result(f):
        def result(self, *a, **k):
            tls.set("done", getattr(self, "_perfbench_done", None))
            return f(self, *a, **k)
        result.__perfbench_original__ = f
        return result
    _patch_method(types.PredictionHandle, "result", wrap_result)

    # -- binary wire
    def wrap_frame_in(f):
        def frame_in(self, *a, **k):
            if getattr(self, "name", None) == "binary":
                tls.set("binary_frame", True)
            return f(self, *a, **k)
        frame_in.__perfbench_original__ = f
        return frame_in
    _patch_method(transport.TransportStats, "frame_in", wrap_frame_in)

    def wrap_select(f):
        def select(self, *a, **k):
            ready = f(self, *a, **k)
            tls.set("wake", now_ns())
            return ready
        select.__perfbench_original__ = f
        return select
    _patch_method(selectors.DefaultSelector, "select", wrap_select)

    def wrap_encode_frame(f):
        def encode_frame(frame_type, *a, **k):
            if frame_type == binary.FRAME_LABELS:
                event("binary.reply", (k.get("request_id", 0), tls.get("done")))
            return f(frame_type, *a, **k)
        encode_frame.__perfbench_original__ = f
        return encode_frame
    _patch_function(binary, "encode_frame", wrap_encode_frame)

    # -- HTTP wire: request parsed -> response flushed, POST only
    def wrap_parse_request(f):
        def parse_request(self):
            tls.set("http_t0", now_ns())
            return f(self)
        parse_request.__perfbench_original__ = f
        return parse_request

    def wrap_handle_one(f):
        def handle_one_request(self):
            tls.set("http_t0", None)
            f(self)
            t0 = tls.get("http_t0")
            if t0 is not None and getattr(self, "command", None) == "POST":
                t1 = now_ns()
                tracer.records.append(("http.handler", t0, t1, t1 - t0, 0))
        handle_one_request.__perfbench_original__ = f
        return handle_one_request
    handler = http.server.BaseHTTPRequestHandler
    _patch_method(handler, "parse_request", wrap_parse_request)
    _patch_method(handler, "handle_one_request", wrap_handle_one)


class _TlsProxy:
    """get/set on the tracer's thread-local (reset in forked children)."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def get(self, key: str, default=None):
        return getattr(self._tracer.tls, key, default)

    def set(self, key: str, value) -> None:
        setattr(self._tracer.tls, key, value)
