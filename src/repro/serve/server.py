"""The serving front-end: warm encoders, micro-batching, a worker pool.

:class:`UHDServer` is rung 2 of the ROADMAP's backend ladder.  It owns:

* **one warm front-end model** (loaded via :func:`repro.api.load_model`,
  never re-fit) whose encoder comes from the process-wide
  :class:`~repro.serve.cache.EncoderCache` — one set of gather tables
  per ``(pixels, config)`` key no matter how many servers run in the
  process, warmed *before* workers start.  The start method
  decides how workers get it: ``fork`` children share it copy-on-write;
  ``spawn``/``forkserver`` children attach one table file the server
  writes and deletes;
* **a priority-lane scheduler**
  (:class:`~repro.serve.scheduler.Scheduler`) coalescing small
  requests queued while every worker is busy into packed-friendly
  batches per named lane (``max_batch`` / ``max_wait_ms`` / ``lanes``
  in :class:`~repro.serve.types.ServeConfig`) — an idle worker takes
  what is queued at once,
  draining lanes with weighted anti-starvation and failing
  expired-deadline requests loudly instead of serving them late;
* **a pool of worker processes** (:mod:`repro.serve.worker`) that
  warm-start from the same model file, prove readiness with the
  ``serve-check`` probe, and are respawned on crash with their
  in-flight batch re-queued — a submitted request is answered or fails
  loudly, never dropped;
* **an in-process fallback** (``workers=0``) for 1-core hosts: the
  same scheduler, drained by the submitting thread instead of a pool —
  same API, same accounting, zero IPC.

Bit-exactness: the server never transforms data — it only splits,
concatenates and routes.  Both encode and binarized inference are
row-independent, so the labels a request gets back are identical to
calling ``UHDClassifier.predict`` on the same rows directly, whatever
they were coalesced with (``tests/serve/test_server.py`` asserts this
against every built-in backend).

How requests *reach* ``submit`` is the business of the layers above:
a :class:`~repro.serve.router.Router` dispatches to each deployment's
current server, and the HTTP and binary transports front only a router, so
the contract above covers every wire identically.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from collections import deque
from typing import Any

import numpy as np

from .cache import encoder_cache
from .probe import ProbeResult, readiness_probe
from .scheduler import LaneConfig, Scheduler
from .types import (
    DeadlineExpiredError,
    PredictionHandle,
    ServeConfig,
    ServeError,
    ServerStats,
    WorkerCrashError,
    _StatCounters,
)
from .worker import WorkerHandle, spawn_worker

__all__ = ["UHDServer"]


class _Part:
    """One ``<= max_batch``-row slice of a request; the scheduler's item."""

    __slots__ = ("handle", "index", "images")

    def __init__(self, handle: PredictionHandle, index: int, images: np.ndarray):
        self.handle = handle
        self.index = index
        self.images = images

    @property
    def rows(self) -> int:
        return self.images.shape[0]


class _Batch:
    """A dispatched unit: coalesced parts plus their concatenated images."""

    __slots__ = ("id", "parts", "rows", "lane")

    def __init__(self, batch_id: int, parts: list[_Part], lane: str | None = None):
        self.id = batch_id
        self.parts = parts
        self.lane = lane
        self.rows = sum(p.rows for p in parts)

    def images(self) -> np.ndarray:
        if len(self.parts) == 1:
            return self.parts[0].images
        return np.concatenate([p.images for p in self.parts])

    def complete(self, labels: np.ndarray) -> None:
        offset = 0
        for part in self.parts:
            part.handle._complete_part(
                part.index, labels[offset:offset + part.rows]
            )
            offset += part.rows

    def fail(self, error: BaseException) -> None:
        for part in self.parts:
            part.handle._fail(error)


def _resolve_start_method(method: str) -> str:
    if method != "auto":
        return method
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class UHDServer:
    """Serve predictions for one saved model, batched and fanned out.

    Usage::

        from repro.serve import ServeConfig, UHDServer

        with UHDServer("mnist-2048.npz",
                       ServeConfig(workers=2, max_batch=64,
                                   max_wait_ms=2.0)) as server:
            labels = server.predict(images)          # sync round-trip
            handle = server.submit(more_images)      # async
            labels2 = handle.result(timeout=5.0)

    The context manager starts the pool on entry (workers warm-load the
    model file — training happened elsewhere, earlier) and shuts it down
    cleanly on exit.  ``ServeConfig(workers=0)`` gives the in-process
    fallback with the identical API.
    """

    def __init__(self, model_path: Any, config: ServeConfig | None = None):
        self.model_path = str(model_path)
        self.config = config if config is not None else ServeConfig()
        self._model: Any = None
        self._num_pixels: int | None = None
        self._front_probe: ProbeResult | None = None
        self._encoder_lock: threading.Lock = threading.Lock()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._stats = _StatCounters()
        self._started = False
        self._closed = False
        self._accepting = False
        self._running = False
        self._failure: BaseException | None = None
        #: resolved lane set (start()) — first entry is the default lane
        self._lanes: tuple[LaneConfig, ...] = ()
        self._lane_map: dict[str, LaneConfig] = {}
        #: built in start() at every worker count
        self._scheduler: Scheduler[_Part] | None = None
        # pool-mode machinery (built in start() when workers > 0)
        self._workers: list[WorkerHandle] = []
        self._idle: deque[WorkerHandle] = deque()
        self._inflight: dict[int, _Batch] = {}
        self._retry: deque[_Batch] = deque()
        #: parts submitted but not yet registered in _inflight (or failed);
        #: covers the window where an executor holds a batch it popped
        #: from the scheduler/retry queue, which close()'s drain loop and
        #: the no-workers failure path would otherwise not see
        self._pending_parts = 0
        self._fatal: list[str] = []
        self._batch_ids = itertools.count()
        self._ctx: Any = None
        self._threads: list[threading.Thread] = []
        #: the table file spawn/forkserver workers attach and the temp
        #: directory holding it (both None under fork and workers=0)
        self._table_dir: str | None = None
        self._table_path: str | None = None
        #: test hook — the next N dispatched batches kill their worker
        self._crash_next = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "UHDServer":
        """Warm-load the model, spawn and probe workers, start dispatching."""
        if self._started:
            return self
        self._lanes = self.config.effective_lanes()
        self._lane_map = {lane.name: lane for lane in self._lanes}
        self._load_front_end()
        self._scheduler = Scheduler(self._lanes, on_expired=self._on_expired)
        if self.config.workers > 0:
            method = _resolve_start_method(self.config.start_method)
            try:
                if method != "fork":
                    self._publish_tables()
                self._start_pool(method)
            except BaseException:
                self._release_tables()
                raise
        self._started = True
        self._accepting = True
        return self

    def _load_front_end(self) -> None:
        from ..api.persistence import load_model

        # same load + backend re-home path the workers and the CLI use
        model = load_model(self.model_path, backend=self.config.backend)
        num_pixels = getattr(model, "num_pixels", None)
        if num_pixels is None:
            raise ServeError(
                f"{type(model).__name__} has no num_pixels; UHDServer fronts "
                "image models (UHDClassifier, StreamingUHD)"
            )
        self._num_pixels = int(num_pixels)
        # share one encoder per (pixels, config) process-wide; the probe's
        # first predict builds its table, which fork workers inherit
        # copy-on-write (worker_main adopts the same cache entry
        # post-fork).  Adopt BEFORE the probe: a model that arrived with
        # warm tables (a .tables sidecar attach) seeds the cache, so the
        # probe runs on those tables instead of rebuilding.  The probe
        # holds the key's serialization lock: another server over the
        # same key may already be predicting on the shared encoder, whose
        # workspaces are not safe under concurrent encodes
        self._encoder_lock = encoder_cache().adopt(model) or threading.Lock()
        with self._encoder_lock:
            self._front_probe = readiness_probe(
                model, self._num_pixels,
                batch=self.config.probe_batch, repeats=1,
            )
        self._model = model

    def _publish_tables(self) -> None:
        """Write the warm front-end table to a file workers attach.

        Only for workers that cannot inherit it (``spawn``/``forkserver``;
        ``fork`` children adopt the warm cached encoder copy-on-write).
        Runs after :meth:`_load_front_end` (the encoder is warm) and
        before any worker starts, so every worker generation — bootstrap
        and crash-respawn alike — attaches the same file.  Models without
        exportable tables (reference encoders) write nothing and workers
        build as before.
        """
        model_config = getattr(self._model, "config", None)
        if model_config is None or not hasattr(self._model, "encoder"):
            return
        self._table_dir = tempfile.mkdtemp(prefix="uhd-tables-")
        self._table_path = encoder_cache().publish(
            self._num_pixels,
            model_config,
            os.path.join(self._table_dir, "tables.uhdtbl"),
        )

    def _start_pool(self, method: str) -> None:
        self._ctx = multiprocessing.get_context(method)
        self._workers = [WorkerHandle(slot) for slot in range(self.config.workers)]
        for handle in self._workers:
            self._spawn(handle)
        self._running = True
        self._threads = [
            threading.Thread(
                target=self._collect_loop, name="uhd-serve-collect", daemon=True
            ),
            threading.Thread(
                target=self._dispatch_loop, name="uhd-serve-dispatch", daemon=True
            ),
        ]
        for thread in self._threads:
            thread.start()
        deadline = time.monotonic() + self.config.ready_timeout_s
        with self._cv:
            while any(w.state == "starting" for w in self._workers):
                if self._fatal:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
            fatal = list(self._fatal)
            pending = [w.slot for w in self._workers if w.state == "starting"]
            dead = [w.slot for w in self._workers if w.state == "dead"]
        if fatal or pending or dead:
            self._started = True  # so close() tears the partial pool down
            self.close(drain_timeout=0.0)
            if fatal:
                raise ServeError(
                    "worker bootstrap failed (serve-check probe):\n" + fatal[0]
                )
            if dead:
                raise ServeError(
                    f"workers {dead} died during bootstrap before reporting "
                    "readiness (with start_method='spawn' the parent must be "
                    "importable — a __main__ guard is required)"
                )
            raise ServeError(
                f"workers {pending} not ready within "
                f"{self.config.ready_timeout_s}s"
            )

    def _spawn(self, handle: WorkerHandle) -> None:
        spawn_worker(
            self._ctx,
            handle,
            self.model_path,
            self.config.backend,
            self.config.probe_batch,
            self._table_path,
        )

    def __enter__(self) -> "UHDServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain pending work (up to ``drain_timeout``), then stop everything.

        ``drain_timeout`` defaults to ``config.drain_timeout_s`` — the
        same window the CLI's SIGTERM/SIGINT handler relies on.
        Idempotent.  Requests still queued when the drain window expires
        fail with :class:`ServeError` rather than hanging their callers.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout_s
        if self._closed or not self._started:
            # a failed start() may have written a table file before
            # dying — delete it even though the server never came up
            self._release_tables()
            self._closed = True
            return
        self._accepting = False
        assert self._scheduler is not None
        self._scheduler.close()
        deadline = time.monotonic() + drain_timeout
        with self._cv:
            # _pending_parts covers both parts queued in the scheduler and a
            # batch the dispatcher has popped but not yet registered, so a
            # request submitted before close() gets its full drain window
            while self._inflight or self._retry or self._pending_parts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(min(remaining, 0.1))
            self._running = False
            leftovers = list(self._retry) + list(self._inflight.values())
            self._retry.clear()
            self._inflight.clear()
            self._cv.notify_all()
        # requests still queued in the scheduler must fail, not hang their
        # callers: drain it (closed above, so this terminates) and fail each
        leftovers.extend(self._drain_scheduler())
        for batch in leftovers:
            batch.fail(ServeError("server closed before the request completed"))
        # threads first: they may be mid-wait on pipes that stop() closes
        for thread in self._threads:
            thread.join(timeout=5.0)
        for handle in self._workers:
            handle.stop()
        self._release_tables()
        self._closed = True

    def _release_tables(self) -> None:
        """Delete this server's table file and its directory (idempotent).

        Ordered after worker stop so no live worker attaches a deleted
        file; safe either way on POSIX (open mappings survive unlink),
        but the ordering keeps the lifecycle story simple.
        """
        if self._table_path is not None:
            encoder_cache().unpublish(self._table_path)
            self._table_path = None
        if self._table_dir is not None:
            shutil.rmtree(self._table_dir, ignore_errors=True)
            self._table_dir = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _check_images(self, images: Any) -> np.ndarray:
        # the one shared accepted-shapes policy (square-image
        # disambiguation included) — StreamingUHD normalizes identically
        from ..utils.validation import as_image_batch

        return as_image_batch(images, self._num_pixels)

    def _resolve_lane(self, lane: str | None) -> LaneConfig:
        name = self._lanes[0].name if lane is None else lane
        config = self._lane_map.get(name)
        if config is None:
            raise ValueError(
                f"unknown lane {name!r}; configured lanes: "
                f"{', '.join(l.name for l in self._lanes)}"
            )
        return config

    def submit(
        self,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> PredictionHandle:
        """Enqueue a prediction request; returns a :class:`PredictionHandle`.

        ``lane`` routes the request onto a named priority lane (the
        first configured lane when ``None``); requests wider than the
        lane's ``max_batch`` are split into parts and reassembled in
        order by the handle.  ``deadline_ms`` bounds how long the
        request may *queue*: parts still unscheduled when it passes fail
        the handle with :class:`DeadlineExpiredError` instead of being
        served late.  Blocks (backpressure) while the lane is full;
        ``timeout`` bounds that wait.
        """
        if not self._started:
            raise ServeError("server not started (use start() or a with-block)")
        if not self._accepting:
            raise ServeError("server is closed")
        if self._failure is not None:
            raise ServeError(f"server failed: {self._failure}")
        lane_config = self._resolve_lane(lane)
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        arr = self._check_images(images)
        rows = arr.shape[0]
        with self._lock:
            self._stats.requests += 1
            self._stats.images += rows
        if rows == 0:
            handle = PredictionHandle(parts=0, rows=0)
            return handle
        deadline = (
            None if deadline_ms is None
            else time.monotonic() + deadline_ms / 1e3
        )
        step = lane_config.max_batch
        chunks = [arr[i:i + step] for i in range(0, rows, step)]
        handle = PredictionHandle(parts=len(chunks), rows=rows)
        assert self._scheduler is not None
        try:
            for index, chunk in enumerate(chunks):
                with self._lock:
                    self._pending_parts += 1
                try:
                    self._scheduler.put(
                        _Part(handle, index, chunk),
                        lane=lane_config.name,
                        deadline=deadline,
                        timeout=timeout,
                    )
                except BaseException:
                    with self._lock:
                        self._pending_parts -= 1  # this part never queued
                    raise
                if self.config.workers == 0:
                    # drained per part, not per request: the caller is the
                    # only executor, so a full lane would otherwise block
                    # its own put forever
                    self._run_queued()
        except (RuntimeError, TimeoutError) as exc:
            # parts already enqueued will still complete; the handle fails
            # loudly instead of leaving its caller waiting forever
            error = ServeError(f"request not fully enqueued: {exc}")
            handle._fail(error)
            raise error from exc
        return handle

    def predict(
        self,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> np.ndarray:
        """Synchronous round-trip: ``submit(images).result(timeout)``."""
        return self.submit(
            images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
        ).result(timeout)

    def _on_expired(self, part: _Part, lane: str) -> None:
        """Scheduler callback: a queued part's deadline passed — fail loudly."""
        part.handle._fail(
            DeadlineExpiredError(
                f"request deadline expired while queued in lane {lane!r}; "
                "refusing to serve it late"
            )
        )
        with self._cv:
            self._pending_parts -= 1
            self._cv.notify_all()

    def _run_queued(self) -> None:
        """In-process executor: run queued batches on the calling thread.

        Each batch is popped and predicted under the encoder's cache-wide
        lock (one per ``(pixels, config)`` key), so the lock holder is the
        one executor and a part queues while another thread predicts —
        its lane latency is queue wait, as in pool mode.  The loop may
        run parts other callers queued and stops at the first empty
        heartbeat.  A predict failure fails that batch's handles; it is
        never raised here, where it would strand other callers' parts.
        """
        assert self._scheduler is not None
        while True:
            error: BaseException | None = None
            with self._encoder_lock:
                scheduled = self._scheduler.next_batch(poll_s=0.0)
                if not scheduled:  # empty heartbeat, or closed and drained
                    return
                batch = _Batch(
                    next(self._batch_ids), scheduled.items, lane=scheduled.lane
                )
                try:
                    labels = self._model.predict(batch.images())
                except Exception as exc:
                    error = ServeError(f"predict failed: {exc!r}")
            try:
                if error is None:
                    batch.complete(labels)
                else:
                    batch.fail(error)
            finally:
                with self._cv:
                    self._stats.record_batch(batch.rows)
                    self._pending_parts -= len(batch.parts)
                    self._cv.notify_all()

    # ------------------------------------------------------------------
    # Pool threads
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Acquire an idle worker first, then hand it the next piece of work.

        Work-conserving: the worker is held while the dispatcher waits
        for the retry queue's head or :meth:`Scheduler.next_batch`, so a
        lone part leaves the moment it is queued.  Parts coalesce on
        their own while every worker is busy: they pile up in their
        lanes and the next pull takes up to ``max_batch`` of them.
        """
        assert self._scheduler is not None
        worker: WorkerHandle | None = None
        while True:
            worker = self._acquire_worker(held=worker)
            if worker is None:  # shutting down, or every worker dead
                self._fail_retries()
                return
            batch: _Batch | None = None
            with self._cv:
                if self._retry:
                    batch = self._retry.popleft()
                    # back in the dispatcher's hands: count its parts as
                    # pending again until (re-)registered in _inflight
                    self._pending_parts += len(batch.parts)
            if batch is None:
                scheduled = self._scheduler.next_batch(poll_s=0.05)
                if scheduled is None:  # closed and drained; retries may remain
                    with self._cv:
                        self._cv.wait(0.05)
                    continue
                if not scheduled:  # idle heartbeat: keep the worker
                    continue
                batch = _Batch(
                    next(self._batch_ids), scheduled.items, lane=scheduled.lane
                )
            crash = False
            with self._cv:
                if not self._running or worker.state != "busy" or not (
                    worker.alive()
                ):
                    # the worker died while the dispatcher held it (the
                    # reaper reset it to starting/dead), or the server is
                    # closing: registering now would orphan the batch —
                    # re-queue it for another worker, or for the
                    # shutdown path above to fail
                    self._pending_parts -= len(batch.parts)
                    self._retry.append(batch)
                    self._cv.notify_all()
                    worker = None
                    continue
                if self._crash_next > 0:
                    self._crash_next -= 1
                    crash = True
                self._inflight[batch.id] = batch
                self._pending_parts -= len(batch.parts)
                worker.busy_batch = batch
                self._stats.record_batch(batch.rows)
                # snapshot under the lock: a reaper respawn after this point
                # swaps worker.task_writer, and a send must never land on a
                # newer generation's pipe
                writer = worker.task_writer
            worker = None
            try:
                writer.send(("batch", batch.id, batch.images(), crash))
            except (BrokenPipeError, OSError, AttributeError):
                # worker died first; busy_batch is registered, so the
                # reaper reclaims and retries this batch
                pass

    def _fail_retries(self) -> None:
        """Fail every re-queued batch once no worker can take it.

        Covers a batch the crash rule re-queued after ``close()`` or the
        no-workers path collected its leftovers.
        """
        with self._cv:
            stranded = list(self._retry)
            self._retry.clear()
            failure = self._failure or ServeError("server is shutting down")
            self._cv.notify_all()
        for batch in stranded:
            batch.fail(failure)

    def _acquire_worker(
        self, held: WorkerHandle | None = None
    ) -> WorkerHandle | None:
        """An idle worker marked busy (``held`` is kept); None once stopping."""
        with self._cv:
            while self._running and self._failure is None:
                if held is not None:
                    return held
                if self._idle:
                    worker = self._idle.popleft()
                    if worker.state == "idle" and worker.alive():
                        worker.state = "busy"
                        return worker
                    continue  # stale entry (crashed while queued); drop it
                self._cv.wait(0.1)
            return None

    def _collect_loop(self) -> None:
        from multiprocessing.connection import wait as conn_wait

        while True:
            readers: dict[Any, WorkerHandle] = {}
            with self._cv:
                if not self._running:
                    return
                for worker in self._workers:
                    if worker.result_reader is not None and worker.state in (
                        "starting", "idle", "busy"
                    ):
                        readers[worker.result_reader] = worker
            if readers:
                try:
                    ready = conn_wait(list(readers), timeout=0.05)
                except OSError:
                    ready = []  # a pipe closed under us; reap below
            else:
                time.sleep(0.05)
                ready = []
            for conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    continue  # pipe EOF == crash; _reap_crashed handles it
                self._handle_message(msg)
            self._reap_crashed()

    def _drain_reader(self, worker: WorkerHandle) -> None:
        """Deliver results a worker managed to send before dying.

        Per-generation pipes make this safe: a completed ``send`` is
        fully in the pipe, so a crash can lose at most the message being
        written (whose batch the reaper then retries).
        """
        conn = worker.result_reader
        while conn is not None:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                return
            self._handle_message(msg)

    def _handle_message(self, msg: tuple) -> None:
        kind, slot = msg[0], msg[1]
        worker = self._workers[slot]
        if kind == "ready":
            with self._cv:
                worker.state = "idle"
                worker.probe_median_s = msg[2]
                worker.table_builds = int(msg[3]) if len(msg) > 3 else None
                self._stats.probe_ms[slot] = msg[2] * 1e3
                if worker.table_builds is not None:
                    self._stats.table_builds[slot] = worker.table_builds
                self._idle.append(worker)
                self._cv.notify_all()
        elif kind == "fatal":
            with self._cv:
                self._fatal.append(msg[2])
                worker.state = "dead"
                self._cv.notify_all()
            self._fail_if_no_workers()
        elif kind in ("result", "error"):
            batch_id = msg[2]
            with self._cv:
                batch = self._inflight.pop(batch_id, None)
                if worker.busy_batch is batch:
                    worker.busy_batch = None
                if worker.state == "busy" and worker.alive():
                    worker.state = "idle"
                    self._idle.append(worker)
                self._cv.notify_all()
            if batch is None:
                return  # already reclaimed (late message after a retry)
            if kind == "result":
                batch.complete(msg[3])
            else:
                batch.fail(ServeError(f"worker predict failed:\n{msg[3]}"))

    def _reap_crashed(self) -> None:
        """Respawn dead workers; re-queue their in-flight batches."""
        for worker in self._workers:
            if worker.state in ("stopped", "dead") or worker.alive():
                continue
            self._drain_reader(worker)  # results sent before death still count
            with self._cv:
                if worker.state in ("stopped", "dead") or worker.alive():
                    continue
                batch = worker.busy_batch
                worker.busy_batch = None
                if batch is not None and self._inflight.pop(batch.id, None) is None:
                    batch = None  # result arrived before the crash was seen
                can_restart = (
                    self._running
                    and self._stats.restarts < self.config.restart_limit
                )
                if can_restart:
                    self._stats.restarts += 1
                    worker.state = "starting"
                    if batch is not None:
                        self._retry.append(batch)
                        batch = None
                else:
                    worker.state = "dead"
                self._cv.notify_all()
            if batch is not None:
                batch.fail(
                    WorkerCrashError(
                        f"worker {worker.slot} crashed and the restart budget "
                        f"({self.config.restart_limit}) is exhausted"
                    )
                )
            if worker.state == "starting":
                self._spawn(worker)  # also swaps in this generation's pipes
            else:
                worker.close_pipes()
                self._fail_if_no_workers()

    def _drain_scheduler(self) -> list[_Batch]:
        """Pull every still-queued part out of the (already closed) scheduler.

        Shared by clean shutdown and the all-workers-dead path so the
        ``_pending_parts`` accounting cannot diverge between them; the
        caller owns failing the returned batches.  Parts whose deadlines
        expired are failed by the ``on_expired`` callback along the way,
        never returned.
        """
        assert self._scheduler is not None
        drained: list[_Batch] = []
        while True:
            scheduled = self._scheduler.next_batch(poll_s=0.0)
            if scheduled is None or not scheduled:
                return drained
            with self._cv:
                self._pending_parts -= len(scheduled.items)
            drained.append(
                _Batch(next(self._batch_ids), scheduled.items, lane=scheduled.lane)
            )

    def _fail_if_no_workers(self) -> None:
        """Fail pending work when the pool can no longer serve anything."""
        with self._cv:
            if any(w.state in ("starting", "idle", "busy") for w in self._workers):
                return
            if self._failure is None:
                self._failure = ServeError(
                    "all workers are dead (crashes exceeded restart_limit "
                    "or bootstrap failed)"
                )
            failure = self._failure
            leftovers = list(self._retry) + list(self._inflight.values())
            self._retry.clear()
            self._inflight.clear()
            self._accepting = False
            self._cv.notify_all()
        assert self._scheduler is not None
        self._scheduler.close()
        leftovers.extend(self._drain_scheduler())
        for batch in leftovers:
            batch.fail(failure)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pixels(self) -> int | None:
        """Pixels per image the served model expects (after start())."""
        return self._num_pixels

    @property
    def front_probe(self) -> ProbeResult | None:
        """The front-end model's own readiness-probe result."""
        return self._front_probe

    @property
    def lanes(self) -> tuple[LaneConfig, ...]:
        """The resolved lane set (after start()); first entry is default."""
        return self._lanes

    def stats(self) -> ServerStats:
        """A :class:`ServerStats` snapshot of the counters so far.

        Request/batch counters, per-lane scheduler depth/served/expired,
        and the process-wide encoder cache (table bytes, live table
        files).  A deployment merges its servers' snapshots
        into the document the HTTP ``/stats`` endpoint serves.
        """
        scheduler = self._scheduler
        lane_stats = scheduler.stats() if scheduler is not None else ()
        cache_stats = encoder_cache().stats()
        with self._lock:
            return self._stats.snapshot(
                mode="inproc" if self.config.workers == 0 else "pool",
                workers=self.config.workers,
                lanes=lane_stats,
                cache=cache_stats,
            )

    def healthz(self) -> dict:
        """Liveness/readiness summary for health endpoints.

        ``ok`` is True while the server accepts traffic and (in pool
        mode) at least one worker is alive.  ``probe`` reports the
        front-end's :func:`~repro.serve.probe.readiness_probe` result —
        the same deterministic-predictions check ``serve-check`` runs.
        """
        with self._cv:
            live = sum(
                1 for w in self._workers if w.state in ("idle", "busy")
            )
            starting = sum(1 for w in self._workers if w.state == "starting")
            ok = bool(
                self._started
                and self._accepting
                and self._failure is None
                and (self.config.workers == 0 or live + starting > 0)
            )
        probe = self._front_probe
        return {
            "ok": ok,
            "status": "ok" if ok else "unavailable",
            "mode": "inproc" if self.config.workers == 0 else "pool",
            "workers": self.config.workers,
            "workers_live": live,
            "lanes": [lane.name for lane in self._lanes],
            "probe": None if probe is None else {
                "median_ms": probe.median_ms,
                "images_per_s": probe.images_per_s,
                "batch": probe.batch,
                "deterministic": probe.deterministic,
            },
        }
