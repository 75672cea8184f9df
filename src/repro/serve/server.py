"""The serving front-end: one warm model, micro-batching, executor threads.

:class:`UHDServer` owns:

* **one warm model**, loaded via :func:`repro.api.load_model` and never
  re-fit: a :class:`~repro.core.model.UHDClassifier` (``StreamingUHD``
  included; any other saved model is refused with a
  :class:`ServeError`).  Its encoder comes from the process-wide
  :class:`~repro.serve.cache.EncoderCache` — one gather table per
  ``(pixels, config)`` key no matter how many servers run in the
  process, built by the readiness probe before the server takes
  traffic;
* **a priority-lane scheduler**
  (:class:`~repro.serve.scheduler.Scheduler`) coalescing small
  requests queued while every executor is busy into packed-friendly
  batches per named lane (``max_batch`` / ``max_wait_ms`` / ``lanes``
  in :class:`~repro.serve.types.ServeConfig`) — an idle executor takes
  what is queued at once,
  draining lanes with weighted anti-starvation and failing
  expired-deadline requests loudly instead of serving them late;
* **executor threads** (``workers=K``), each running one loop,
  :meth:`UHDServer._run_queued`: take the next batch, predict on the
  shared model, answer or fail its requests, account for it.  The
  compiled encode kernel and NumPy's popcount and argmax release the
  GIL, so K threads predict in parallel with no process hop and no
  copy of the table.  ``workers=0`` starts no thread: each submitting
  thread runs the same loop until the queue is empty.

A predict that raises fails only its own batch, exactly once, and the
executor goes on with the next.  A hard crash in native code takes the
process down with it; the deployment is then unavailable until a
supervisor restarts the process.

**Hot reload** (:meth:`UHDServer.reload`) swaps the model in place: the
next generation is loaded and probed off-lock while the current one
serves, then installed in one step under the server lock.  Each
request part carries the model that was current when it was submitted,
so a reload never changes the answer to a queued request — not even
when the new model has a different pixel geometry — and the server's
counters and histograms simply go on counting.

Bit-exactness: the server never transforms data — it only splits,
concatenates and routes.  Both encode and binarized inference are
row-independent, so the labels a request gets back are identical to
calling ``UHDClassifier.predict`` on the same rows directly, whatever
they were coalesced with (``tests/serve/test_server.py`` asserts this
against every built-in backend).

How requests *reach* ``submit`` is the business of the layers above:
a :class:`~repro.serve.router.Router` maps each model id to its one
server, and the HTTP and binary transports front only a router, so the
contract above covers every wire identically.
"""

from __future__ import annotations

import math
import threading
import time
from itertools import groupby
from operator import attrgetter
from typing import Any

import numpy as np

from ..core.model import UHDClassifier
from .cache import encoder_cache
from .probe import ProbeResult, readiness_probe
from .scheduler import LaneConfig, ScheduledBatch, Scheduler
from .types import (
    DeadlineExpiredError,
    PredictionHandle,
    ServeConfig,
    ServeError,
    ServerStats,
    _StatCounters,
)

__all__ = ["UHDServer"]

#: images in the readiness self-probe run at start and at each reload
#: (the same deterministic-predictions check ``repro-uhd serve-check`` runs)
PROBE_BATCH = 8


class _Part:
    """One ``<= max_batch``-row slice of a request; the scheduler's item.

    ``model`` is the model current when the request was submitted; it
    answers the part even if a reload swaps in another while it queues.
    """

    __slots__ = ("handle", "index", "images", "model")

    def __init__(
        self,
        handle: PredictionHandle,
        index: int,
        images: np.ndarray,
        model: UHDClassifier,
    ):
        self.handle = handle
        self.index = index
        self.images = images
        self.model = model

    @property
    def rows(self) -> int:
        return self.images.shape[0]


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
            server.reload("mnist-2048-v2.npz")       # hot swap, in place

    The context manager loads and probes the model and starts the
    executor threads on entry (training happened elsewhere, earlier),
    and drains and stops them on exit.  ``ServeConfig(workers=0)`` runs
    no thread, with the identical API.  :meth:`reload` swaps in the next
    model generation without stopping anything.
    """

    def __init__(self, model_path: Any, config: ServeConfig | None = None):
        self.model_path = str(model_path)
        self.config = config if config is not None else ServeConfig()
        #: 1 once started; each successful reload() bumps it
        self.generation = 0
        self._model: UHDClassifier | None = None
        self._front_probe: ProbeResult | None = None
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._stats = _StatCounters()
        self._started = False
        self._closed = False
        self._reloading = False
        self._scheduler: Scheduler[_Part] | None = None
        #: parts submitted and not yet answered, failed or expired —
        #: queued or held by an executor; close() drains until it is 0
        self._pending_parts = 0
        self._threads: list[threading.Thread] = []
        #: why an executor thread died, if one did; the server then
        #: refuses new requests and reads unavailable until a reload
        self._failure: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "UHDServer":
        """Load and probe the model, start the executors, take traffic.

        Raises :class:`ServeError` once the server is closed (a close
        that lands while the model loads included).
        """
        with self._lock:
            if self._closed:
                raise ServeError("server is closed")
            if self._started:
                return self
        model, probe = self._load_model(self.model_path)
        with self._lock:
            if self._closed:
                raise ServeError("server closed while starting")
            self._model, self._front_probe = model, probe
            self.generation = 1
            self._scheduler = Scheduler(
                self.config.effective_lanes(), on_expired=self._on_expired
            )
            self._threads = [
                self._spawn_executor(slot) for slot in range(self.config.workers)
            ]
            self._started = True
        return self

    def _load_model(self, path: str) -> tuple[UHDClassifier, ProbeResult]:
        """Load ``path`` and probe it: the model and its probe result.

        Raises :class:`ServeError` for a file holding anything but a
        :class:`~repro.core.model.UHDClassifier` (``StreamingUHD``
        included) — checked before any backend re-home.
        """
        from ..api.persistence import load_model

        model = load_model(path)
        if not isinstance(model, UHDClassifier):
            raise ServeError(
                f"{path!r} holds a {type(model).__name__}; UHDServer fronts "
                "UHDClassifier models (StreamingUHD included)"
            )
        if self.config.backend not in (None, model.config.backend):
            model = model.with_backend(self.config.backend)
        # share one encoder per (pixels, config) process-wide; the probe's
        # first predict builds its table before the model takes traffic
        encoder_cache().adopt(model)
        probe = readiness_probe(
            model, model.num_pixels, batch=PROBE_BATCH, repeats=1
        )
        return model, probe

    def _spawn_executor(self, slot: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._executor, name=f"uhd-serve-executor-{slot}", daemon=True
        )
        thread.start()
        return thread

    def reload(self, model_path: Any = None) -> dict:
        """Hot reload: load ``model_path`` (the current path when None) in place.

        The new model is loaded and probed while the current one keeps
        serving, then swapped in under the server lock: ``generation``
        bumps, and a failed server is re-armed (its failure cleared,
        dead executor threads restarted).  Requests submitted before the
        swap are answered by the model current at their submit, later
        ones by the new model.  Raises :class:`ServeError` — with the
        current model still serving — if another reload is in progress
        or the load or probe fails, and if the server is not started or
        is closed (before or during the reload).  Returns a report with
        ``path``, ``from_generation``, ``to_generation`` and
        ``duration_s``.
        """
        t0 = time.monotonic()
        with self._lock:
            if self._closed:
                raise ServeError("server is closed")
            if not self._started:
                raise ServeError("server not started")
            if self._reloading:
                raise ServeError("reload already in progress")
            self._reloading = True
            from_generation = self.generation
            path = self.model_path if model_path is None else str(model_path)
        try:
            try:
                model, probe = self._load_model(path)
            except Exception as exc:
                raise ServeError(
                    f"reload of {path!r} failed: {type(exc).__name__}: {exc}"
                ) from exc
            with self._lock:
                if self._closed:
                    raise ServeError("server closed during reload")
                self._model, self._front_probe = model, probe
                self.model_path = path
                self.generation += 1
                self._failure = None
                self._threads = [
                    thread if thread.is_alive() else self._spawn_executor(slot)
                    for slot, thread in enumerate(self._threads)
                ]
        finally:
            with self._lock:
                self._reloading = False
        return {
            "path": path,
            "from_generation": from_generation,
            "to_generation": from_generation + 1,
            "duration_s": time.monotonic() - t0,
        }

    def __enter__(self) -> "UHDServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain pending work (up to ``drain_timeout``), then stop everything.

        ``drain_timeout`` defaults to ``config.drain_timeout_s`` — the
        same window the CLI's SIGTERM/SIGINT handler relies on.
        Idempotent.  Requests still queued when the drain window expires
        fail with :class:`ServeError` rather than hanging their callers;
        a batch an executor already holds is answered.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout_s
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._started:
                return
        assert self._scheduler is not None
        self._scheduler.close()
        deadline = time.monotonic() + drain_timeout
        with self._cv:
            while self._pending_parts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(min(remaining, 0.1))
        # the scheduler is closed, so this terminates: every part still
        # queued fails (expired ones through on_expired along the way)
        closed = ServeError("server closed before the request completed")
        while scheduled := self._scheduler.next_batch(poll_s=0.0):
            self._finish(scheduled, error=closed)
        for thread in self._threads:  # reload() spawns none once closed
            thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
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
        order by the handle.  ``deadline_ms`` (``None``, or finite and
        > 0) bounds how long the request may *queue*: parts still
        unscheduled when it passes fail the handle with
        :class:`DeadlineExpiredError` instead of being served late.
        Blocks (backpressure) while the lane is full; ``timeout`` bounds
        that wait.  The model current now answers every part, whatever
        a later :meth:`reload` swaps in.
        """
        # the one shared accepted-shapes policy (square-image
        # disambiguation included) — UHDClassifier normalizes identically
        from ..utils.validation import as_image_batch

        if not self._started:
            raise ServeError("server not started (use start() or a with-block)")
        if self._closed:
            raise ServeError("server is closed")
        if self._failure is not None:
            raise ServeError(f"server failed: {self._failure!r}")
        assert self._scheduler is not None
        lane_config = self._scheduler.lane_config(lane)
        if deadline_ms is not None and not (
            math.isfinite(deadline_ms) and deadline_ms > 0
        ):
            raise ValueError(
                f"deadline_ms must be finite and > 0, got {deadline_ms}"
            )
        model = self._model  # one read: the geometry and the answering model
        arr = as_image_batch(images, int(model.num_pixels))
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
        try:
            for index, chunk in enumerate(chunks):
                with self._lock:
                    self._pending_parts += 1
                try:
                    self._scheduler.put(
                        _Part(handle, index, chunk, model),
                        lane=lane_config.name,
                        deadline=deadline,
                        timeout=timeout,
                    )
                except BaseException:
                    with self._lock:
                        self._pending_parts -= 1  # this part never queued
                    raise
                if self.config.workers == 0:
                    # drained per part, not per request: callers are the
                    # only executors, so a full lane would otherwise block
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

    def _executor(self) -> None:
        """Body of an executor thread: the loop, until the server closes.

        Predict failures never escape the loop, so an exception here is a
        bug (a completion callback raising, say): record it so the
        server stops taking traffic instead of queueing for a dead pool.
        """
        try:
            self._run_queued(until_closed=True)
        except BaseException as exc:
            self._failure = exc
            raise

    def _run_queued(self, until_closed: bool = False) -> None:
        """The executor loop: take a batch, predict, answer or fail, account.

        Executor threads run it ``until_closed``: it returns once the
        scheduler is closed and drained.  Under ``workers=0`` each
        submitting thread runs it after queueing a part and returns at
        the first empty heartbeat, possibly having run parts other
        callers queued.  A batch is predicted in runs of parts stamped
        with the same model — one run unless a reload landed while it
        queued.  Models are shared by every caller and take no lock here
        (the encoder guards its own state).  A predict failure fails
        that batch's handles; it is never raised here, where it would
        strand other callers' parts.
        """
        assert self._scheduler is not None
        while True:
            scheduled = self._scheduler.next_batch(
                poll_s=0.1 if until_closed else 0.0
            )
            if scheduled is None:  # closed and drained
                return
            if not scheduled:  # empty heartbeat
                if until_closed:
                    continue
                return
            with self._lock:
                self._stats.record_batch(scheduled.rows)
            try:
                runs = []
                for model, run in groupby(scheduled.items, attrgetter("model")):
                    run = list(run)
                    images = (
                        run[0].images if len(run) == 1
                        else np.concatenate([part.images for part in run])
                    )
                    runs.append(model.predict(images))
                labels = runs[0] if len(runs) == 1 else np.concatenate(runs)
            except Exception as exc:
                self._finish(scheduled, error=ServeError(f"predict failed: {exc!r}"))
            else:
                self._finish(scheduled, labels=labels)

    def _finish(
        self,
        scheduled: ScheduledBatch[_Part],
        labels: np.ndarray | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Answer (``labels``) or fail (``error``) each part of a taken batch.

        Its lane counters are settled first, so a caller that reads the
        stats after its result sees its request counted.  Its parts leave
        the pending count last, whatever a completion callback raises.
        """
        assert self._scheduler is not None
        self._scheduler.settle(scheduled, failed=error is not None)
        try:
            offset = 0
            for part in scheduled.items:
                if error is not None:
                    part.handle._fail(error)
                    continue
                part.handle._complete_part(
                    part.index, labels[offset:offset + part.rows]
                )
                offset += part.rows
        finally:
            with self._cv:
                self._pending_parts -= len(scheduled)
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_pixels(self) -> int | None:
        """Pixels per image the current model expects (after start())."""
        model = self._model
        return None if model is None else int(model.num_pixels)

    @property
    def front_probe(self) -> ProbeResult | None:
        """The current model's readiness-probe result (start() or reload())."""
        return self._front_probe

    @property
    def lanes(self) -> tuple[LaneConfig, ...]:
        """The resolved lane set (after start()); first entry is default."""
        scheduler = self._scheduler
        if scheduler is None:
            return ()
        return tuple(map(scheduler.lane_config, scheduler.lane_names))

    def stats(self) -> ServerStats:
        """A :class:`ServerStats` snapshot of the counters so far.

        Request/batch counters, per-lane scheduler depth and
        served/expired/failed counts, and the process-wide encoder cache
        (entries, table bytes).  The counters run for the server's whole
        life, across reloads.  :meth:`~repro.serve.router.Router.stats`
        adds the fleet keys to make the document ``/stats`` serves.
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

        ``ok`` is True while the server accepts traffic and no executor
        thread has died (see :meth:`_executor`); a server mid-reload
        serves on the current model, so it stays ok.  ``probe`` reports
        the current model's :func:`~repro.serve.probe.readiness_probe`
        result — the same deterministic-predictions check
        ``serve-check`` runs.
        """
        live = sum(thread.is_alive() for thread in self._threads)
        ok = bool(self._started and not self._closed and self._failure is None)
        probe = self._front_probe
        return {
            "ok": ok,
            "status": "ok" if ok else "unavailable",
            "mode": "inproc" if self.config.workers == 0 else "pool",
            "workers": self.config.workers,
            "workers_live": live,
            "generation": self.generation,
            "reloading": self._reloading,
            "lanes": [lane.name for lane in self.lanes],
            "probe": None if probe is None else {
                "median_ms": probe.median_ms,
                "images_per_s": probe.images_per_s,
                "batch": probe.batch,
                "deterministic": probe.deterministic,
            },
        }
