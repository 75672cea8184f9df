"""Request/response and configuration types of the serving subsystem.

Everything a caller touches is here: :class:`ServeConfig` (how the
server batches and fans out), :class:`PredictionHandle` (the future a
:meth:`~repro.serve.server.UHDServer.submit` returns),
:class:`ServerStats` (an observability snapshot) and the exception
hierarchy (:class:`ServeError` / :class:`DeadlineExpiredError`).

The invariant every path upholds: a request handed to ``submit`` is
either answered bit-exactly or fails loudly with a ``ServeError``,
exactly once; it is never silently dropped.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..api.registry import BACKENDS
from .scheduler import LaneConfig, LaneStats

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable

    import numpy as np

    from .cache import CacheStats
    from .transport import TransportSnapshot

__all__ = [
    "DeadlineExpiredError",
    "ServeConfig",
    "ServeError",
    "PredictionHandle",
    "ServerStats",
]


#: request parts a lane queues before ``submit`` blocks (backpressure),
#: for every lane whose :class:`~repro.serve.scheduler.LaneConfig` sets
#: no ``queue_depth`` of its own
QUEUE_DEPTH = 256


class ServeError(RuntimeError):
    """The serving layer could not answer a request (startup, shutdown,
    or a predict that raised)."""


class DeadlineExpiredError(ServeError):
    """The request's deadline passed while it was still queued.

    The scheduler never serves an expired request late: it is removed
    from its lane (mid-queue included) and its handle fails with this
    error, so the caller learns immediately instead of receiving a
    stale answer.  Counted per lane in ``ServerStats.lanes[*].expired``.
    """


@dataclass(frozen=True)
class ServeConfig:
    """How a :class:`~repro.serve.server.UHDServer` batches and fans out.

    Attributes
    ----------
    workers:
        Executor *threads* in the server process.  Each drains the
        scheduler through the one warm model they all share.  ``0``
        runs no thread: the submitting thread drains the same scheduler
        itself (right for 1-core hosts and tests).
    max_batch:
        Upper bound on images per dispatched batch.  Requests are
        coalesced up to this bound; a single request *larger* than it is
        split into ``max_batch``-sized parts and reassembled in order,
        so the packed kernels always see friendly batch shapes.
    max_wait_ms:
        Urgency bound: a lane whose oldest queued request has waited
        longer than this is served before any weighted choice.  It
        never delays a dispatch — an idle executor (or the submitting
        thread under ``workers=0``) takes what is queued at once, and
        requests coalesce only while every executor is busy.
    lanes:
        Named priority lanes (:class:`~repro.serve.scheduler.LaneConfig`)
        the scheduler drains with weighted anti-starvation — e.g. an
        ``interactive`` lane with a 1 ms urgency bound next to a
        ``bulk`` lane with a 50 ms one.  The *first* lane is the default
        ``submit`` uses when none is named.  Lane knobs left ``None``
        inherit the server-wide ``max_batch`` / ``max_wait_ms`` and
        :data:`repro.serve.types.QUEUE_DEPTH`.  Empty (the default) means one
        ``"default"`` lane built from those server-wide values.
    drain_timeout_s:
        How long :meth:`~repro.serve.server.UHDServer.close` (and the
        CLI's SIGTERM/SIGINT handler) waits for in-flight and queued
        requests to finish before failing the still-queued ones loudly
        and stopping the executors.
    backend:
        Backend-table name the server re-homes the loaded model onto
        (``None`` keeps the backend recorded in the model file); one of
        :func:`repro.api.list_backends`.
    """

    workers: int = 1
    max_batch: int = 64
    max_wait_ms: float = 2.0
    lanes: tuple[LaneConfig, ...] = ()
    backend: str | None = None
    drain_timeout_s: float = 10.0

    def effective_lanes(self) -> tuple[LaneConfig, ...]:
        """The fully resolved lane set the scheduler runs.

        Configured lanes with their ``None`` knobs filled from the
        server-wide defaults; or, when no lanes were named, a single
        ``"default"`` lane carrying exactly the server-wide knobs.  The
        same at every executor count.
        """
        lanes = self.lanes or (LaneConfig(name="default"),)
        return tuple(
            lane.resolved(self.max_batch, self.max_wait_ms, QUEUE_DEPTH)
            for lane in lanes
        )

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be None or one of {BACKENDS}, got {self.backend!r}"
            )
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if not isinstance(self.lanes, tuple):
            # keep the config hashable/frozen-friendly; accept any sequence
            object.__setattr__(self, "lanes", tuple(self.lanes))
        names = [lane.name for lane in self.lanes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lane names: {names}")


@dataclass(frozen=True)
class ServerStats:
    """Point-in-time counters of a running server.

    ``mean_batch_size`` is the coalescing health metric: near 1.0 under
    a trickle of traffic, approaching ``max_batch`` under load.
    ``lanes`` carries one :class:`~repro.serve.scheduler.LaneStats` per
    configured lane (depth, served, expired and failed counts) and
    ``cache`` the process-wide :class:`~repro.serve.cache.CacheStats`
    (encoder entries, gather-table bytes).  A deployment's ``/stats``
    document is its server's snapshot serialized via :meth:`as_dict`,
    plus the fleet keys (see :meth:`~repro.serve.router.Router.stats`).
    """

    mode: str  #: ``"pool"`` (executor threads) or ``"inproc"`` (caller drains)
    workers: int  #: executor threads
    requests: int  #: submit() calls accepted
    images: int  #: total images across those requests
    batches: int  #: batches the scheduler handed to an executor
    max_batch_seen: int
    mean_batch_size: float
    #: always 0: executors are threads and are never respawned; kept so
    #: readers of the stats document see the same keys
    restarts: int = 0
    #: per-lane scheduler counters, in lane declaration order
    lanes: tuple[LaneStats, ...] = ()
    #: request parts failed on an expired deadline (sum over lanes)
    expired: int = 0
    #: request parts whose batch failed: predict raised, or the server
    #: closed with them still queued (sum over lanes)
    failed: int = 0
    #: process-wide encoder-cache snapshot (entries, table bytes)
    cache: "CacheStats | None" = None
    #: per-transport wire counters (connections, frames, bytes, malformed),
    #: one row per transport kind fronting the router — a bare server's
    #: own snapshot has none (Router.stats adds them)
    transports: "tuple[TransportSnapshot, ...]" = ()

    def as_dict(self) -> dict:
        """A JSON-serializable view (nested dataclasses become dicts).

        Each lane's ``latency`` histogram is rendered through
        :meth:`~repro.serve.histogram.HistogramSnapshot.as_dict` so the
        JSON carries the derived p50/p95/p99 alongside the raw buckets
        — ``asdict`` alone would flatten the snapshot to bare fields and
        drop the quantiles operators actually read.
        """
        data = asdict(self)
        for lane_dict, lane in zip(data["lanes"], self.lanes):
            lane_dict["latency"] = lane.latency.as_dict()
        return data


class PredictionHandle:
    """Future-like handle for one submitted prediction request.

    A request may have been split into several parts (when it exceeded
    ``max_batch``) that complete out of order on different executors;
    :meth:`result` reassembles the label array in the original row
    order.
    """

    def __init__(self, parts: int, rows: int) -> None:
        self._parts_left = parts
        self.rows = rows
        self._results: list["np.ndarray | None"] = [None] * parts
        self._error: BaseException | None = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list["Callable[[PredictionHandle], None]"] = []
        if parts == 0:  # empty request: nothing to wait for
            self._done.set()

    def _complete_part(self, index: int, labels: "np.ndarray") -> None:
        callbacks: list = []
        with self._lock:
            if self._results[index] is None:
                self._results[index] = labels
                self._parts_left -= 1
            if self._parts_left == 0 and not self._done.is_set():
                self._done.set()
                callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fail(self, error: BaseException) -> None:
        callbacks: list = []
        with self._lock:
            if self._error is None:
                self._error = error
            if not self._done.is_set():
                self._done.set()
                callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(
        self, callback: "Callable[[PredictionHandle], None]"
    ) -> None:
        """Invoke ``callback(handle)`` once the request completes (or fails).

        Runs on whichever thread completes the request — the executor
        thread that ran its last part (under ``workers=0``, whichever
        submitting thread drained it) — or immediately on the calling thread
        when already done.  This is what lets the binary transport's
        reader thread go on to the next frame without parking on
        :meth:`result`: the callback queues the reply for the
        connection's writer thread.  The callback must not block.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        """Whether :meth:`result` would return (or raise) without blocking."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> "np.ndarray":
        """Predicted labels, in the submitted row order.

        Blocks up to ``timeout`` seconds (forever when ``None``); raises
        :class:`TimeoutError` if the request has not completed by then,
        or the failure (a :class:`ServeError`) if it cannot complete.
        """
        if not self._done.wait(timeout):
            raise TimeoutError("prediction not completed within timeout")
        if self._error is not None:
            raise self._error
        import numpy as np

        results = [r for r in self._results if r is not None]
        if not results:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(results)


@dataclass
class _StatCounters:
    """Mutable counters behind :class:`ServerStats` (internal)."""

    requests: int = 0
    images: int = 0
    batches: int = 0
    batched_images: int = 0
    max_batch_seen: int = 0

    def record_batch(self, rows: int) -> None:
        self.batches += 1
        self.batched_images += rows
        self.max_batch_seen = max(self.max_batch_seen, rows)

    def snapshot(
        self,
        mode: str,
        workers: int,
        lanes: tuple[LaneStats, ...] = (),
        cache: "CacheStats | None" = None,
    ) -> ServerStats:
        mean = self.batched_images / self.batches if self.batches else 0.0
        return ServerStats(
            mode=mode,
            workers=workers,
            requests=self.requests,
            images=self.images,
            batches=self.batches,
            max_batch_seen=self.max_batch_seen,
            mean_batch_size=mean,
            lanes=lanes,
            expired=sum(lane.expired for lane in lanes),
            failed=sum(lane.failed for lane in lanes),
            cache=cache,
        )
