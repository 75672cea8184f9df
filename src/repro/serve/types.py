"""Request/response and configuration types of the serving subsystem.

Everything a caller touches is here: :class:`ServeConfig` (how the
server batches and fans out), :class:`PredictionHandle` (the future a
:meth:`~repro.serve.server.UHDServer.submit` returns),
:class:`ServerStats` (an observability snapshot) and the exception
hierarchy (:class:`ServeError` / :class:`WorkerCrashError`).

The wire protocol between the front-end and its worker processes is
*not* public — it lives in :mod:`repro.serve.worker` as plain picklable
tuples — but the invariant it upholds is: a request handed to
``submit`` is either answered bit-exactly or fails loudly with a
``ServeError``; it is never silently dropped, including across worker
crashes (crashed batches are re-queued onto a fresh worker).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from .histogram import HistogramSnapshot, LatencyHistogram
from .scheduler import LaneConfig, LaneStats

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable, Iterable

    import numpy as np

    from .cache import CacheStats
    from .transport import TransportSnapshot

__all__ = [
    "DeadlineExpiredError",
    "ServeConfig",
    "ServeError",
    "WorkerCrashError",
    "PredictionHandle",
    "ServerStats",
]


class ServeError(RuntimeError):
    """The serving layer could not answer a request (startup, shutdown,
    worker bootstrap failure, or a request failed after retries)."""


class WorkerCrashError(ServeError):
    """A worker process died and the request exhausted its restart budget."""


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
        Worker *processes* to spawn.  ``0`` selects the synchronous
        in-process fallback (right for 1-core hosts and tests): requests
        run on the caller's thread through the front-end's own warm
        model, still chunked to ``max_batch``.
    max_batch:
        Upper bound on images per dispatched batch.  Requests are
        coalesced up to this bound; a single request *larger* than it is
        split into ``max_batch``-sized parts and reassembled in order,
        so the packed kernels always see friendly batch shapes.
    max_wait_ms:
        Micro-batching window: once a batch has its first request, the
        dispatcher waits at most this long for more requests to coalesce
        before flushing a partial batch.  ``0`` flushes immediately
        (lowest latency, least coalescing).
    lanes:
        Named priority lanes (:class:`~repro.serve.scheduler.LaneConfig`)
        the scheduler drains with weighted anti-starvation — e.g. an
        ``interactive`` lane with a 1 ms window next to a ``bulk`` lane
        with a 50 ms window.  The *first* lane is the default
        ``submit`` uses when none is named.  Lane knobs left ``None``
        inherit the server-wide ``max_batch`` / ``max_wait_ms`` /
        ``queue_depth``.  Empty (the default) means one ``"default"``
        lane built from those server-wide knobs — the exact
        pre-scheduler behavior.
    drain_timeout_s:
        How long :meth:`~repro.serve.server.UHDServer.close` (and the
        CLI's SIGTERM/SIGINT handler) waits for in-flight and queued
        requests to finish before failing the stragglers loudly and
        stopping the workers.
    backend:
        Registry backend name every worker re-homes the loaded model
        onto (``None`` keeps the backend recorded in the model file).
        Validated against :func:`repro.api.list_backends` at startup.
    queue_depth:
        Bound on requests waiting in the micro-batching queue;
        ``submit`` blocks (backpressure) when it is full.
    restart_limit:
        Total worker restarts the server will perform before declaring
        a batch failed (:class:`WorkerCrashError`) and refusing to
        respawn further.
    start_method:
        ``multiprocessing`` start method: ``"fork"``, ``"spawn"``,
        ``"forkserver"``, or ``"auto"`` (fork where the platform offers
        it, else spawn).  It also decides how workers get the
        front-end's warm gather tables without rebuilding them:
        ``fork`` children share them copy-on-write; ``spawn`` and
        ``forkserver`` children attach one read-only table file the
        server writes to a temp directory and deletes on close.
    ready_timeout_s:
        How long to wait for every worker's readiness probe at startup
        before failing with :class:`ServeError`.
    probe_batch:
        Images in each worker's readiness self-probe (the same
        deterministic-predictions check ``repro-uhd serve-check`` runs).
    """

    workers: int = 1
    max_batch: int = 64
    max_wait_ms: float = 2.0
    lanes: tuple[LaneConfig, ...] = ()
    backend: str | None = None
    queue_depth: int = 256
    restart_limit: int = 3
    start_method: str = "auto"
    ready_timeout_s: float = 60.0
    probe_batch: int = 8
    drain_timeout_s: float = 10.0

    def effective_lanes(self) -> tuple[LaneConfig, ...]:
        """The fully resolved lane set the scheduler runs.

        Configured lanes with their ``None`` knobs filled from the
        server-wide defaults; or, when no lanes were named, a single
        ``"default"`` lane carrying exactly the server-wide knobs.
        """
        if not self.lanes:
            return (
                LaneConfig(
                    name="default",
                    max_batch=self.max_batch,
                    max_wait_ms=self.max_wait_ms,
                    queue_depth=self.queue_depth,
                ),
            )
        return tuple(
            lane.resolved(self.max_batch, self.max_wait_ms, self.queue_depth)
            for lane in self.lanes
        )

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.restart_limit < 0:
            raise ValueError(
                f"restart_limit must be >= 0, got {self.restart_limit}"
            )
        if self.start_method not in ("auto", "fork", "spawn", "forkserver"):
            raise ValueError(
                "start_method must be one of 'auto', 'fork', 'spawn', "
                f"'forkserver', got {self.start_method!r}"
            )
        if self.probe_batch < 1:
            raise ValueError(f"probe_batch must be >= 1, got {self.probe_batch}")
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
    configured lane (depth, served, expired-deadline counts) and
    ``cache`` the process-wide :class:`~repro.serve.cache.CacheStats`
    (encoder entries, gather-table bytes, live table files).  A
    deployment's ``/stats`` document is the :meth:`merge` of its
    replicas' snapshots serialized via :meth:`as_dict`, plus the fleet
    keys (see :meth:`~repro.serve.router.ModelDeployment.stats`).
    """

    mode: str  #: ``"pool"`` (worker processes) or ``"inproc"`` (fallback)
    workers: int
    requests: int  #: submit() calls accepted
    images: int  #: total images across those requests
    batches: int  #: dispatched batches (pool) / executed chunks (inproc)
    max_batch_seen: int
    mean_batch_size: float
    restarts: int  #: worker respawns performed (crash recovery)
    worker_probe_ms: tuple[float, ...]  #: readiness-probe latency per worker
    #: gather-table builds each worker performed during bootstrap — 0 means
    #: the worker *attached* the front-end's tables (fork copy-on-write, or
    #: the server's table file under spawn/forkserver) instead of building
    worker_table_builds: tuple[int, ...] = ()
    #: per-lane scheduler counters, in lane declaration order
    lanes: tuple[LaneStats, ...] = ()
    #: request parts failed on an expired deadline (sum over lanes)
    expired: int = 0
    #: process-wide encoder-cache snapshot (entries, table bytes, table files)
    cache: "CacheStats | None" = None
    #: per-transport wire counters (connections, frames, bytes, malformed),
    #: one row per transport kind fronting the router — a bare server's
    #: own snapshot has none (transports front a Router, never a server)
    transports: "tuple[TransportSnapshot, ...]" = ()

    @classmethod
    def merge(
        cls,
        parts: "Iterable[ServerStats]",
        *,
        mode: str,
        transports: "tuple[TransportSnapshot, ...]" = (),
    ) -> "ServerStats":
        """One snapshot for several servers (a deployment's replicas).

        Counters are summed and each lane's rows are joined with
        :meth:`LaneStats.merge`, so per-lane histograms merge losslessly
        across replicas and retired generations.  ``max_batch_seen`` is
        the maximum, ``mean_batch_size`` is re-weighted by batch count,
        and the per-worker tuples are concatenated.
        """
        parts = list(parts)
        batches = sum(p.batches for p in parts)
        batched = sum(round(p.mean_batch_size * p.batches) for p in parts)
        by_lane: dict[str, list[LaneStats]] = {}
        for part in parts:
            for lane in part.lanes:
                by_lane.setdefault(lane.name, []).append(lane)
        lanes = tuple(LaneStats.merge(rows) for rows in by_lane.values())
        return cls(
            mode=mode,
            workers=sum(p.workers for p in parts),
            requests=sum(p.requests for p in parts),
            images=sum(p.images for p in parts),
            batches=batches,
            max_batch_seen=max((p.max_batch_seen for p in parts), default=0),
            mean_batch_size=batched / batches if batches else 0.0,
            restarts=sum(p.restarts for p in parts),
            worker_probe_ms=tuple(ms for p in parts for ms in p.worker_probe_ms),
            worker_table_builds=tuple(
                n for p in parts for n in p.worker_table_builds
            ),
            lanes=lanes,
            expired=sum(lane.expired for lane in lanes),
            cache=next((p.cache for p in parts if p.cache is not None), None),
            transports=transports,
        )

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
    ``max_batch``) that complete out of order on different workers;
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

        Runs on whichever thread completes the request — the collector
        thread in pool mode, the submitting thread in-process — or
        immediately on the calling thread when already done.  This is
        what lets an event-loop transport hand off a request without
        parking a thread on :meth:`result`; the callback must not block.
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
        or the failure (:class:`WorkerCrashError` / :class:`ServeError`)
        if it cannot complete.
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
    restarts: int = 0
    probe_ms: dict[int, float] = field(default_factory=dict)
    table_builds: dict[int, int] = field(default_factory=dict)
    #: inproc-mode per-lane tallies keyed by lane name: [parts, rows, batches]
    lane_served: dict[str, list[int]] = field(default_factory=dict)
    #: inproc-mode per-lane latency recorders (service time per request —
    #: there is no queue to wait in, so this is the whole latency)
    lane_hist: dict[str, LatencyHistogram] = field(default_factory=dict)

    def record_batch(self, rows: int) -> None:
        self.batches += 1
        self.batched_images += rows
        self.max_batch_seen = max(self.max_batch_seen, rows)

    def record_lane(
        self,
        lane: str,
        parts: int,
        rows: int,
        batches: int,
        latency_s: float | None = None,
    ) -> None:
        tally = self.lane_served.setdefault(lane, [0, 0, 0])
        tally[0] += parts
        tally[1] += rows
        tally[2] += batches
        if latency_s is not None:
            hist = self.lane_hist.get(lane)
            if hist is None:
                hist = self.lane_hist.setdefault(lane, LatencyHistogram())
            hist.record(latency_s)

    def inproc_lane_stats(
        self, lanes: tuple[LaneConfig, ...]
    ) -> tuple[LaneStats, ...]:
        """Synthesized lane counters for the queue-less in-process mode."""
        stats = []
        for lane in lanes:
            parts, rows, batches = self.lane_served.get(lane.name, (0, 0, 0))
            hist = self.lane_hist.get(lane.name)
            stats.append(
                LaneStats(
                    name=lane.name,
                    depth=0,
                    queued_rows=0,
                    submitted=parts,
                    served=parts,
                    served_rows=rows,
                    batches=batches,
                    expired=0,
                    latency=(
                        hist.snapshot() if hist is not None
                        else HistogramSnapshot.empty()
                    ),
                )
            )
        return tuple(stats)

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
            restarts=self.restarts,
            worker_probe_ms=tuple(
                self.probe_ms[k] for k in sorted(self.probe_ms)
            ),
            worker_table_builds=tuple(
                self.table_builds[k] for k in sorted(self.table_builds)
            ),
            lanes=lanes,
            expired=sum(lane.expired for lane in lanes),
            cache=cache,
        )
