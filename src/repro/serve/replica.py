"""One serving replica: a :class:`UHDServer` plus lifecycle and load state.

A replica is the router's unit of capacity *and* of replacement.  Each
one owns a full, independent :class:`~repro.serve.server.UHDServer`
(its own lanes, worker pool, and table file, if any) warm-started
from a model file; the process-wide
:class:`~repro.serve.cache.EncoderCache` still deduplicates the
expensive encoder state, so N replicas of one model geometry share one
set of gather tables exactly like N workers of one server do.

Lifecycle::

    starting ──(readiness probe passes)──► ready ──► draining ──► retired
        │                                    │
        └── failed (bootstrap error)         └── failed (server died)

State transitions are owned by the :class:`~repro.serve.router.ModelDeployment`
holding the replica (under its lock); a replica object itself only
carries the state and the in-flight counter the deployment's
least-loaded dispatch and drain logic read.

``RoutedHandle`` is the future the router returns: it resolves exactly
like the :class:`~repro.serve.types.PredictionHandle` it wraps and
additionally releases its replica's in-flight slot exactly once when
the request finishes — which is what makes "drain = wait for in-flight
to reach zero, then close" correct during a rolling hot reload.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable

from .server import UHDServer
from .types import ServeConfig

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Replica", "RoutedHandle"]

#: the states a replica moves through; see the module docstring diagram
REPLICA_STATES = ("starting", "ready", "draining", "retired", "failed")


class Replica:
    """One generation-stamped server instance inside a replica group.

    ``generation`` is the deployment-level model generation this replica
    was started from (bumped by every hot reload); ``slot`` is a unique,
    never-reused index within its deployment, so ``name`` identifies one
    concrete server instance across the deployment's whole history.
    """

    def __init__(
        self,
        model_id: str,
        generation: int,
        slot: int,
        model_path: Any,
        config: ServeConfig,
    ) -> None:
        self.model_id = model_id
        self.generation = generation
        self.slot = slot
        self.model_path = str(model_path)
        self.server = UHDServer(self.model_path, config)
        #: lifecycle state, owned (read AND written) by the deployment lock
        self.state = "starting"
        #: requests currently routed here, owned by the deployment lock
        self.inflight = 0
        self.started_at: float | None = None
        self.error: str | None = None

    @property
    def name(self) -> str:
        """Stable identity, e.g. ``"mnist#g2.r3"`` (model, generation, slot)."""
        return f"{self.model_id}#g{self.generation}.r{self.slot}"

    def start(self) -> "Replica":
        """Warm-start the underlying server (blocks on its readiness probe)."""
        self.server.start()
        self.started_at = time.monotonic()
        return self

    def close(self, drain_timeout: float | None = None) -> None:
        """Close the underlying server (drains its queues up to the window)."""
        self.server.close(drain_timeout)

    def summary(self, stats: Any = None) -> dict:
        """Per-replica stats row for deployment-level aggregation.

        ``stats`` lets a caller that already fetched this replica's
        :meth:`UHDServer.stats` (the deployment does, to merge lane
        histograms in the same pass) avoid a second snapshot.
        """
        if stats is None:
            stats = self.server.stats()
        return {
            "name": self.name,
            "generation": self.generation,
            "state": self.state,
            "inflight": self.inflight,
            "model_path": self.model_path,
            "workers": stats.workers,
            "requests": stats.requests,
            "images": stats.images,
            "batches": stats.batches,
            "mean_batch_size": stats.mean_batch_size,
            "restarts": stats.restarts,
            "expired": stats.expired,
        }


class RoutedHandle:
    """Future for one routed request: the wrapped handle plus slot release.

    Resolves exactly like the underlying
    :class:`~repro.serve.types.PredictionHandle`; additionally releases
    the replica's in-flight slot exactly once when the request reaches a
    terminal state (labels delivered or a non-timeout failure).  A
    :class:`TimeoutError` from :meth:`result` does **not** release — the
    request is still running on its replica, and calling ``result``
    again later resolves (and releases) normally.  An abandoned handle
    keeps its slot until the replica's drain window expires, which only
    delays (never breaks) a drain: ``UHDServer.close`` drains queued
    work on its own.
    """

    def __init__(
        self, handle: Any, replica: Replica, release: Callable[[Replica], None]
    ) -> None:
        self._handle = handle
        self._replica = replica
        self._release = release
        self._released = False
        self._lock = threading.Lock()

    @property
    def model_id(self) -> str:
        return self._replica.model_id

    @property
    def replica_name(self) -> str:
        return self._replica.name

    @property
    def rows(self) -> int:
        return self._handle.rows

    def done(self) -> bool:
        """Whether :meth:`result` would return (or raise) without blocking."""
        return self._handle.done()

    def add_done_callback(self, callback: Callable[["RoutedHandle"], None]) -> None:
        """Invoke ``callback(self)`` once the request reaches a terminal state.

        Delegates to the wrapped handle; the callback receives *this*
        handle so that calling :meth:`result` inside it releases the
        replica slot as usual.
        """
        self._handle.add_done_callback(lambda _inner: callback(self))

    def _release_once(self) -> None:
        with self._lock:
            if self._released:
                return
            self._released = True
        self._release(self._replica)

    def result(self, timeout: float | None = None) -> "np.ndarray":
        """Predicted labels in submit order (see ``PredictionHandle.result``)."""
        try:
            labels = self._handle.result(timeout)
        except TimeoutError:
            raise  # still in flight: the slot stays held
        except BaseException:
            self._release_once()
            raise
        self._release_once()
        return labels
