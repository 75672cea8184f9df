"""Multi-model routing: one server per model generation, hot reload.

This is the fleet layer above :class:`~repro.serve.server.UHDServer`.
A :class:`Router` owns named :class:`ModelDeployment`\\ s; each
deployment maps a model-id to **one** server for its current model
generation (capacity is that server's ``workers``) and provides:

* **one stats document per deployment** — one
  :meth:`~repro.serve.types.ServerStats.merge` over the current server,
  any older servers still draining, *plus* an accumulator carried over
  from retired generations, so a hot reload never resets a
  deployment's totals or latency histograms;
* **hot reload** — ``reload(model_id, path)`` boots the next model
  *generation* behind its readiness probe, swaps it in, then drains and
  closes the old server (add-before-remove), so a reload never drops a
  request.

Bit-exactness (contract 5 extended): the router only *routes*.  Every
generation warm-starts from a saved model file, so the labels for a
batch are bit-exact with ``load_model(path).predict(batch)`` for the
file the serving generation started from.

Locking: one condition variable per deployment guards the server
references and the per-server count of submits still *entering* a
server; servers are never called while holding it.  The router itself
is lock-free apart from a start/close guard — the deployment map is
immutable after construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from .server import UHDServer
from .types import PredictionHandle, ServeConfig, ServeError, ServerStats

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["DeploymentSpec", "ModelDeployment", "Router"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Declarative shape of one model deployment.

    ``serve`` configures the deployment's server; its ``workers`` is the
    deployment's capacity.
    """

    model_path: str
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_path", str(self.model_path))


class ModelDeployment:
    """One model-id's server: dispatch, health, and reload.

    Created (and started) by :class:`Router`; all public methods are
    thread-safe.  The generation counter is 1 once started and bumps on
    every successful :meth:`reload`.
    """

    def __init__(self, model_id: str, spec: DeploymentSpec) -> None:
        self.model_id = model_id
        self.spec = spec
        self.model_path = spec.model_path
        self.generation = 0
        #: the current generation's server (None before start / after close)
        self._server: UHDServer | None = None
        #: servers swapped out or closing, not yet merged into _retired
        self._draining: list[UHDServer] = []
        #: submits still inside ``server.submit`` (which may block on
        #: backpressure), per server; a drain waits for its count to clear
        self._entering: dict[UHDServer, int] = {}
        self._cv = threading.Condition()
        self._started = False
        self._closed = False
        self._reloading = False
        #: counters of every retired server, merged as they retire (see
        #: ServerStats.merge) so a hot reload never resets the totals or
        #: the latency distributions; the executor gauge is zeroed first
        self._retired: ServerStats | None = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ModelDeployment":
        """Boot generation 1 (blocks on its readiness probe)."""
        with self._cv:
            if self._started:
                return self
            self._started = True
        try:
            self._install(self._boot(self.model_path), self.model_path)
        except ServeError:
            with self._cv:
                self._closed = True
            raise
        return self

    def _boot(self, path: str) -> UHDServer:
        """Start one server for ``path``; on failure close it and raise."""
        server = UHDServer(path, self.spec.serve)
        try:
            server.start()
        except BaseException as exc:
            try:
                server.close(0.0)
            except Exception:
                pass
            if not isinstance(exc, Exception):
                raise
            raise ServeError(
                f"deployment {self.model_id!r}: server start failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return server

    def _install(self, server: UHDServer, path: str) -> UHDServer | None:
        """Make ``server`` (booted from ``path``) the next generation.

        Returns the server it replaced, now draining.  If the deployment
        closed while ``server`` was booting, ``server`` is closed instead
        and :class:`ServeError` raised, so a close that races a start or
        reload never leaks a server.
        """
        with self._cv:
            closed = self._closed
            old = self._server
            if not closed:
                self._server = server
                self.generation += 1
                self.model_path = path
                if old is not None:
                    self._draining.append(old)
        if closed:
            server.close(0.0)
            raise ServeError(f"deployment {self.model_id!r} is closed")
        return old

    def close(
        self, deadline: float | None = None, drain_timeout: float | None = None
    ) -> None:
        """Drain and retire the current server.

        The server gets its own ``drain_timeout_s`` (or ``drain_timeout``
        if given), additionally capped by ``deadline`` (a
        ``time.monotonic()`` instant) when the router imposes a shared
        one.  An old server a concurrent :meth:`reload` is draining stays
        that reload's to retire.
        """
        with self._cv:
            self._closed = True
            server, self._server = self._server, None
            if server is not None:
                self._draining.append(server)
        if server is not None:
            self._retire(server, deadline, drain_timeout)

    # ------------------------------------------------------------ dispatch
    def submit(
        self,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> PredictionHandle:
        """Submit one request to the current generation's server.

        A dead server raises :class:`ServeError` until a :meth:`reload`
        replaces it.
        """
        with self._cv:
            if self._closed:
                raise ServeError(f"deployment {self.model_id!r} is closed")
            server = self._server
            if server is None:
                raise ServeError(f"deployment {self.model_id!r} was never started")
            self._entering[server] = self._entering.get(server, 0) + 1
        try:
            return server.submit(
                images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
            )
        finally:
            with self._cv:
                self._entering[server] -= 1
                if not self._entering[server]:
                    del self._entering[server]
                    self._cv.notify_all()

    def predict(
        self,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> "np.ndarray":
        return self.submit(
            images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
        ).result(timeout)

    @property
    def num_pixels(self) -> int | None:
        """Pixel geometry of the currently served model (for raw decode)."""
        with self._cv:
            server = self._server
        return None if server is None else server.num_pixels

    # ------------------------------------------------------------ reload
    def reload(self, model_path: str | None = None) -> dict:
        """Hot reload: swap in a fresh generation, add-before-remove.

        Boots one server from ``model_path`` (current path if ``None``)
        behind its readiness probe, makes it current, then drains and
        closes the old one.  If the new server fails to start, the old
        generation keeps serving.
        """
        t0 = time.monotonic()
        with self._cv:
            if self._closed:
                raise ServeError(f"deployment {self.model_id!r} is closed")
            if not self._started:
                raise ServeError(f"deployment {self.model_id!r} was never started")
            if self._reloading:
                raise ServeError(
                    f"reload already in progress for {self.model_id!r}"
                )
            self._reloading = True
            from_generation = self.generation
        path = self.model_path if model_path is None else str(model_path)
        try:
            fresh = self._boot(path)  # raises -> abort, old gen serves on
            old = self._install(fresh, path)
            if old is not None:
                self._retire(old)
        finally:
            with self._cv:
                self._reloading = False
        return {
            "model": self.model_id,
            "path": path,
            "from_generation": from_generation,
            "to_generation": from_generation + 1,
            "duration_s": time.monotonic() - t0,
        }

    def _retire(
        self,
        server: UHDServer,
        deadline: float | None = None,
        drain_timeout: float | None = None,
    ) -> None:
        """Wait out submits entering ``server``, close it, merge its stats.

        ``server`` is already out of rotation, so no new submit reaches
        it; one that read it just before the swap may still be blocked
        on backpressure inside ``server.submit``.  Waiting for those
        before ``server.close`` is what makes reloads zero-drop, and
        ``close`` drains every part the server accepted.  Both waits
        share the server's ``drain_timeout_s`` (and ``deadline``).
        """
        window = (
            server.config.drain_timeout_s if drain_timeout is None else drain_timeout
        )
        drain_deadline = time.monotonic() + max(0.0, window)
        if deadline is not None:
            drain_deadline = min(drain_deadline, deadline)
        with self._cv:
            while self._entering.get(server):
                remaining = drain_deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
        # close outside the lock; the server drains its own queues
        try:
            server.close(max(0.0, drain_deadline - time.monotonic()))
        except Exception:
            pass
        final = replace(server.stats(), workers=0)
        with self._cv:
            # merged only by the caller that removes it from the list
            if server in self._draining:
                self._draining.remove(server)
                retired = [final] if self._retired is None else [self._retired, final]
                self._retired = ServerStats.merge(retired, mode=self._mode)

    # ------------------------------------------------------------ health/stats
    def healthz(self) -> dict:
        """The current server's ``healthz()`` plus the deployment keys.

        ``ok`` while the deployment is started, not closed, and its
        server is healthy — a deployment mid-reload keeps serving on the
        old generation, so it stays healthy.
        """
        with self._cv:
            server = self._server
            alive = self._started and not self._closed
            head = {
                "model": self.model_id,
                "generation": self.generation,
                "reloading": self._reloading,
            }
        health = server.healthz() if server is not None else {}
        ok = bool(alive and health.get("ok"))
        return {
            **health,
            **head,
            "ok": ok,
            "status": "ok" if ok else "unavailable",
        }

    @property
    def _mode(self) -> str:
        return "inproc" if self.spec.serve.workers == 0 else "pool"

    def snapshot(self, transports: tuple = ()) -> tuple[ServerStats, dict]:
        """The merged :class:`ServerStats` of the deployment, plus its fleet keys.

        The snapshot is one :meth:`ServerStats.merge` over the current
        server, any draining ones and the retired generations, so
        counters and per-lane latency histograms carry across hot
        reloads without loss.  ``transports`` are the wire counters of
        the router in front.  The fleet dict holds ``model``, ``path``
        and ``generation``.
        """
        with self._cv:
            servers = [self._server] if self._server is not None else []
            servers += self._draining
            retired = [] if self._retired is None else [self._retired]
            fleet = {
                "model": self.model_id,
                "path": self.model_path,
                "generation": self.generation,
            }
        merged = ServerStats.merge(
            [s.stats() for s in servers] + retired,
            mode=self._mode,
            transports=tuple(transports),
        )
        return merged, fleet

    def stats(self, transports: tuple = ()) -> dict:
        """The deployment's stats document (``GET /models/<id>/stats``).

        The :meth:`ServerStats.as_dict` keys of :meth:`snapshot`'s merged
        counters, plus its fleet keys — the one stats shape the serving
        layer has.
        """
        merged, fleet = self.snapshot(transports)
        return {**merged.as_dict(), **fleet}

    def listing(self) -> dict:
        """Compact row for ``GET /models``."""
        health = self.healthz()
        return {
            "model": self.model_id,
            "path": self.model_path,
            "generation": health["generation"],
            "status": health["status"],
            "reloading": health["reloading"],
        }


class Router:
    """Front door for a model zoo: named deployments, one dispatch API.

    ``deployments`` maps model-id -> :class:`DeploymentSpec` (a bare
    path string is shorthand for a spec with the default
    :class:`ServeConfig`).  Ids become URL path segments
    (``/models/<id>/predict``), so they must be non-empty and
    slash-free.  The deployment map is fixed at construction; what
    *changes* at runtime is each deployment's model generation, via
    :meth:`reload`.
    """

    def __init__(
        self, deployments: Mapping[str, "DeploymentSpec | str"]
    ) -> None:
        if not deployments:
            raise ValueError("Router needs at least one deployment")
        self._deployments: dict[str, ModelDeployment] = {}
        for model_id, spec in deployments.items():
            if not model_id or "/" in model_id:
                raise ValueError(
                    f"model id must be non-empty and slash-free, got {model_id!r}"
                )
            if not isinstance(spec, DeploymentSpec):
                spec = DeploymentSpec(model_path=str(spec))
            self._deployments[model_id] = ModelDeployment(model_id, spec)
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        #: wire counters of transports fronting this router (attach_transport)
        self._transports: list[Any] = []

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "Router":
        """Start every deployment; their servers boot concurrently."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServeError("router is closed")
            self._started = True
        errors: dict[str, str] = {}

        def boot(deployment: ModelDeployment) -> None:
            try:
                deployment.start()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[deployment.model_id] = f"{type(exc).__name__}: {exc}"

        threads = [
            threading.Thread(target=boot, args=(d,), name=f"uhd-deploy-{d.model_id}")
            for d in self._deployments.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            self.close(drain_timeout=0.0)
            raise ServeError(f"router start failed: {errors}")
        return self

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain every deployment **concurrently** under a shared deadline.

        The deadline is ``now + max`` over the deployments' own
        ``drain_timeout_s`` (or the explicit ``drain_timeout``), so total
        shutdown is bounded by the slowest single deployment — not the
        sum of all drain windows.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        deployments = list(self._deployments.values())
        if drain_timeout is None:
            window = max(
                (d.spec.serve.drain_timeout_s for d in deployments), default=0.0
            )
        else:
            window = drain_timeout
        deadline = time.monotonic() + max(0.0, window)
        threads = [
            threading.Thread(
                target=d.close,
                args=(deadline, drain_timeout),
                name=f"uhd-close-{d.model_id}",
            )
            for d in deployments
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ dispatch
    @property
    def deployments(self) -> Mapping[str, ModelDeployment]:
        """Read-only view of the deployment map (insertion-ordered)."""
        return dict(self._deployments)

    @property
    def default_model(self) -> str:
        """First declared model-id; serves bare ``/predict`` for one-model routers."""
        return next(iter(self._deployments))

    def deployment(self, model_id: str) -> ModelDeployment:
        try:
            return self._deployments[model_id]
        except KeyError:
            known = ", ".join(sorted(self._deployments))
            raise ValueError(
                f"unknown model {model_id!r} (serving: {known})"
            ) from None

    def submit(
        self,
        model_id: str,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> PredictionHandle:
        return self.deployment(model_id).submit(
            images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
        )

    def predict(
        self,
        model_id: str,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> "np.ndarray":
        return self.deployment(model_id).predict(
            images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
        )

    def reload(self, model_id: str, model_path: str | None = None) -> dict:
        """Hot reload of one deployment (see ``ModelDeployment.reload``)."""
        return self.deployment(model_id).reload(model_path)

    # ------------------------------------------------------------ health/stats
    def models(self) -> list[dict]:
        """Listing rows for every deployment (``GET /models``)."""
        return [d.listing() for d in self._deployments.values()]

    def healthz(self) -> dict:
        """Router readiness: healthy iff every deployment is healthy."""
        deployments = [d.healthz() for d in self._deployments.values()]
        with self._lock:
            alive = self._started and not self._closed
        ok = alive and all(d["ok"] for d in deployments)
        return {
            "ok": bool(ok),
            "status": "ok" if ok else "unavailable",
            "deployments": len(deployments),
            "models": deployments,
        }

    def attach_transport(self, stats: Any) -> None:
        """Register a :class:`~repro.serve.transport.TransportStats`.

        Transports call this from ``start()`` so their wire counters
        (connections, frames, bytes, malformed) surface in every stats
        document and in ``/metrics``.  Counters persist after the
        transport closes (they are totals); attaching the same object
        twice is a no-op.
        """
        with self._lock:
            if all(existing is not stats for existing in self._transports):
                self._transports.append(stats)

    def transport_stats(self) -> tuple:
        """Per-kind merged wire counters of every attached transport."""
        from .transport import TransportSnapshot

        with self._lock:
            transports = list(self._transports)
        return TransportSnapshot.merged(t.snapshot() for t in transports)

    def stats(self, model_id: str | None = None) -> dict:
        """One deployment's stats document, with this router's wire counters.

        ``model_id=None`` means the default model, the same way bare
        ``/predict`` predicts on it: bare ``GET /stats`` and
        ``GET /models/<id>/stats`` serve this one shape.
        """
        deployment = self.deployment(
            self.default_model if model_id is None else model_id
        )
        return deployment.stats(self.transport_stats())
