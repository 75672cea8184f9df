"""Multi-model routing: one server per model id, fleet documents.

This is the fleet layer above :class:`~repro.serve.server.UHDServer`
(transports -> ``Router`` -> ``UHDServer``).  A :class:`Router` maps
each model id to **one** server for its whole life (capacity is that
server's ``workers``) and provides:

* **dispatch** by model id (``submit`` / ``predict``);
* **hot reload** — ``reload(model_id, path)`` is
  :meth:`UHDServer.reload <repro.serve.server.UHDServer.reload>`: the
  server loads and probes the next model generation, then swaps it in
  place, so a reload never drops a request and never resets a
  deployment's counters or latency histograms;
* **the fleet keys** — ``stats``, ``models`` and ``healthz`` add each
  deployment's model id, path and generation to its server's document.

Bit-exactness (contract 5 extended): the router only *routes*.  Every
generation warm-starts from a saved model file, so the labels for a
request are bit-exact with ``load_model(path).predict(batch)`` for the
file of the generation current when it was submitted.

The server map is immutable after construction; one lock guards the
router's start/close state and its wire counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from .server import UHDServer
from .transport import TransportStats
from .types import PredictionHandle, ServeConfig, ServeError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["DeploymentSpec", "Router"]


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


class Router:
    """Front door for a model zoo: named deployments, one dispatch API.

    ``deployments`` maps model-id -> :class:`DeploymentSpec` (a bare
    path string is shorthand for a spec with the default
    :class:`ServeConfig`); each becomes one :class:`UHDServer`.  Ids
    become URL path segments (``/models/<id>/predict``), so they must
    be non-empty and slash-free.  The deployment map is fixed at
    construction; what *changes* at runtime is each server's model
    generation, via :meth:`reload`.
    """

    def __init__(
        self, deployments: Mapping[str, "DeploymentSpec | str"]
    ) -> None:
        if not deployments:
            raise ValueError("Router needs at least one deployment")
        self._servers: dict[str, UHDServer] = {}
        for model_id, spec in deployments.items():
            if not model_id or "/" in model_id:
                raise ValueError(
                    f"model id must be non-empty and slash-free, got {model_id!r}"
                )
            if not isinstance(spec, DeploymentSpec):
                spec = DeploymentSpec(model_path=str(spec))
            self._servers[model_id] = UHDServer(spec.model_path, spec.serve)
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        #: wire counters per transport kind fronting this router
        self._wires: dict[str, TransportStats] = {}

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "Router":
        """Start every deployment's server; they boot concurrently."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise ServeError("router is closed")
            self._started = True
        errors: dict[str, str] = {}

        def boot(model_id: str, server: UHDServer) -> None:
            try:
                server.start()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[model_id] = f"{type(exc).__name__}: {exc}"

        threads = [
            threading.Thread(
                target=boot,
                args=(model_id, server),
                name=f"uhd-deploy-{model_id}",
            )
            for model_id, server in self._servers.items()
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
        """Drain every deployment's server **concurrently**.

        Each server drains for its own ``drain_timeout_s`` (or the
        explicit ``drain_timeout``), so total shutdown is bounded by the
        slowest single deployment — not the sum of all drain windows.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        threads = [
            threading.Thread(
                target=server.close,
                args=(drain_timeout,),
                name=f"uhd-close-{model_id}",
            )
            for model_id, server in self._servers.items()
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
    def deployments(self) -> Mapping[str, UHDServer]:
        """Read-only view of model id -> server (insertion-ordered)."""
        return dict(self._servers)

    @property
    def default_model(self) -> str:
        """First declared model-id; serves bare ``/predict`` for one-model routers."""
        return next(iter(self._servers))

    def deployment(self, model_id: str) -> UHDServer:
        """The server behind ``model_id``; ``ValueError`` naming the known ids."""
        try:
            return self._servers[model_id]
        except KeyError:
            known = ", ".join(sorted(self._servers))
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
        """Hot reload of one deployment (see :meth:`UHDServer.reload`).

        The report is the server's plus ``model``.
        """
        return {"model": model_id, **self.deployment(model_id).reload(model_path)}

    # ------------------------------------------------------------ health/stats
    def models(self) -> list[dict]:
        """Listing rows for every deployment (``GET /models``)."""
        rows = []
        for model_id in self._servers:
            health = self.healthz(model_id)
            rows.append({
                "model": model_id,
                "path": self._servers[model_id].model_path,
                "generation": health["generation"],
                "status": health["status"],
                "reloading": health["reloading"],
            })
        return rows

    def healthz(self, model_id: str | None = None) -> dict:
        """Readiness of one deployment, or of the router when ``model_id`` is None.

        A deployment's document is its server's ``healthz()`` plus
        ``model``; it is ``ok`` while the server is healthy (a server
        mid-reload serves on the current model, so it stays healthy).
        The router is healthy iff it is started, not closed, and every
        deployment is healthy; its document lists them under ``models``.
        """
        if model_id is not None:
            return {**self.deployment(model_id).healthz(), "model": model_id}
        deployments = [self.healthz(name) for name in self._servers]
        with self._lock:
            alive = self._started and not self._closed
        ok = alive and all(d["ok"] for d in deployments)
        return {
            "ok": bool(ok),
            "status": "ok" if ok else "unavailable",
            "deployments": len(deployments),
            "models": deployments,
        }

    def wire_stats(self, kind: str) -> TransportStats:
        """The wire counters every transport of ``kind`` on this router shares.

        Transports take theirs in ``start()``, so their connections,
        frames, bytes and malformed counts surface in every stats
        document and in ``/metrics``, one entry per kind in first-start
        order.  Counters are totals: they outlive the transports.
        """
        with self._lock:
            return self._wires.setdefault(kind, TransportStats(kind))

    def stats(self, model_id: str | None = None) -> dict:
        """One deployment's stats document, with this router's wire counters.

        The :meth:`~repro.serve.types.ServerStats.as_dict` keys of its
        server's counters (which run across reloads), plus the fleet
        keys ``model``, ``path`` and ``generation``.  ``model_id=None``
        means the default model, the same way bare ``/predict`` predicts
        on it: bare ``GET /stats`` and ``GET /models/<id>/stats`` serve
        this one shape.
        """
        model_id = self.default_model if model_id is None else model_id
        server = self.deployment(model_id)
        with self._lock:
            wires = tuple(wire.snapshot() for wire in self._wires.values())
        stats = replace(server.stats(), transports=wires)
        return {
            **stats.as_dict(),
            "model": model_id,
            "path": server.model_path,
            "generation": server.generation,
        }
