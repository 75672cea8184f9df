"""Multi-model routing: replica groups and rolling hot reload.

This is the fleet layer above :class:`~repro.serve.server.UHDServer`.
A :class:`Router` owns named :class:`ModelDeployment`\\ s; each
deployment maps a model-id to a **replica group** of N independent
servers (each with its own lanes, worker pool, and table file, if
any) and provides:

* **least-loaded dispatch** — every request goes to the ready replica
  with the fewest in-flight requests, with transparent failover to a
  sibling if a replica's server has died (the PR-3 crash-respawn story,
  generalized from workers within one server to servers within a group);
* **one stats document per deployment** — one
  :meth:`~repro.serve.types.ServerStats.merge` over the live replicas
  *plus* an accumulator carried over from retired generations, so a hot
  reload never resets a deployment's totals or latency histograms;
* **rolling hot reload** — ``reload(model_id, path)`` brings up a fresh
  model *generation* one replica at a time behind the readiness probe
  (start new → ready → shift traffic → drain one old → retire it),
  add-before-remove, so the group never drops below its configured
  ``min_ready`` floor and in-flight requests are never dropped.

Bit-exactness (contract 5 extended): the router only *routes*.  Every
replica warm-starts from the same saved model file, so the labels for a
batch are bit-exact with ``load_model(path).predict(batch)`` no matter
which replica — or which generation started from that file — served it.

Locking: one condition variable per deployment guards replica state and
in-flight counters; servers are never called while holding it.  The
router itself is lock-free apart from a start/close guard — the
deployment map is immutable after construction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from .replica import Replica, RoutedHandle
from .types import ServeConfig, ServeError, ServerStats

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["DeploymentSpec", "ModelDeployment", "Router"]


@dataclass(frozen=True)
class DeploymentSpec:
    """Declarative shape of one model deployment.

    ``min_ready`` is the rolling-reload floor: the replica group never
    intentionally drops below this many ready replicas (reload is
    add-before-remove, so with a healthy group it actually never drops
    below ``replicas``), and ``healthz`` reports unhealthy only when
    the ready count falls under it.
    """

    model_path: str
    replicas: int = 1
    min_ready: int = 1
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "model_path", str(self.model_path))
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if not 1 <= self.min_ready <= self.replicas:
            raise ValueError(
                f"min_ready must be in [1, replicas={self.replicas}], "
                f"got {self.min_ready}"
            )


class ModelDeployment:
    """One model-id's replica group: dispatch, health, and reload.

    Created (and started) by :class:`Router`; all public methods are
    thread-safe.  The generation counter starts at 1 and bumps on every
    successful :meth:`reload`; replica slots are never reused, so
    ``mnist#g2.r3`` names one concrete server for the deployment's whole
    lifetime.
    """

    def __init__(self, model_id: str, spec: DeploymentSpec) -> None:
        self.model_id = model_id
        self.spec = spec
        self.model_path = spec.model_path
        self.generation = 0
        self._replicas: list[Replica] = []
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._next_slot = 0
        self._started = False
        self._closed = False
        self._reloading = False
        self._retired_generations = 0
        #: counters of every retired replica, merged as they retire (see
        #: ServerStats.merge) so a hot reload never resets the totals or
        #: the latency distributions; worker gauges are zeroed first
        self._retired: ServerStats | None = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ModelDeployment":
        """Bring up the full replica group (generation 1), concurrently."""
        with self._cv:
            if self._started:
                return self
            self._started = True
            self.generation = 1
        fresh = [self._new_replica(1, self.model_path) for _ in range(self.spec.replicas)]
        try:
            self._start_replicas(fresh)
        except ServeError:
            with self._cv:
                self._closed = True
            raise
        with self._cv:
            self._replicas.extend(fresh)
            self._cv.notify_all()
        return self

    def _new_replica(self, generation: int, path: str) -> Replica:
        with self._cv:
            slot = self._next_slot
            self._next_slot += 1
        return Replica(self.model_id, generation, slot, path, self.spec.serve)

    def _start_replicas(self, fresh: list[Replica]) -> None:
        """Start replicas concurrently; on any failure close them all.

        Concurrency matters even on one core: a replica start mostly
        *waits* (worker bootstrap, readiness probes), so starting a group
        in parallel costs roughly one replica's wall-clock, not N.
        """
        errors: dict[str, str] = {}

        def boot(replica: Replica) -> None:
            try:
                replica.start()
            except BaseException as exc:  # noqa: BLE001 - reported below
                replica.error = f"{type(exc).__name__}: {exc}"
                errors[replica.name] = replica.error

        threads = [
            threading.Thread(target=boot, args=(r,), name=f"uhd-boot-{r.name}")
            for r in fresh
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            for replica in fresh:
                try:
                    replica.close(0.0)
                except Exception:
                    pass
            raise ServeError(
                f"deployment {self.model_id!r}: replica start failed: {errors}"
            )
        with self._cv:
            for replica in fresh:
                replica.state = "ready"

    def close(
        self, deadline: float | None = None, drain_timeout: float | None = None
    ) -> None:
        """Drain and retire every replica, concurrently.

        Each replica gets its server's own ``drain_timeout_s`` (or
        ``drain_timeout`` if given), additionally capped by ``deadline``
        (a ``time.monotonic()`` instant) when the router imposes a shared
        one — so closing a group is bounded by the slowest *single*
        replica, never the sum.
        """
        with self._cv:
            if self._closed and not self._replicas:
                return
            self._closed = True
            replicas = list(self._replicas)
            self._cv.notify_all()
        threads = [
            threading.Thread(
                target=self._drain_and_retire,
                args=(r, deadline, drain_timeout),
                name=f"uhd-drain-{r.name}",
            )
            for r in replicas
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    # ------------------------------------------------------------ dispatch
    def _acquire(self) -> Replica:
        with self._cv:
            if self._closed:
                raise ServeError(f"deployment {self.model_id!r} is closed")
            ready = [r for r in self._replicas if r.state == "ready"]
            if not ready:
                raise ServeError(
                    f"no ready replicas for model {self.model_id!r} "
                    f"(generation {self.generation})"
                )
            # least-loaded, slot as a deterministic tie-break
            replica = min(ready, key=lambda r: (r.inflight, r.slot))
            replica.inflight += 1
            return replica

    def _release(self, replica: Replica) -> None:
        with self._cv:
            replica.inflight -= 1
            self._cv.notify_all()  # wake drains waiting on in-flight == 0

    def _mark_failed(self, replica: Replica) -> None:
        """Pull a dead replica out of rotation (its server already failed)."""
        with self._cv:
            if replica.state not in ("ready", "draining"):
                return
            replica.state = "failed"
            self._cv.notify_all()
        try:
            replica.close(0.0)
        except Exception:
            pass

    def submit(
        self,
        images: Any,
        timeout: float | None = None,
        *,
        lane: str | None = None,
        deadline_ms: float | None = None,
    ) -> RoutedHandle:
        """Route one request to the least-loaded ready replica.

        A :class:`ServeError` from a replica whose server turns out to be
        dead marks it failed and retries the next-least-loaded sibling;
        only when every candidate is exhausted does the error propagate.
        ``ValueError`` (bad lane, wrong pixel count) is the caller's bug
        and is never retried.
        """
        with self._cv:
            attempts = max(1, len(self._replicas))
        last_error: ServeError | None = None
        for _ in range(attempts):
            replica = self._acquire()
            try:
                handle = replica.server.submit(
                    images, timeout=timeout, lane=lane, deadline_ms=deadline_ms
                )
            except ServeError as exc:
                self._release(replica)
                last_error = exc
                healthy = False
                try:
                    healthy = bool(replica.server.healthz()["ok"])
                except Exception:
                    healthy = False
                if not healthy:
                    self._mark_failed(replica)
                continue  # backpressure on a healthy replica: try a sibling
            except BaseException:
                self._release(replica)
                raise
            return RoutedHandle(handle, replica, self._release)
        assert last_error is not None
        raise last_error

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
            replicas = list(self._replicas)
        for replica in replicas:
            pixels = replica.server.num_pixels
            if pixels:
                return pixels
        return None

    # ------------------------------------------------------------ reload
    def reload(self, model_path: str | None = None) -> dict:
        """Rolling hot reload: swap in a fresh generation, add-before-remove.

        For each of ``spec.replicas`` slots: start one replica of the new
        generation from ``model_path`` (current path if ``None``), wait
        for its readiness probe, put it in rotation, then drain and
        retire one old-generation replica.  Ready count therefore stays
        at or above target throughout — never near the ``min_ready``
        floor unless replicas had already failed.  If a new replica fails
        to start, the rollout aborts with the old generation still
        serving (replicas already swapped in stay).
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
            new_generation = self.generation + 1
        path = self.model_path if model_path is None else str(model_path)
        replaced = 0
        try:
            for _ in range(self.spec.replicas):
                fresh = self._new_replica(new_generation, path)
                self._start_replicas([fresh])  # raises -> abort, old gen serves on
                with self._cv:
                    self._replicas.append(fresh)
                    self._cv.notify_all()
                victim = self._pick_old_replica(new_generation)
                if victim is not None:
                    self._drain_and_retire(victim)
                    replaced += 1
            # sweep any stragglers (failed replicas don't get picked above)
            while True:
                leftover = None
                with self._cv:
                    for replica in self._replicas:
                        if replica.generation < new_generation:
                            leftover = replica
                            break
                if leftover is None:
                    break
                self._drain_and_retire(leftover)
            with self._cv:
                self.generation = new_generation
                self.model_path = path
        finally:
            with self._cv:
                self._reloading = False
                self._cv.notify_all()
        return {
            "model": self.model_id,
            "path": path,
            "from_generation": from_generation,
            "to_generation": new_generation,
            "replaced": replaced,
            "duration_s": time.monotonic() - t0,
        }

    def _pick_old_replica(self, new_generation: int) -> Replica | None:
        with self._cv:
            old = [
                r
                for r in self._replicas
                if r.generation < new_generation and r.state == "ready"
            ]
            if not old:
                return None
            # retire oldest generation first, busiest slot last
            return min(old, key=lambda r: (r.generation, r.inflight, r.slot))

    def _drain_and_retire(
        self,
        replica: Replica,
        deadline: float | None = None,
        drain_timeout: float | None = None,
    ) -> None:
        """Stop routing to ``replica``, wait out in-flight work, close it.

        Draining first (state change) and only then closing is what makes
        reloads zero-drop: a dispatcher that acquired this replica while
        it was still ready holds an in-flight slot, and we wait for all
        slots to clear before ``server.close`` — so no request ever hits
        a closed server.  The wait is bounded by the replica's own
        ``drain_timeout_s`` (and the shared ``deadline``, if any).
        """
        window = (
            replica.server.config.drain_timeout_s
            if drain_timeout is None
            else drain_timeout
        )
        drain_deadline = time.monotonic() + max(0.0, window)
        if deadline is not None:
            drain_deadline = min(drain_deadline, deadline)
        with self._cv:
            if replica.state in ("retired",):
                return
            if replica.state not in ("failed",):
                replica.state = "draining"
            self._cv.notify_all()
            while replica.inflight > 0:
                remaining = drain_deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(min(0.05, remaining))
        # close outside the lock; the server drains its own queues too
        try:
            replica.close(max(0.0, drain_deadline - time.monotonic()))
        except Exception:
            pass
        final = replace(
            replica.server.stats(),
            workers=0,
            worker_probe_ms=(),
            worker_table_builds=(),
        )
        with self._cv:
            retired = [final] if self._retired is None else [self._retired, final]
            self._retired = ServerStats.merge(retired, mode=self._mode)
            self._retired_generations += 1
            replica.state = "retired"
            if replica in self._replicas:
                self._replicas.remove(replica)
            self._cv.notify_all()

    # ------------------------------------------------------------ health/stats
    def healthz(self) -> dict:
        """Deployment readiness with explicit ``degraded`` semantics.

        ``ok`` while at least ``min_ready`` replicas are ready — a
        deployment mid-reload therefore stays healthy.  ``degraded`` is
        ``True`` when serving below the target replica count but at or
        above the floor (e.g. a failed replica awaiting the next reload).
        """
        with self._cv:
            replicas = list(self._replicas)
            states = {name: 0 for name in ("starting", "ready", "draining", "failed")}
            for replica in replicas:
                if replica.state in states:
                    states[replica.state] += 1
            ready = states["ready"]
            ok = self._started and not self._closed and ready >= self.spec.min_ready
            degraded = bool(ok and ready < self.spec.replicas)
            status = "ok" if ok else "unavailable"
            if degraded:
                status = "degraded"
            health = {
                "model": self.model_id,
                "ok": bool(ok),
                "status": status,
                "degraded": degraded,
                "generation": self.generation,
                "target_replicas": self.spec.replicas,
                "min_ready": self.spec.min_ready,
                "ready_replicas": ready,
                "starting": states["starting"],
                "draining": states["draining"],
                "failed": states["failed"],
                "reloading": self._reloading,
            }
        # each replica's own liveness and readiness-probe result, read
        # outside the deployment lock (servers are never called under it)
        health["replicas"] = [
            {"name": replica.name, **replica.server.healthz()}
            for replica in replicas
        ]
        return health

    @property
    def _mode(self) -> str:
        return "inproc" if self.spec.serve.workers == 0 else "pool"

    def snapshot(self, transports: tuple = ()) -> tuple[ServerStats, dict]:
        """The merged :class:`ServerStats` of the deployment, plus its fleet keys.

        The snapshot is one :meth:`ServerStats.merge` over every live
        replica and the retired generations, so counters and per-lane
        latency histograms carry across hot reloads without loss.
        ``transports`` are the wire counters of the router in front.
        The fleet dict holds ``model``, ``path``, ``generation``,
        ``target_replicas``, ``ready_replicas``, ``retired_replicas``
        and one ``replicas`` row per live replica.
        """
        with self._cv:
            replicas = list(self._replicas)
            retired = [] if self._retired is None else [self._retired]
            fleet = {
                "model": self.model_id,
                "path": self.model_path,
                "generation": self.generation,
                "target_replicas": self.spec.replicas,
                "retired_replicas": self._retired_generations,
            }
        live = [replica.server.stats() for replica in replicas]
        rows = [replica.summary(s) for replica, s in zip(replicas, live)]
        fleet["ready_replicas"] = sum(row["state"] == "ready" for row in rows)
        fleet["replicas"] = rows
        merged = ServerStats.merge(
            live + retired, mode=self._mode, transports=tuple(transports)
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
            "replicas": health["target_replicas"],
            "ready": health["ready_replicas"],
            "min_ready": health["min_ready"],
            "reloading": health["reloading"],
        }


class Router:
    """Front door for a model zoo: named deployments, one dispatch API.

    ``deployments`` maps model-id -> :class:`DeploymentSpec` (a bare
    path string is shorthand for a single-replica spec).  Ids become URL
    path segments (``/models/<id>/predict``), so they must be non-empty
    and slash-free.  The deployment map is fixed at construction; what
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
        """Start every deployment (their replica groups boot concurrently)."""
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
        sum of all drain windows (satellite: concurrent shutdown).
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
    ) -> RoutedHandle:
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
        """Rolling hot reload of one deployment (see ``ModelDeployment.reload``)."""
        return self.deployment(model_id).reload(model_path)

    # ------------------------------------------------------------ health/stats
    def models(self) -> list[dict]:
        """Listing rows for every deployment (``GET /models``)."""
        return [d.listing() for d in self._deployments.values()]

    def healthz(self) -> dict:
        """Router readiness: healthy iff every deployment is at ``min_ready``."""
        deployments = [d.healthz() for d in self._deployments.values()]
        with self._lock:
            alive = self._started and not self._closed
        ok = alive and all(d["ok"] for d in deployments)
        degraded = ok and any(d["degraded"] for d in deployments)
        status = "ok" if ok else "unavailable"
        if degraded:
            status = "degraded"
        return {
            "ok": bool(ok),
            "status": status,
            "degraded": bool(degraded),
            "deployments": len(deployments),
            "ready_replicas": sum(d["ready_replicas"] for d in deployments),
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
