"""Serving for uHD models — rung 2 of the backend ladder.

uHD's single-pass training leaves a fitted model as config plus one
small integer matrix, persisted bit-exactly by :mod:`repro.api`, and its
hypervectors are generated, not stored.  So a server needs nothing but
the model file: it warm-starts from it (:func:`repro.api.load_model`,
never re-fitting), builds its gather table in ~5 ms, proves readiness
with the ``serve-check`` probe, and serves from executor threads that
share that one warm model.

One serving path, three layers (see ``docs/serving.md`` for the operator
guide and ``docs/ARCHITECTURE.md`` for the full picture)::

    transports -> Router -> UHDServer (scheduler + executors)

* **Transport** (:mod:`repro.serve.transport` /
  :mod:`repro.serve.binary`) — how requests arrive, always in front of
  a :class:`Router`: :class:`HttpTransport` (stdlib-only threaded HTTP:
  ``POST /predict``, ``GET /healthz``, ``GET /stats``, ``GET /models``,
  and a Prometheus ``GET /metrics`` rendered by
  :mod:`repro.serve.metrics`) or :class:`SocketTransport` — the
  **binary fast lane**: a framed length-prefixed protocol over
  persistent connections, each served by its own reader and writer
  thread, pixels zero-copied from the receive buffer into scheduler
  batch assembly
  (:class:`BinaryClient` is the matching pipelining-capable client).
  Both wires can front the *same* router.
* **Router** (:mod:`repro.serve.router`) — maps each model id to one
  :class:`UHDServer` for its whole life (capacity is its ``workers``)
  and adds the fleet keys (model, path, generation) to each server's
  stats and health documents.  ``repro-uhd serve`` is a router with
  one deployment.
* **Server** (:class:`UHDServer`) — one warm model whose encoder is
  shared per ``(pixels, config)`` key process-wide
  (:class:`EncoderCache`); a priority-lane :class:`Scheduler` (named
  lanes with per-lane ``max_batch``/``max_wait_ms``, weighted
  anti-starvation draining, and per-request deadlines that fail
  expired requests loudly with :class:`DeadlineExpiredError`); and
  ``ServeConfig(workers=K)`` executor threads that drain the scheduler
  through the model.  ``workers=0`` runs the same loop on the
  submitting thread.  Hot reload (``router.reload(model_id, path)``,
  i.e. :meth:`UHDServer.reload`) loads and probes the next model
  generation, then swaps it in place: queued requests are answered by
  the model they were submitted to, none is dropped, and the counters
  run on.

Quickstart::

    from repro.serve import (
        DeploymentSpec, HttpTransport, LaneConfig, Router, ServeConfig,
    )

    config = ServeConfig(
        workers=2,
        lanes=(LaneConfig("interactive", max_batch=16, max_wait_ms=1, weight=4),
               LaneConfig("bulk", max_wait_ms=50)),
    )
    with Router({"mnist": DeploymentSpec("mnist-2048.npz", serve=config)}) as router:
        labels = router.predict("mnist", images, lane="interactive")
        with HttpTransport(router, port=8080) as http:
            print("listening on", http.address)  # POST /predict, /stats, ...
            ...

Everything is bit-exact with calling the model directly — over every
transport, on every lane: the serving layer splits, coalesces and
routes, but never transforms data.
"""

from .binary import BinaryClient, SocketTransport
from .cache import CacheStats, EncoderCache, encoder_cache
from .histogram import HistogramSnapshot, LatencyHistogram
from .metrics import parse_exposition, render_metrics
from .probe import ProbeResult, readiness_probe
from .router import DeploymentSpec, Router
from .scheduler import LaneConfig, LaneStats, ScheduledBatch, Scheduler
from .server import UHDServer
from .transport import HttpTransport, Transport, TransportStats
from .types import (
    DeadlineExpiredError,
    PredictionHandle,
    ServeConfig,
    ServeError,
    ServerStats,
)

__all__ = [
    "BinaryClient",
    "CacheStats",
    "DeadlineExpiredError",
    "DeploymentSpec",
    "EncoderCache",
    "HistogramSnapshot",
    "HttpTransport",
    "LaneConfig",
    "LaneStats",
    "LatencyHistogram",
    "PredictionHandle",
    "ProbeResult",
    "Router",
    "ScheduledBatch",
    "Scheduler",
    "ServeConfig",
    "ServeError",
    "ServerStats",
    "SocketTransport",
    "Transport",
    "TransportStats",
    "UHDServer",
    "encoder_cache",
    "parse_exposition",
    "readiness_probe",
    "render_metrics",
]
