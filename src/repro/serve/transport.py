"""Transports: how requests reach a :class:`~repro.serve.router.Router`.

The serving stack is deliberately transport-agnostic — the router,
scheduler and executors neither know nor care whether a request
arrived as a Python call or over a socket.  Every transport fronts a
``Router``; ``repro-uhd serve`` is a router with one deployment, so
there is exactly one serving path.

* :class:`Transport` — the lifecycle both wires share (``start`` /
  ``close`` / ``port`` / ``address``, context manager) around a stdlib
  :mod:`socketserver` threading server: one handler thread per
  connection.
* :class:`HttpTransport` — a **stdlib-only** threaded HTTP front-end
  (``http.server.ThreadingHTTPServer``): each connection's handler
  thread blocks its predict request on ``submit(...).result()`` —
  many concurrent requests therefore feed the scheduler
  *concurrently* and coalesce into wide batches exactly like in-process
  callers.  No third-party framework, no event loop.

HTTP endpoints
--------------
``POST /predict`` and ``POST /models/<id>/predict``
    Bare ``/predict`` addresses the router's *default* (first declared)
    model.  JSON body ``{"images": [[...], ...], "lane": "interactive",
    "deadline_ms": 50}`` (``lane``/``deadline_ms`` optional, also
    accepted as query parameters), or raw ``application/octet-stream``
    uint8 bytes — row count inferred from the model's pixel count, or
    pinned with an ``X-UHD-Rows`` header.  Responds
    ``{"labels": [...], "rows": N, "lane": ..., "model": ...}`` — or,
    with ``Accept: application/octet-stream``, raw little-endian int64
    label bytes (``X-UHD-Rows`` / ``X-UHD-Model`` response headers) so
    a bulk client can skip JSON entirely in both directions.  Labels are
    **bit-exact** with ``UHDClassifier.predict``: the transport decodes
    bytes into the same uint8 arrays an in-process caller would pass,
    and the stack only routes (contract 5 in ``docs/ARCHITECTURE.md``).
    Errors: 400 (malformed payload, unknown lane, wrong pixel count,
    a ``deadline_ms`` that is not a finite number > 0),
    404 (unknown model id), 503 (closed/failed), 504 (deadline expired
    while queued, or the transport's ``request_timeout_s`` elapsed).
``GET /stats`` and ``GET /models/<id>/stats``
    A deployment's stats document (:meth:`Router.stats`) — bare
    ``/stats`` serves the default model's.  Request/batch counters,
    per-lane depth/served/expired plus latency quantiles, encoder-cache
    table bytes, this router's wire counters, and the fleet keys
    (model, path, generation).
``GET /healthz`` and ``GET /models/<id>/healthz``
    200 while **every** deployment (or the named one) has a healthy
    server — a server mid-reload keeps serving on its current model, so
    it stays healthy — else 503.  The body carries
    ``status`` (``ok`` / ``unavailable``) and the server's liveness and
    readiness-probe result (the same deterministic-predictions check
    ``serve-check`` runs).
``GET /models``
    200 with ``{"models": [...]}`` — one listing row per deployment
    (id, path, generation, status, reloading).
``GET /metrics``
    200 with the Prometheus text exposition (0.0.4) rendered by
    :func:`repro.serve.metrics.render_metrics` — the same counters as
    ``/stats`` with a ``model`` label, one histogram per lane
    (``uhd_lane_latency_seconds``) and the deployment's generation gauge.

Lifecycle: the transport *borrows* the router — ``close()`` stops
accepting connections and joins in-flight handler threads, but never
closes the ``Router`` (its owner does, usually a ``with`` block around
both).
"""

from __future__ import annotations

import json
import re
import threading
from typing import TYPE_CHECKING, Any

import numpy as np

from .types import DeadlineExpiredError, ServeError

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router

__all__ = [
    "Transport",
    "TransportStats",
    "HttpTransport",
]

#: how often a transport's accept loop checks for close(); the stdlib's
#: 0.5 s default would delay every shutdown by up to that much
_POLL_INTERVAL_S = 0.05


class TransportStats:
    """Thread-safe wire counters of one transport kind on one router.

    A locked dict keyed by the ``/stats`` field names: ``frames`` means
    "requests" on HTTP and literal frames on the binary transport;
    ``bytes`` counts payload bytes (HTTP bodies, binary frame bytes) so
    the two wires are comparable per request served; ``malformed``
    counts frames/requests rejected as unparseable (HTTP 400s).  Every
    transport of a kind shares the router's one instance
    (:meth:`Router.wire_stats <repro.serve.router.Router.wire_stats>`).
    """

    def __init__(self, name: str) -> None:
        self.name = name  #: transport kind, ``"http"`` or ``"binary"``
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(
            ("connections_open", "connections_total", "frames_in",
             "frames_out", "bytes_in", "bytes_out", "malformed"),
            0,
        )

    def _add(self, **deltas: int) -> None:
        with self._lock:
            for field, delta in deltas.items():
                self._counts[field] += delta

    def connection_opened(self) -> None:
        self._add(connections_open=1, connections_total=1)

    def connection_closed(self) -> None:
        self._add(connections_open=-1)

    def frame_in(self, nbytes: int) -> None:
        self._add(frames_in=1, bytes_in=nbytes)

    def frame_out(self, nbytes: int) -> None:
        self._add(frames_out=1, bytes_out=nbytes)

    def malformed_frame(self) -> None:
        self._add(malformed=1)

    def snapshot(self) -> dict:
        """This kind's ``/stats`` ``transports`` entry."""
        with self._lock:
            return {"name": self.name, **self._counts}


class Transport:
    """The lifecycle both wires share: a stdlib threading server.

    A subclass builds its :mod:`socketserver` server in
    :meth:`_make_server`; every accepted connection then gets a handler
    thread of its own.  ``port=0`` (the default) binds an ephemeral port
    — read it back from :attr:`port` / :attr:`address` after
    :meth:`start`.  The transport *borrows* the router: :meth:`close`
    stops accepting, runs :meth:`_drain`, then joins every handler
    thread, but never closes the ``Router``.
    """

    scheme = ""  #: the URL scheme of :attr:`address`
    wire = ""  #: the kind whose :class:`TransportStats` this transport counts in
    #: listen(2) backlog of both wires' servers; socketserver's default of
    #: 5 overflows on a burst of connects, which then wait out SYN retries
    #: or are reset unanswered
    listen_backlog = 128

    def __init__(
        self,
        router: "Router",
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
    ) -> None:
        if request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        self._router = router
        self._host = host
        self._requested_port = port
        self.request_timeout_s = request_timeout_s
        self._server: Any = None
        self._thread: threading.Thread | None = None
        #: the router's counters for this wire kind, taken in start()
        self.stats: TransportStats | None = None

    def _make_server(self) -> Any:
        """A bound ``socketserver`` threading server (subclasses)."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Runs once accepting has stopped, before handlers are joined."""

    def start(self) -> "Transport":
        """Bind the socket and start accepting connections."""
        if self._server is not None:
            return self
        self.stats = self._router.wire_stats(self.wire)
        server = self._make_server()
        # join handler threads on close(): an operator-initiated shutdown
        # answers accepted requests before tearing anything down.
        # daemon_threads must stay False for that — socketserver does not
        # track daemon handler threads, which would make block_on_close a
        # silent no-op
        server.daemon_threads = False
        server.block_on_close = True
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name=f"uhd-{self.wire}-transport",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def host(self) -> str:
        """The interface this transport binds."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"{self.scheme}://{self._host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, drain (see :meth:`_drain`), join the handlers."""
        if self._server is None:
            return
        self._server.shutdown()
        self._drain()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "Transport":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class HttpTransport(Transport):
    """Threaded HTTP front-end over a :class:`~repro.serve.router.Router`.

    Handler threads block on ``submit(...).result(request_timeout_s)``,
    so concurrent connections coalesce in the scheduler like any other
    concurrent submitters.  Endpoints: see the module docstring.

    :meth:`close` answers every request already accepted.  A keep-alive
    connection that is merely *idle* holds its handler thread until the
    client disconnects or the per-request read timeout
    (``request_timeout_s``) elapses — close clients first for an instant
    shutdown (the CLI and benchmarks do).
    """

    scheme = "http"
    wire = "http"

    def _make_server(self) -> Any:
        from http.server import ThreadingHTTPServer

        # every handler operation is bounded (socket reads by
        # Handler.timeout, predictions by request_timeout_s), so joining
        # the handler threads on close() cannot hang indefinitely
        handler = _make_handler(
            self._router, self.request_timeout_s, self.stats
        )

        class Server(ThreadingHTTPServer):
            request_queue_size = self.listen_backlog

        return Server((self._host, self._requested_port), handler)


#: ``/models/<id>/predict|stats|healthz``; model ids are slash-free
_MODEL_PATH_RE = re.compile(r"^/models/([^/]+)/(predict|stats|healthz)$")


def _make_handler(router: "Router", request_timeout_s: float, wire: TransportStats):
    """Build the request-handler class bound to ``router``.

    A fresh class per transport keeps two transports over different
    routers in one process from sharing state through class attributes.
    ``wire`` receives the per-connection/request/byte counters.
    """
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "uhd-serve"
        timeout = request_timeout_s  #: bounds socket reads per request
        #: TCP_NODELAY on every accepted socket: the response goes out as
        #: headers then body, and Nagle would hold the body back until the
        #: client's delayed ACK of the headers (~40 ms per keep-alive
        #: request)
        disable_nagle_algorithm = True

        def log_message(self, *args: Any) -> None:  # pragma: no cover
            pass  # stay quiet; operators have /stats

        # -------------------------------------------------- connection
        def setup(self) -> None:
            super().setup()
            wire.connection_opened()

        def finish(self) -> None:
            try:
                super().finish()
            finally:
                wire.connection_closed()

        # -------------------------------------------------- responses
        def _send(
            self, status: int, content_type: str, body: bytes, headers=()
        ) -> None:
            # counted before a byte is written: a client holding the
            # reply always finds it in /stats
            wire.frame_out(len(body))
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._send(status, "application/json", body)

        def _send_error_json(self, status: int, message: str) -> None:
            # error paths may not have consumed the request body; keeping
            # the HTTP/1.1 connection alive would let those stale bytes be
            # parsed as the next request line, poisoning a perfectly good
            # follow-up — close instead (and say so to the client)
            self.close_connection = True
            if status == 400:
                wire.malformed_frame()
            self._send_json(status, {"error": message})

        # -------------------------------------------------- GET
        def do_GET(self) -> None:
            wire.frame_in(0)
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                health = router.healthz()
                self._send_json(200 if health["ok"] else 503, health)
            elif path == "/stats":
                self._send_json(200, router.stats())
            elif path == "/metrics":
                from .metrics import render_metrics

                self._send(
                    200, "text/plain; version=0.0.4; charset=utf-8",
                    render_metrics(router).encode("utf-8"),
                )
            elif path == "/models":
                self._send_json(200, {"models": router.models()})
            elif match := _MODEL_PATH_RE.match(path):
                model_id, verb = match.group(1), match.group(2)
                if verb == "predict":
                    self._send_error_json(405, "predict requires POST")
                    return
                try:
                    if verb == "stats":
                        self._send_json(200, router.stats(model_id))
                        return
                    health = router.healthz(model_id)
                except ValueError as exc:
                    self._send_error_json(404, str(exc))
                    return
                self._send_json(200 if health["ok"] else 503, health)
            else:
                self._send_error_json(404, f"unknown path {path!r}")

        # -------------------------------------------------- POST
        def do_POST(self) -> None:
            wire.frame_in(int(self.headers.get("Content-Length") or 0))
            path = self.path.split("?", 1)[0]
            match = _MODEL_PATH_RE.match(path)
            if path == "/predict":
                model_id = router.default_model
            elif match is not None and match.group(2) == "predict":
                model_id = match.group(1)
            else:
                self._send_error_json(404, f"unknown path {path!r}")
                return
            try:
                server = router.deployment(model_id)
            except ValueError as exc:
                self._send_error_json(404, str(exc))
                return
            try:
                images, lane, deadline_ms = self._parse_predict_request(
                    server.num_pixels
                )
            except ValueError as exc:
                self._send_error_json(400, str(exc))
                return
            try:
                labels = server.submit(
                    images,
                    timeout=request_timeout_s,
                    lane=lane,
                    deadline_ms=deadline_ms,
                ).result(request_timeout_s)
            except DeadlineExpiredError as exc:
                self._send_error_json(504, str(exc))
                return
            except TimeoutError:
                self._send_error_json(
                    504, f"prediction exceeded {request_timeout_s}s"
                )
                return
            except ValueError as exc:  # unknown lane, pixel count, deadline
                self._send_error_json(400, str(exc))
                return
            except ServeError as exc:
                self._send_error_json(503, str(exc))
                return
            accept = (self.headers.get("Accept") or "").split(";")[0].strip()
            if accept == "application/octet-stream":
                # raw int64 little-endian label bytes — skips the float->
                # decimal->parse JSON round trip entirely (the cheap first
                # rung of the binary fast lane; see docs/serving.md)
                self._send(
                    200, "application/octet-stream",
                    labels.astype("<i8", copy=False).tobytes(),
                    headers=(
                        ("X-UHD-Rows", str(int(labels.shape[0]))),
                        ("X-UHD-Model", model_id),
                    ),
                )
                return
            self._send_json(200, {
                "labels": [int(label) for label in labels],
                "rows": int(labels.shape[0]),
                "lane": lane,
                "model": model_id,
            })

        # -------------------------------------------------- parsing
        def _query_params(self) -> dict[str, str]:
            from urllib.parse import parse_qsl

            if "?" not in self.path:
                return {}
            return dict(parse_qsl(self.path.split("?", 1)[1]))

        def _parse_predict_request(self, num_pixels: int | None):
            """(images, lane, deadline_ms) from the request, or ValueError."""
            # consume the body FIRST: an early validation error must not
            # leave unread bytes on a keep-alive socket
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length > 0 else b""
            params = self._query_params()
            lane = params.get("lane")
            deadline_ms: float | None = None
            if "deadline_ms" in params:
                try:
                    deadline_ms = float(params["deadline_ms"])
                except ValueError:
                    raise ValueError(
                        f"deadline_ms must be a number, got "
                        f"{params['deadline_ms']!r}"
                    ) from None
            if not body:
                raise ValueError("empty request body")
            content_type = (self.headers.get("Content-Type") or "").split(";")[0]
            if content_type == "application/octet-stream":
                images = self._decode_raw(body, num_pixels)
            else:
                images, lane, deadline_ms = self._decode_json(
                    body, lane, deadline_ms
                )
            return images, lane, deadline_ms

        def _decode_raw(self, body: bytes, num_pixels: int | None) -> np.ndarray:
            """Raw uint8 image bytes -> (rows, num_pixels)."""
            if num_pixels is None or num_pixels <= 0:
                raise ValueError("server has no pixel geometry yet")
            rows_header = self.headers.get("X-UHD-Rows")
            if rows_header is not None:
                try:
                    rows = int(rows_header)
                except ValueError:
                    raise ValueError(
                        f"X-UHD-Rows must be an integer, got {rows_header!r}"
                    ) from None
            elif len(body) % num_pixels == 0:
                rows = len(body) // num_pixels
            else:
                raise ValueError(
                    f"body of {len(body)} bytes is not a multiple of "
                    f"{num_pixels} pixels; send (rows * pixels) uint8 bytes "
                    "or an X-UHD-Rows header"
                )
            if rows * num_pixels != len(body):
                raise ValueError(
                    f"X-UHD-Rows={rows} x {num_pixels} pixels != "
                    f"{len(body)} body bytes"
                )
            return np.frombuffer(body, dtype=np.uint8).reshape(rows, num_pixels)

        def _decode_json(self, body, lane, deadline_ms):
            """JSON body -> (uint8 images, lane, deadline_ms); body wins."""
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ValueError(f"request body is not valid JSON: {exc}") from None
            if not isinstance(payload, dict) or "images" not in payload:
                raise ValueError('JSON body must be {"images": [...], ...}')
            if "lane" in payload and payload["lane"] is not None:
                lane = payload["lane"]
                if not isinstance(lane, str):
                    raise ValueError(f"lane must be a string, got {lane!r}")
            if "deadline_ms" in payload and payload["deadline_ms"] is not None:
                deadline_ms = payload["deadline_ms"]
                # JSON true/false decode to bool, an int subclass
                if isinstance(deadline_ms, bool) or not isinstance(
                    deadline_ms, (int, float)
                ):
                    raise ValueError(
                        f"deadline_ms must be a number, got {deadline_ms!r}"
                    )
            try:
                images = np.asarray(payload["images"])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"images are not a rectangular array: {exc}") from None
            if images.size and (
                not np.issubdtype(images.dtype, np.integer)
                or images.min() < 0
                or images.max() > 255
            ):
                raise ValueError(
                    "images must be integers in [0, 255] (uint8 intensities)"
                )
            # uint8 is exactly what an in-process caller passes, which is
            # what keeps HTTP-served labels bit-exact with direct predict
            return images.astype(np.uint8, copy=False), lane, deadline_ms

    return Handler
