"""Binary fast lane: a framed socket transport with zero-copy intake.

``serve_http`` pays ~58x over in-process submit on a 1-core box, and
almost none of it is inference: JSON encode/parse of pixel arrays plus
thread-per-connection HTTP handling dominate.  This module is the cure
the ROADMAP calls for — requests stay **binary from socket to kernel**:

* :class:`SocketTransport` — a stdlib-only front-end to a
  :class:`~repro.serve.router.Router`, speaking a
  versioned length-prefixed frame protocol over **persistent
  connections, served like HTTP** by a :mod:`socketserver` threading
  server: each connection gets a reader thread and a writer thread.
  No JSON on the hot path.  A frame's pixel payload is received into a
  dedicated buffer and handed to ``server.submit`` as a
  ``np.frombuffer`` **view** — the bytes are materialized exactly once
  between the socket and the lane-batch boundary (where parts are
  concatenated into a dispatch batch).  Responses are enqueued by
  :meth:`PredictionHandle.add_done_callback` for the writer thread, so
  no thread ever parks on ``result()``.
* :class:`BinaryClient` — the matching synchronous client: persistent
  connection, optional pipelining (``send`` many, ``recv`` matching by
  request id), used by the CLI self-test and
  ``benchmarks/loadgen.py --transport binary``.
* A tiny codec (:func:`encode_frame` / :func:`decode_frame` /
  :class:`Frame`) shared by both ends and by the tests' fuzzers.

Frame layout (little-endian, 36-byte fixed header)
--------------------------------------------------
======  =====  =========================================================
offset  bytes  field
======  =====  =========================================================
0       4      magic ``b"uHD1"`` (protocol + version in one)
4       1      frame type (1=PREDICT 2=LABELS 3=ERROR 4=EXPIRED)
5       1      error code (ERROR frames; 0 otherwise)
6       2      lane id length L (utf-8 bytes that follow the header)
8       2      model id length M (utf-8 bytes after the lane id)
10      2      reserved (must be 0)
12      8      request id (client-assigned, echoed in the response)
20      8      deadline_ms (float64; 0 = no deadline, else finite > 0)
28      4      row count
32      4      payload length P
36      L+M+P  lane id, model id, payload
======  =====  =========================================================

Payloads: PREDICT carries ``rows x num_pixels`` raw uint8 pixels;
LABELS carries ``rows`` little-endian int64 labels; ERROR/EXPIRED carry
a utf-8 message.  Error taxonomy mirrors HTTP exactly: a *framing*
violation (bad magic, oversized declaration, non-PREDICT type) gets an
ERROR frame with code 1 and the connection closed (the stream cannot be
resynced); a *semantic* error on an intact frame (unknown lane, wrong
pixel count, empty request, a negative or non-finite deadline) gets an
ERROR frame and the connection stays usable; a request whose deadline
passes while queued gets an EXPIRED frame (the 504 equivalent — the
lane's ``expired`` counter and ``latency.excluded`` move exactly as over
HTTP, because it is the same scheduler); a draining or failed server
answers code 2 (the 503).

Labels served over this wire are **bit-exact** with in-process
``submit`` and direct ``predict`` — the transport only moves bytes;
bit-exactness contract 5 in ``docs/ARCHITECTURE.md`` extends to it.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .transport import Transport
from .types import DeadlineExpiredError, PredictionHandle, ServeError

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router

__all__ = [
    "MAGIC",
    "HEADER_SIZE",
    "FRAME_PREDICT",
    "FRAME_LABELS",
    "FRAME_ERROR",
    "FRAME_EXPIRED",
    "ERR_MALFORMED",
    "ERR_UNAVAILABLE",
    "ERR_UNKNOWN_MODEL",
    "ERR_INTERNAL",
    "Frame",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "SocketTransport",
    "BinaryClient",
]

MAGIC = b"uHD1"  #: protocol magic + version in one; bump the digit to rev

#: fixed header: magic, type, code, lane_len, model_len, reserved,
#: request_id, deadline_ms, rows, payload_len
_HEADER = struct.Struct("<4sBBHHHQdII")
HEADER_SIZE = _HEADER.size  # 36

FRAME_PREDICT = 1  #: client -> server: rows x pixels raw uint8
FRAME_LABELS = 2  #: server -> client: rows little-endian int64 labels
FRAME_ERROR = 3  #: server -> client: error code + utf-8 message
FRAME_EXPIRED = 4  #: server -> client: deadline passed while queued (504)

ERR_MALFORMED = 1  #: unparseable/invalid request (HTTP 400)
ERR_UNAVAILABLE = 2  #: server closed, draining, or failed (HTTP 503)
ERR_UNKNOWN_MODEL = 3  #: no such model id (HTTP 404)
ERR_INTERNAL = 4  #: unexpected server-side failure (HTTP 500)

_FRAME_TYPES = (FRAME_PREDICT, FRAME_LABELS, FRAME_ERROR, FRAME_EXPIRED)

#: hard cap on lane/model id bytes — anything longer is an attack or a bug
MAX_ID_BYTES = 1024
#: default cap on a single frame's payload (64 MiB ~ 85k MNIST rows)
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024


class FrameError(ValueError):
    """A frame violates the protocol (bad magic, bounds, or structure)."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame (codec-level view; payload is not interpreted)."""

    frame_type: int
    code: int = 0
    lane: str = ""
    model: str = ""
    request_id: int = 0
    deadline_ms: float = 0.0
    rows: int = 0
    payload: bytes = b""


def encode_frame(
    frame_type: int,
    *,
    code: int = 0,
    lane: str = "",
    model: str = "",
    request_id: int = 0,
    deadline_ms: float = 0.0,
    rows: int = 0,
    payload: "bytes | bytearray | memoryview" = b"",
) -> bytes:
    """Serialize one frame; the inverse of :func:`decode_frame`."""
    if frame_type not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame_type}")
    lane_bytes = lane.encode("utf-8")
    model_bytes = model.encode("utf-8")
    if len(lane_bytes) > MAX_ID_BYTES or len(model_bytes) > MAX_ID_BYTES:
        raise FrameError(
            f"lane/model ids are capped at {MAX_ID_BYTES} utf-8 bytes"
        )
    header = _HEADER.pack(
        MAGIC,
        frame_type,
        code,
        len(lane_bytes),
        len(model_bytes),
        0,
        request_id,
        deadline_ms,
        rows,
        len(payload),
    )
    return b"".join((header, lane_bytes, model_bytes, bytes(payload)))


def _parse_header(
    header: "bytes | bytearray", max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple:
    """Validate + unpack a 36-byte header; raises :class:`FrameError`."""
    (
        magic,
        frame_type,
        code,
        lane_len,
        model_len,
        reserved,
        request_id,
        deadline_ms,
        rows,
        payload_len,
    ) = _HEADER.unpack(bytes(header))
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if frame_type not in _FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame_type}")
    if reserved != 0:
        raise FrameError(f"reserved field must be 0, got {reserved}")
    if lane_len > MAX_ID_BYTES or model_len > MAX_ID_BYTES:
        raise FrameError(
            f"lane/model id length {max(lane_len, model_len)} exceeds "
            f"the {MAX_ID_BYTES}-byte cap"
        )
    if payload_len > max_payload:
        raise FrameError(
            f"declared payload of {payload_len} bytes exceeds the "
            f"{max_payload}-byte cap"
        )
    return (
        frame_type,
        code,
        lane_len,
        model_len,
        request_id,
        deadline_ms,
        rows,
        payload_len,
    )


def decode_frame(
    data: "bytes | bytearray | memoryview",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> "tuple[Frame, int] | None":
    """Decode one frame from the head of ``data``.

    Returns ``(frame, bytes_consumed)``, or ``None`` when ``data`` does
    not yet hold a complete frame (stream still arriving).  Raises
    :class:`FrameError` when the head can never become a valid frame.
    """
    data = memoryview(data)
    if len(data) < HEADER_SIZE:
        return None
    (
        frame_type,
        code,
        lane_len,
        model_len,
        request_id,
        deadline_ms,
        rows,
        payload_len,
    ) = _parse_header(bytes(data[:HEADER_SIZE]), max_payload)
    total = HEADER_SIZE + lane_len + model_len + payload_len
    if len(data) < total:
        return None
    offset = HEADER_SIZE
    try:
        lane = bytes(data[offset:offset + lane_len]).decode("utf-8")
        model = bytes(
            data[offset + lane_len:offset + lane_len + model_len]
        ).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"lane/model id is not valid utf-8: {exc}") from None
    payload = bytes(data[offset + lane_len + model_len:total])
    frame = Frame(
        frame_type=frame_type,
        code=code,
        lane=lane,
        model=model,
        request_id=request_id,
        deadline_ms=deadline_ms,
        rows=rows,
        payload=payload,
    )
    return frame, total


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    """Read exactly ``size`` bytes or raise :class:`ConnectionError`."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = sock.recv_into(view[got:])
        if n == 0:
            raise ConnectionError(
                "peer closed the connection mid-frame "
                f"({got}/{size} bytes received)"
            )
        got += n
    return buf


def _recv_frame(
    sock: socket.socket,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    accept: "tuple[int, ...]" = _FRAME_TYPES,
) -> "tuple[tuple, bytearray, bytearray]":
    """Read one whole frame off ``sock`` with exactly-bounded reads.

    Returns ``(fields, ids, payload)``: the parsed header fields (see
    :func:`_parse_header`), the raw lane + model id bytes, and the
    payload in a ``bytearray`` of its own, which ``np.frombuffer`` can
    view without a copy.  A header that is invalid or whose type is not
    in ``accept`` raises :class:`FrameError` before anything past it is
    read; a peer that hangs up raises :class:`ConnectionError`.
    """
    fields = _parse_header(_recv_exact(sock, HEADER_SIZE), max_payload)
    frame_type, _code, lane_len, model_len = fields[:4]
    if frame_type not in accept:
        raise FrameError(
            f"frame type {frame_type} is not accepted here (expected one "
            f"of {accept})"
        )
    ids = _recv_exact(sock, lane_len + model_len)
    return fields, ids, _recv_exact(sock, fields[-1])


# ----------------------------------------------------------------- server

#: how a failed request is answered: the first matching exception class
#: picks the frame type and error code (the order matters: an expired
#: deadline is also a ServeError)
_FAILURES = (
    (DeadlineExpiredError, FRAME_EXPIRED, 0),
    (ValueError, FRAME_ERROR, ERR_MALFORMED),
    (ServeError, FRAME_ERROR, ERR_UNAVAILABLE),
    (Exception, FRAME_ERROR, ERR_INTERNAL),
)


class _Connection(socketserver.BaseRequestHandler):
    """One client connection: this thread reads, a writer thread sends.

    The handler thread reads whole frames with blocking, exactly-bounded
    reads (:func:`_recv_frame`) and submits each; a full lane blocks
    only this connection.  Completion callbacks queue the encoded reply
    and never block; the writer thread sends everything queued in one
    ``sendall``.  A frame queued after the connection ended is dropped.
    """

    transport: "SocketTransport"

    def setup(self) -> None:
        threading.current_thread().name = "uhd-binary-reader"
        self.transport = self.server.transport
        self.transport.stats.connection_opened()
        try:
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform quirk
            pass
        self._cv = threading.Condition()
        self._out: list[bytes] = []
        self._inflight = 0  # accepted predicts whose reply is not queued
        self._sending = False
        self._reading = True
        self._ended = False

    def finish(self) -> None:
        self.transport.stats.connection_closed()

    def handle(self) -> None:
        transport = self.transport
        with transport._lock:
            if transport._draining:
                return  # accepted as close() began: nothing is served
            transport._conns.add(self)
        writer = threading.Thread(
            target=self._write_loop, name="uhd-binary-writer", daemon=True
        )
        writer.start()
        try:
            while self._serve_frame():
                pass
        finally:
            with self._cv:
                self._reading = False
                self._cv.notify_all()
            writer.join()  # every reply owed is sent, or the peer is gone
            with transport._lock:
                transport._conns.discard(self)

    # ------------------------------------------------------------ reading
    def _serve_frame(self) -> bool:
        """Read and submit one frame; False once this connection stops."""
        transport = self.transport
        try:
            fields, ids, payload = _recv_frame(
                self.request, transport.max_payload_bytes, (FRAME_PREDICT,)
            )
        except FrameError as exc:
            # the stream cannot be resynced past a bad header: answer,
            # then close once the reply is sent
            transport.stats.malformed_frame()
            self._send_error(ERR_MALFORMED, str(exc), 0)
            return False
        except OSError:  # hung up (mid-frame or not), or shut by close()
            return False
        transport.stats.frame_in(HEADER_SIZE + len(ids) + len(payload))
        self._dispatch(fields, ids, payload)
        return True

    def _dispatch(self, fields: tuple, ids: bytearray, payload: bytearray) -> None:
        """Submit one intact PREDICT frame, or answer why it cannot be."""
        transport = self.transport
        _type, _code, lane_len, _model_len, request_id, deadline_ms, rows, _ = (
            fields
        )
        try:
            lane = bytes(ids[:lane_len]).decode("utf-8")
            model = bytes(ids[lane_len:]).decode("utf-8")
        except UnicodeDecodeError as exc:
            # lengths were consistent, so the stream stays in sync —
            # reject the request but keep the connection
            transport.stats.malformed_frame()
            self._send_error(
                ERR_MALFORMED, f"id is not valid utf-8: {exc}", request_id
            )
            return
        if transport._draining:
            self._send_error(ERR_UNAVAILABLE, "server is draining", request_id)
            return
        router = transport._router
        try:
            server = router.deployment(model or router.default_model)
        except ValueError as exc:  # no such model id
            self._send_error(ERR_UNKNOWN_MODEL, str(exc), request_id)
            return
        num_pixels = server.num_pixels
        if num_pixels is None or num_pixels <= 0:
            self._send_error(
                ERR_UNAVAILABLE, "server has no pixel geometry yet", request_id
            )
            return
        if rows == 0 or len(payload) != rows * num_pixels:
            self._send_error(
                ERR_MALFORMED,
                f"payload of {len(payload)} bytes does not match "
                f"rows={rows} x {num_pixels} pixels (empty requests are "
                "rejected)",
                request_id,
            )
            return
        # zero-copy: a view over this frame's dedicated receive buffer.
        # as_image_batch passes correct (rows, pixels) uint8 arrays
        # through untouched, so the pixels are next copied only at the
        # lane-batch boundary (_Batch.images() concatenation).
        images = np.frombuffer(payload, dtype=np.uint8).reshape(
            rows, num_pixels
        )
        try:
            # 0 means no deadline; submit rejects any other non-positive
            # or non-finite one, so a bad deadline is ERR_MALFORMED
            handle = server.submit(
                images,
                timeout=transport.request_timeout_s,
                lane=lane or None,
                deadline_ms=deadline_ms if deadline_ms != 0 else None,
            )
        except ValueError as exc:  # unknown lane, bad deadline
            self._send_error(ERR_MALFORMED, str(exc), request_id)
            return
        except ServeError as exc:  # closed, failed, or lane full too long
            self._send_error(ERR_UNAVAILABLE, str(exc), request_id)
            return
        with self._cv:
            self._inflight += 1
        handle.add_done_callback(
            lambda h, rid=request_id: self._on_done(rid, h)
        )

    def _on_done(self, request_id: int, handle: PredictionHandle) -> None:
        """Completion callback — encode the response; never block."""
        try:
            labels = handle.result(timeout=0)
        except Exception as exc:
            frame_type, code = next(
                (frame_type, code) for kind, frame_type, code in _FAILURES
                if isinstance(exc, kind)
            )
            frame = encode_frame(
                frame_type, code=code, request_id=request_id,
                payload=str(exc).encode("utf-8"),
            )
        else:
            frame = encode_frame(
                FRAME_LABELS,
                request_id=request_id,
                rows=int(labels.shape[0]),
                payload=labels.astype("<i8", copy=False).tobytes(),
            )
        self._enqueue(frame, finished=True)

    # ------------------------------------------------------------ writing
    def _send_error(self, code: int, message: str, request_id: int) -> None:
        self._enqueue(
            encode_frame(
                FRAME_ERROR, code=code, request_id=request_id,
                payload=message.encode("utf-8"),
            )
        )

    def _enqueue(self, frame: bytes, finished: bool = False) -> None:
        """Queue encoded bytes for the writer thread (any thread)."""
        with self._cv:
            if finished:
                self._inflight -= 1
            self._cv.notify_all()
            if self._ended:
                return
            self._out.append(frame)
        self.transport.stats.frame_out(len(frame))

    def _write_loop(self) -> None:
        """The writer thread: send what is queued until nothing more is owed."""
        while True:
            with self._cv:
                while not self._out and not (
                    self._ended or (not self._reading and not self._inflight)
                ):
                    self._cv.wait()
                if not self._out:
                    return
                data = b"".join(self._out)
                self._out.clear()
                self._sending = True
            try:
                self.request.sendall(data)
            except OSError:  # the peer is gone, or close() shut us down
                self.end()
                return
            finally:
                with self._cv:
                    self._sending = False
                    self._cv.notify_all()

    def idle(self) -> bool:
        """No reply owed: none pending, queued, or being sent."""
        with self._cv:
            return not (self._inflight or self._out or self._sending)

    def end(self) -> None:
        """Drop what is queued and wake both threads (any thread)."""
        with self._cv:
            self._ended = True
            self._out.clear()
            self._cv.notify_all()
        try:
            self.request.shutdown(socket.SHUT_RDWR)
        except OSError:  # already shut or closed
            pass


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, transport: "SocketTransport") -> None:
        self.transport = transport
        super().__init__((transport.host, transport._requested_port), _Connection)


class SocketTransport(Transport):
    """Framed binary front-end over a :class:`~repro.serve.router.Router`.

    Served like HTTP: each connection gets a thread that reads its
    frames, and a writer thread that sends its replies, queued by
    :meth:`PredictionHandle.add_done_callback` so no thread parks on a
    result.  ``port=0`` binds an ephemeral port (read :attr:`port` /
    :attr:`address` after :meth:`start`).  Like :class:`HttpTransport`
    the transport *borrows* the router: ``close`` stops accepting,
    waits until every reply already owed is sent (bounded by
    ``drain_timeout_s``) and refuses predicts that arrive meanwhile with
    ``ERR_UNAVAILABLE``, then shuts every connection, but never closes
    the router.

    Backpressure is per connection: a full lane blocks ``submit`` on the
    reader thread of the connection that hit it (the scheduler's usual
    contract, bounded by ``request_timeout_s``), and every other
    connection reads on.

    A frame's model id selects the deployment (empty id = the default
    model, like bare HTTP ``/predict``); unknown ids answer
    ``ERR_UNKNOWN_MODEL``.
    """

    scheme = "uhd"
    wire = "binary"

    def __init__(
        self,
        router: "Router",
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
        max_payload_bytes: int = DEFAULT_MAX_PAYLOAD,
        drain_timeout_s: float = 5.0,
    ) -> None:
        super().__init__(router, host, port, request_timeout_s)
        if max_payload_bytes < 1:
            raise ValueError(
                f"max_payload_bytes must be >= 1, got {max_payload_bytes}"
            )
        self.max_payload_bytes = max_payload_bytes
        self.drain_timeout_s = drain_timeout_s
        self._lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._draining = False

    def _make_server(self) -> _Server:
        self._draining = False
        return _Server(self)

    def _drain(self) -> None:
        """Send every reply already owed (bounded), then end each connection.

        Predict frames that arrive meanwhile are refused with
        ``ERR_UNAVAILABLE`` — the same contract as the HTTP transport's
        answered-before-torn-down shutdown.  Ending a connection shuts
        its socket, which wakes its reader and writer threads.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if all(conn.idle() for conn in self._conns):
                    break
            time.sleep(0.005)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.end()


# ----------------------------------------------------------------- client


class BinaryClient:
    """Synchronous client for :class:`SocketTransport`.

    One persistent connection; :meth:`predict` is the simple
    request/response round trip, while :meth:`send` / :meth:`recv`
    support **pipelining** — queue many predicts on the socket, then
    collect responses, matching them by the request id the server
    echoes (responses may complete out of order across lanes/executors).

    Raises the same exceptions an in-process caller sees:
    :class:`ValueError` (malformed/unknown lane/unknown model),
    :class:`ServeError` (server closed or failed),
    :class:`DeadlineExpiredError` (queued past its deadline); each
    carries a ``request_id`` attribute for pipelined callers.
    """

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - platform quirk
            pass
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def send(
        self,
        images: Any,
        *,
        lane: "str | None" = None,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> int:
        """Queue one predict frame; returns its request id (pipelining)."""
        arr = np.ascontiguousarray(images, dtype=np.uint8)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim > 2:
            # (n, h, w[, ...]) image stacks flatten per row, same as the
            # server-side as_image_batch normalization
            arr = arr.reshape(arr.shape[0], -1)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise ValueError(
                f"images must be a (rows, pixels) array, got shape "
                f"{arr.shape}"
            )
        with self._lock:
            request_id = next(self._ids)
            frame = encode_frame(
                FRAME_PREDICT,
                lane=lane or "",
                model=model or "",
                request_id=request_id,
                deadline_ms=0.0 if deadline_ms is None else float(deadline_ms),
                rows=arr.shape[0],
                payload=arr.tobytes(),
            )
            self._sock.sendall(frame)
        return request_id

    def recv(self) -> "tuple[int, np.ndarray]":
        """Next response as ``(request_id, labels)``; raises on errors."""
        fields, _ids, payload = _recv_frame(self._sock)
        frame_type, code, _lane_len, _model_len, request_id, _, rows, _ = fields
        if frame_type == FRAME_LABELS:
            if len(payload) != rows * 8:
                raise FrameError(
                    f"labels payload of {len(payload)} bytes does not match "
                    f"rows={rows} int64 labels"
                )
            labels = np.frombuffer(bytes(payload), dtype="<i8").astype(
                np.int64, copy=False
            )
            return request_id, labels
        message = bytes(payload).decode("utf-8", errors="replace")
        error: Exception
        if frame_type == FRAME_EXPIRED:
            error = DeadlineExpiredError(message)
        elif code in (ERR_MALFORMED, ERR_UNKNOWN_MODEL):
            error = ValueError(message)
        else:
            error = ServeError(message)
        error.request_id = request_id  # type: ignore[attr-defined]
        raise error

    def predict(
        self,
        images: Any,
        *,
        lane: "str | None" = None,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> np.ndarray:
        """Synchronous round trip: one predict frame, one label array."""
        self.send(images, lane=lane, model=model, deadline_ms=deadline_ms)
        _request_id, labels = self.recv()
        return labels

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "BinaryClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
