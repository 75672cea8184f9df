"""Binary fast lane: a framed socket transport with zero-copy intake.

``serve_http`` pays ~58x over in-process submit on a 1-core box, and
almost none of it is inference: JSON encode/parse of pixel arrays plus
thread-per-connection HTTP handling dominate.  This module is the cure
the ROADMAP calls for — requests stay **binary from socket to kernel**:

* :class:`SocketTransport` — a stdlib-only front-end to a
  :class:`~repro.serve.router.Router`, speaking a
  versioned length-prefixed frame protocol over **persistent
  connections multiplexed by a single** :mod:`selectors` **event loop**.
  No thread-per-connection, no JSON on the hot path.  A frame's pixel
  payload is received into a dedicated buffer and handed to
  ``server.submit`` as a ``np.frombuffer`` **view** — the bytes are
  materialized exactly once between the socket and the lane-batch
  boundary (where parts are concatenated into a dispatch batch).
  Responses are enqueued by :meth:`PredictionHandle.add_done_callback`,
  so no thread ever parks on ``result()``.
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
20      8      deadline_ms (float64; 0 = no deadline)
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
pixel count, empty request) gets an ERROR frame and the connection
stays usable; a request whose deadline passes while queued gets an
EXPIRED frame (the 504 equivalent — the lane's ``expired`` counter and
``latency.excluded`` move exactly as over HTTP, because it is the same
scheduler); a draining or failed server answers code 2 (the 503).

Labels served over this wire are **bit-exact** with in-process
``submit`` and direct ``predict`` — the transport only moves bytes;
bit-exactness contract 5 in ``docs/ARCHITECTURE.md`` extends to it.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .transport import TransportStats
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


# ----------------------------------------------------------------- server


class _Connection:
    """One client connection's receive state machine and send queue.

    Reads are *exactly bounded*: 36 header bytes, then the declared
    lane/model bytes, then ``recv_into`` a payload buffer allocated at
    the declared size — so a complete frame's pixels sit in one dedicated
    ``bytearray`` that ``np.frombuffer`` can view without copying, and a
    slow client that dribbles a frame across many packets reassembles
    correctly (``tests/serve/test_binary.py`` drips one byte at a time).
    """

    __slots__ = (
        "transport", "sock", "closed", "closing", "inflight",
        "_state", "_got", "_header", "_meta", "_payload", "_discard",
        "_frame_type", "_code", "_lane_len", "_model_len",
        "_request_id", "_deadline_ms", "_rows", "_payload_len",
        "_lane", "_model", "_out", "_out_lock",
    )

    def __init__(self, transport: "SocketTransport", sock: socket.socket):
        self.transport = transport
        self.sock = sock
        self.closed = False
        self.closing = False  # flush the send queue, then close
        self.inflight = 0  # accepted predicts whose response is pending
        self._header = bytearray(HEADER_SIZE)
        self._meta = b""
        self._payload = bytearray(0)
        self._out: deque = deque()
        self._out_lock = threading.Lock()
        self._reset_recv()

    def _reset_recv(self) -> None:
        self._state = "header"
        self._got = 0
        self._lane = ""
        self._model = ""
        self._discard = False

    # ------------------------------------------------------------ reading
    def handle_read(self) -> None:
        while not self.closed and not self.closing:
            if self._state == "header":
                buf, size = self._header, HEADER_SIZE
            elif self._state == "meta":
                buf, size = self._meta, self._lane_len + self._model_len
            else:
                buf, size = self._payload, self._payload_len
            if size == 0:
                n = 0
            else:
                try:
                    n = self.sock.recv_into(memoryview(buf)[self._got:])
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    self.transport._close_connection(self)
                    return
                if n == 0:  # peer closed
                    self.transport._close_connection(self)
                    return
            self._got += n
            if self._got < size:
                return
            if self._state == "header":
                if not self._parse_frame_header():
                    return
            elif self._state == "meta":
                if not self._parse_meta():
                    return
            else:
                self._dispatch()

    def _parse_frame_header(self) -> bool:
        try:
            (
                self._frame_type,
                self._code,
                self._lane_len,
                self._model_len,
                self._request_id,
                self._deadline_ms,
                self._rows,
                self._payload_len,
            ) = _parse_header(self._header, self.transport.max_payload_bytes)
            if self._frame_type != FRAME_PREDICT:
                raise FrameError(
                    f"server accepts only PREDICT frames, got type "
                    f"{self._frame_type}"
                )
        except (FrameError, struct.error) as exc:
            # the stream cannot be resynced past a bad header: error out
            # and close once the reply has flushed
            self.transport.stats.malformed_frame()
            self._send_error(ERR_MALFORMED, str(exc), close=True)
            return False
        meta_len = self._lane_len + self._model_len
        self._meta = bytearray(meta_len)
        self._state = "meta"
        self._got = 0
        if meta_len == 0:
            return self._parse_meta()
        return True

    def _parse_meta(self) -> bool:
        try:
            self._lane = bytes(self._meta[: self._lane_len]).decode("utf-8")
            self._model = bytes(self._meta[self._lane_len:]).decode("utf-8")
        except UnicodeDecodeError as exc:
            # lengths were consistent, so the stream stays in sync —
            # reject the request but keep the connection (the declared
            # payload must still be drained off the socket, unprocessed)
            self.transport.stats.malformed_frame()
            self._send_error(ERR_MALFORMED, f"id is not valid utf-8: {exc}")
            self._discard = True
        # a fresh buffer per frame: the previous frame's payload may still
        # be referenced by an np.frombuffer view queued in the scheduler
        self._payload = bytearray(self._payload_len)
        self._state = "payload"
        self._got = 0
        if self._payload_len == 0:
            self._dispatch()
        return True

    # --------------------------------------------------------- dispatching
    def _dispatch(self) -> None:
        transport = self.transport
        transport.stats.frame_in(
            HEADER_SIZE + len(self._meta) + self._payload_len
        )
        request_id = self._request_id
        rows, payload = self._rows, self._payload
        lane = self._lane or None
        model = self._model or None
        deadline_ms = self._deadline_ms if self._deadline_ms > 0 else None
        discard = self._discard
        self._reset_recv()
        if discard:
            return  # meta was rejected; the error frame is already queued
        if transport._draining:
            self._send_error(
                ERR_UNAVAILABLE, "server is draining", request_id=request_id
            )
            return
        try:
            submit, num_pixels = transport._resolve_target(model)
        except LookupError as exc:
            self._send_error(
                ERR_UNKNOWN_MODEL, str(exc), request_id=request_id
            )
            return
        if num_pixels is None or num_pixels <= 0:
            self._send_error(
                ERR_UNAVAILABLE, "server has no pixel geometry yet",
                request_id=request_id,
            )
            return
        if rows == 0 or len(payload) != rows * num_pixels:
            self._send_error(
                ERR_MALFORMED,
                f"payload of {len(payload)} bytes does not match "
                f"rows={rows} x {num_pixels} pixels (empty requests are "
                "rejected)",
                request_id=request_id,
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
            handle = submit(
                images,
                timeout=transport.request_timeout_s,
                lane=lane,
                deadline_ms=deadline_ms,
            )
        except ValueError as exc:  # unknown lane, bad deadline
            self._send_error(ERR_MALFORMED, str(exc), request_id=request_id)
            return
        except TimeoutError as exc:  # backpressure window exhausted
            self._send_error(ERR_UNAVAILABLE, str(exc), request_id=request_id)
            return
        except ServeError as exc:  # closed / failed
            self._send_error(ERR_UNAVAILABLE, str(exc), request_id=request_id)
            return
        with self._out_lock:
            self.inflight += 1
        handle.add_done_callback(
            lambda h, rid=request_id: self._on_done(rid, h)
        )

    def _on_done(self, request_id: int, handle: PredictionHandle) -> None:
        """Completion callback — encode the response; never block."""
        try:
            labels = handle.result(timeout=0)
        except DeadlineExpiredError as exc:
            frame = encode_frame(
                FRAME_EXPIRED,
                request_id=request_id,
                payload=str(exc).encode("utf-8"),
            )
        except ValueError as exc:
            frame = encode_frame(
                FRAME_ERROR, code=ERR_MALFORMED, request_id=request_id,
                payload=str(exc).encode("utf-8"),
            )
        except ServeError as exc:
            frame = encode_frame(
                FRAME_ERROR, code=ERR_UNAVAILABLE, request_id=request_id,
                payload=str(exc).encode("utf-8"),
            )
        except BaseException as exc:  # pragma: no cover - defensive
            frame = encode_frame(
                FRAME_ERROR, code=ERR_INTERNAL, request_id=request_id,
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
    def _send_error(
        self,
        code: int,
        message: str,
        *,
        request_id: int | None = None,
        close: bool = False,
    ) -> None:
        if request_id is None:
            request_id = getattr(self, "_request_id", 0)
        self._enqueue(
            encode_frame(
                FRAME_ERROR, code=code, request_id=request_id,
                payload=message.encode("utf-8"),
            )
        )
        if close:
            self.closing = True

    def _enqueue(self, frame: bytes, finished: bool = False) -> None:
        """Queue encoded bytes for the event loop to flush (any thread)."""
        with self._out_lock:
            if finished:
                self.inflight -= 1
            if self.closed:
                return
            self._out.append(memoryview(frame))
        self.transport.stats.frame_out(len(frame))
        self.transport._request_flush(self)

    def has_output(self) -> bool:
        with self._out_lock:
            return bool(self._out)

    def idle(self) -> bool:
        """No response pending and nothing left to flush (drain check)."""
        with self._out_lock:
            return self.inflight == 0 and not self._out

    def handle_write(self) -> None:
        while True:
            with self._out_lock:
                if not self._out:
                    break
                head = self._out[0]
            try:
                n = self.sock.send(head)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.transport._close_connection(self)
                return
            with self._out_lock:
                if n == len(head):
                    self._out.popleft()
                else:
                    self._out[0] = head[n:]
                    return
        # queue flushed: drop write interest (and close if asked to)
        self.transport._request_flush(self)
        if self.closing:
            self.transport._close_connection(self)


class SocketTransport:
    """Framed binary front-end over a :class:`~repro.serve.router.Router`.

    One daemon thread runs a :mod:`selectors` event loop multiplexing
    the listener and every client connection; predictions complete via
    :meth:`PredictionHandle.add_done_callback`, so the loop never blocks
    on a result.  ``port=0`` binds an ephemeral port (read
    :attr:`port` / :attr:`address` after :meth:`start`).  Like
    :class:`HttpTransport` the transport *borrows* the router: ``close``
    drains in-flight responses (bounded by ``drain_timeout_s``) and
    stops the loop, but never closes the router.

    Backpressure: a full lane blocks ``submit`` on the loop thread (the
    scheduler's usual contract, bounded by ``request_timeout_s``), which
    pauses intake for *every* connection — the binary wire applies
    server-wide backpressure instead of buffering unbounded requests.

    A frame's model id selects the deployment (empty id = the default
    model, like bare HTTP ``/predict``); unknown ids answer
    ``ERR_UNKNOWN_MODEL``.
    """

    def __init__(
        self,
        router: "Router",
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
        max_payload_bytes: int = DEFAULT_MAX_PAYLOAD,
        drain_timeout_s: float = 5.0,
    ) -> None:
        if request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {request_timeout_s}"
            )
        if max_payload_bytes < 1:
            raise ValueError(
                f"max_payload_bytes must be >= 1, got {max_payload_bytes}"
            )
        self._router = router
        self._host = host
        self._requested_port = port
        self.request_timeout_s = request_timeout_s
        self.max_payload_bytes = max_payload_bytes
        self.drain_timeout_s = drain_timeout_s
        self.stats = TransportStats("binary")
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._thread: threading.Thread | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._lock = threading.Lock()
        self._conns: set[_Connection] = set()
        self._flush_pending: set[_Connection] = set()
        self._shutdown = False
        self._draining = False

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "SocketTransport":
        """Bind, start the event loop thread, begin accepting frames."""
        if self._thread is not None:
            return self
        self._router.attach_transport(self.stats)  # idempotent
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._shutdown = False
        self._draining = False
        self._thread = threading.Thread(
            target=self._run, name="uhd-binary-transport", daemon=True
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
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        return f"uhd://{self._host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, drain pending responses, stop the loop.

        Responses already owed to clients are flushed (bounded by
        ``drain_timeout_s``); predict frames that arrive *during* the
        drain are refused with ``ERR_UNAVAILABLE`` — same contract as
        the HTTP transport's answered-before-torn-down shutdown.
        """
        if self._thread is None:
            return
        with self._lock:
            self._shutdown = True
        self._wake()
        self._thread.join(timeout=self.drain_timeout_s + 10.0)
        self._thread = None
        self._listener = None

    def __enter__(self) -> "SocketTransport":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ----------------------------------------------------------- internals
    def _resolve_target(self, model: "str | None"):
        """(submit, num_pixels) for a frame's model id; LookupError on miss."""
        model_id = model if model is not None else self._router.default_model
        try:
            deployment = self._router.deployment(model_id)
        except ValueError as exc:
            raise LookupError(str(exc)) from None
        return deployment.submit, deployment.num_pixels

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is None:
            return
        try:
            wake.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # pipe already full: the loop is awake anyway

    def _request_flush(self, conn: _Connection) -> None:
        """Ask the loop to reconcile ``conn``'s write interest (any thread)."""
        with self._lock:
            self._flush_pending.add(conn)
        self._wake()

    def _apply_write_interest(self) -> None:
        with self._lock:
            pending, self._flush_pending = self._flush_pending, set()
        for conn in pending:
            if conn.closed:
                continue
            events = selectors.EVENT_READ
            if conn.has_output():
                events |= selectors.EVENT_WRITE
            try:
                self._selector.modify(conn.sock, events, conn)
            except (KeyError, ValueError, OSError):
                pass  # unregistered between the enqueue and now

    def _accept(self) -> None:
        assert self._listener is not None and self._selector is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
            conn = _Connection(self, sock)
            self._conns.add(conn)
            self.stats.connection_opened()
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close_connection(self, conn: _Connection) -> None:
        with conn._out_lock:
            if conn.closed:
                return
            conn.closed = True
            conn._out.clear()
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover
            pass
        self._conns.discard(conn)
        self.stats.connection_closed()

    def _run(self) -> None:
        assert self._selector is not None
        drain_deadline: float | None = None
        while True:
            try:
                events = self._selector.select(timeout=0.05)
            except OSError:  # pragma: no cover - fd closed under us
                break
            for key, mask in events:
                data = key.data
                if data == "listener":
                    self._accept()
                elif data == "wake":
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                else:
                    try:
                        if mask & selectors.EVENT_READ:
                            data.handle_read()
                        if mask & selectors.EVENT_WRITE and not data.closed:
                            data.handle_write()
                    except Exception:  # pragma: no cover - defensive
                        # one misbehaving connection must never take the
                        # event loop (and every other connection) with it
                        self._close_connection(data)
            self._apply_write_interest()
            if not self._shutdown:
                continue
            if self._listener is not None and not self._draining:
                # stop accepting; refuse new predicts; flush what is owed
                self._draining = True
                try:
                    self._selector.unregister(self._listener)
                except (KeyError, ValueError):
                    pass
                self._listener.close()
                drain_deadline = time.monotonic() + self.drain_timeout_s
            if all(conn.idle() for conn in self._conns) or (
                drain_deadline is not None
                and time.monotonic() > drain_deadline
            ):
                break
        for conn in list(self._conns):
            self._close_connection(conn)
        try:
            self._selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._wake_r.close()
        self._wake_w.close()
        self._selector.close()
        self._selector = None
        self._wake_r = None
        self._wake_w = None


# ----------------------------------------------------------------- client


def _recv_exact(sock: socket.socket, size: int) -> bytearray:
    """Read exactly ``size`` bytes or raise :class:`ConnectionError`."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        n = sock.recv_into(view[got:])
        if n == 0:
            raise ConnectionError(
                "server closed the connection mid-frame "
                f"({got}/{size} bytes received)"
            )
        got += n
    return buf


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
        header = _recv_exact(self._sock, HEADER_SIZE)
        (
            frame_type,
            code,
            lane_len,
            model_len,
            request_id,
            _deadline_ms,
            rows,
            payload_len,
        ) = _parse_header(header)
        meta_len = lane_len + model_len
        if meta_len:
            _recv_exact(self._sock, meta_len)
        payload = _recv_exact(self._sock, payload_len)
        if frame_type == FRAME_LABELS:
            if payload_len != rows * 8:
                raise FrameError(
                    f"labels payload of {payload_len} bytes does not match "
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
