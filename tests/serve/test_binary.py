"""The binary fast lane: codec, framing fuzz, and wire-level contracts.

Four layers of guarantees:

* **Codec** — ``encode_frame``/``decode_frame`` are exact inverses
  over generated frames, partial streams decode to ``None`` (never a
  wrong frame), and every bounds violation or corrupted header byte
  raises :class:`FrameError` instead of reading junk.
* **Server robustness** — garbage bytes, truncated frames, oversized
  declarations and mid-frame disconnects get an ERROR frame (where one
  can still be delivered) and never take the server down: the next
  well-formed client must be served normally.
* **Connection threads** — each connection has its own reader and
  writer thread: a full lane stalls only the connection that hit it, a
  client that hangs up with replies owed leaves counters conserved, and
  ``close()`` leaves no connection thread behind.
* **Semantics** — lanes, deadlines, and the error taxonomy behave
  exactly as over HTTP because it is the same scheduler: an expired
  request moves exactly one lane's ``expired`` counter and
  ``latency.excluded`` with it, and labels are bit-exact with both
  in-process submit and direct ``predict`` on every backend and start
  method.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    BinaryClient,
    DeadlineExpiredError,
    DeploymentSpec,
    HttpTransport,
    LaneConfig,
    Router,
    ServeConfig,
    ServeError,
    SocketTransport,
    parse_exposition,
    render_metrics,
)
from repro.serve.binary import (
    ERR_MALFORMED,
    FRAME_ERROR,
    FRAME_EXPIRED,
    FRAME_LABELS,
    FRAME_PREDICT,
    HEADER_SIZE,
    MAGIC,
    MAX_ID_BYTES,
    Frame,
    FrameError,
    decode_frame,
    encode_frame,
)


# ------------------------------------------------------------------ codec

#: ids short enough that any utf-8 encoding stays under MAX_ID_BYTES
_ids = st.text(max_size=MAX_ID_BYTES // 4)

_frames = st.builds(
    Frame,
    frame_type=st.sampled_from(
        [FRAME_PREDICT, FRAME_LABELS, FRAME_ERROR, FRAME_EXPIRED]
    ),
    code=st.integers(0, 255),
    lane=_ids,
    model=_ids,
    request_id=st.integers(0, 2**64 - 1),
    deadline_ms=st.floats(allow_nan=False),
    rows=st.integers(0, 2**32 - 1),
    payload=st.binary(max_size=512),
)


class TestCodec:
    def test_round_trip_preserves_every_field(self):
        payload = bytes(range(200))
        encoded = encode_frame(
            FRAME_PREDICT,
            lane="interactive",
            model="mnist-a",
            request_id=0xDEADBEEF,
            deadline_ms=1234.5,
            rows=4,
            payload=payload,
        )
        frame, consumed = decode_frame(encoded)
        assert consumed == len(encoded)
        assert frame == Frame(
            frame_type=FRAME_PREDICT,
            code=0,
            lane="interactive",
            model="mnist-a",
            request_id=0xDEADBEEF,
            deadline_ms=1234.5,
            rows=4,
            payload=payload,
        )

    def test_decode_consumes_only_one_frame(self):
        first = encode_frame(FRAME_LABELS, request_id=1, rows=1,
                             payload=b"\x07" + b"\x00" * 7)
        second = encode_frame(FRAME_ERROR, code=2, request_id=2,
                              payload=b"nope")
        stream = first + second
        frame, consumed = decode_frame(stream)
        assert frame.request_id == 1
        assert consumed == len(first)
        frame2, consumed2 = decode_frame(stream[consumed:])
        assert frame2.request_id == 2
        assert frame2.code == 2
        assert consumed + consumed2 == len(stream)

    def test_partial_stream_decodes_to_none_at_every_cut(self):
        encoded = encode_frame(
            FRAME_PREDICT, lane="bulk", request_id=9, rows=1, payload=b"px"
        )
        for cut in range(len(encoded)):
            assert decode_frame(encoded[:cut]) is None

    def test_bad_magic_raises(self):
        encoded = bytearray(encode_frame(FRAME_PREDICT, rows=0))
        encoded[:4] = b"HTTP"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(encoded))

    def test_unknown_frame_type_raises(self):
        encoded = bytearray(encode_frame(FRAME_PREDICT, rows=0))
        encoded[4] = 99
        with pytest.raises(FrameError, match="frame type"):
            decode_frame(bytes(encoded))
        with pytest.raises(FrameError, match="frame type"):
            encode_frame(99)

    def test_nonzero_reserved_field_raises(self):
        encoded = bytearray(encode_frame(FRAME_PREDICT, rows=0))
        encoded[10] = 1
        with pytest.raises(FrameError, match="reserved"):
            decode_frame(bytes(encoded))

    def test_oversized_payload_declaration_raises(self):
        encoded = encode_frame(FRAME_PREDICT, rows=1, payload=b"xx")
        with pytest.raises(FrameError, match="cap"):
            decode_frame(encoded, max_payload=1)

    def test_id_length_cap_enforced_both_ways(self):
        with pytest.raises(FrameError, match="capped"):
            encode_frame(FRAME_PREDICT, lane="x" * (MAX_ID_BYTES + 1))
        # a forged header declaring an oversized id must also be refused
        forged = bytearray(encode_frame(FRAME_PREDICT, rows=0))
        forged[6:8] = (MAX_ID_BYTES + 1).to_bytes(2, "little")
        with pytest.raises(FrameError, match="cap"):
            decode_frame(bytes(forged))

    def test_non_utf8_ids_raise(self):
        header_ok = encode_frame(FRAME_PREDICT, lane="ab", rows=0)
        forged = header_ok[:HEADER_SIZE] + b"\xff\xfe"
        with pytest.raises(FrameError, match="utf-8"):
            decode_frame(forged)

    @settings(max_examples=200, deadline=None)
    @given(frame=_frames)
    def test_generated_frames_round_trip_every_field(self, frame):
        encoded = encode_frame(
            frame.frame_type,
            code=frame.code,
            lane=frame.lane,
            model=frame.model,
            request_id=frame.request_id,
            deadline_ms=frame.deadline_ms,
            rows=frame.rows,
            payload=frame.payload,
        )
        assert decode_frame(encoded) == (frame, len(encoded))

    @settings(max_examples=300, deadline=None)
    @given(
        frame=_frames,
        offset=st.integers(0, HEADER_SIZE - 1),
        flip=st.integers(1, 255),
    )
    def test_any_header_byte_flip_decodes_or_raises_frame_error(
        self, frame, offset, flip
    ):
        """A corrupted header byte yields a valid frame, an incomplete
        stream (``None``), or :class:`FrameError` — no other exception."""
        encoded = bytearray(encode_frame(
            frame.frame_type,
            code=frame.code,
            lane=frame.lane,
            model=frame.model,
            request_id=frame.request_id,
            deadline_ms=frame.deadline_ms,
            rows=frame.rows,
            payload=frame.payload,
        ))
        encoded[offset] ^= flip
        try:
            decoded = decode_frame(bytes(encoded))
        except FrameError:
            return
        if decoded is not None:
            got, consumed = decoded
            assert isinstance(got, Frame)
            assert HEADER_SIZE <= consumed <= len(encoded)


# -------------------------------------------------------- live-wire fuzz


def _router(model_path, config: ServeConfig) -> Router:
    """One deployment: the router ``repro-uhd serve`` runs."""
    return Router({"m": DeploymentSpec(model_path, serve=config)})


@pytest.fixture()
def live(model_path):
    """A workers=0 router fronted by a SocketTransport, torn down clean."""
    with _router(model_path, ServeConfig(workers=0)) as router:
        with SocketTransport(router) as transport:
            yield router, transport


def _raw_connection(transport: SocketTransport) -> socket.socket:
    sock = socket.create_connection(
        (transport.host, transport.port), timeout=10.0
    )
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_error_frame(sock: socket.socket) -> Frame:
    buf = b""
    while True:
        frame_and_size = decode_frame(buf)
        if frame_and_size is not None:
            return frame_and_size[0]
        chunk = sock.recv(4096)
        assert chunk, "connection closed before an error frame arrived"
        buf += chunk


def _connection_is_closed(sock: socket.socket) -> bool:
    # the server may close with unread bytes in its receive buffer, in
    # which case TCP answers RST (reset) instead of a clean FIN
    try:
        return sock.recv(4096) == b""
    except (ConnectionResetError, OSError):
        return True


class TestServerSurvivesBadInput:
    def _server_still_works(self, live, serve_data, direct_labels):
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            labels = client.predict(serve_data.test_images[:4])
        assert np.array_equal(labels, direct_labels[:4])

    def test_garbage_bytes_get_an_error_frame_and_a_close(
        self, live, serve_data, direct_labels
    ):
        _, transport = live
        sock = _raw_connection(transport)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n" + b"\x00" * 64)
            frame = _read_error_frame(sock)
            assert frame.frame_type == FRAME_ERROR
            assert frame.code == ERR_MALFORMED
            assert b"magic" in frame.payload
            assert _connection_is_closed(sock)
        finally:
            sock.close()
        self._server_still_works(live, serve_data, direct_labels)

    def test_oversized_payload_declaration_is_refused(
        self, live, serve_data, direct_labels
    ):
        _, transport = live
        forged = bytearray(encode_frame(FRAME_PREDICT, request_id=5, rows=1))
        forged[32:36] = (2**31).to_bytes(4, "little")  # 2 GiB declared
        sock = _raw_connection(transport)
        try:
            sock.sendall(bytes(forged))
            frame = _read_error_frame(sock)
            assert frame.code == ERR_MALFORMED
            assert b"cap" in frame.payload
            assert _connection_is_closed(sock)
        finally:
            sock.close()
        self._server_still_works(live, serve_data, direct_labels)

    def test_truncated_frame_then_disconnect_is_survived(
        self, live, serve_data, direct_labels
    ):
        _, transport = live
        pixels = serve_data.num_pixels
        encoded = encode_frame(
            FRAME_PREDICT, request_id=1, rows=1,
            payload=bytes(serve_data.test_images[0].reshape(-1)),
        )
        sock = _raw_connection(transport)
        sock.sendall(encoded[: HEADER_SIZE + pixels // 2])
        sock.close()  # mid-frame hangup
        self._server_still_works(live, serve_data, direct_labels)

    def test_response_frames_get_an_error_and_a_close(
        self, live, serve_data, direct_labels
    ):
        """A client sending server->client frame types is out of protocol."""
        _, transport = live
        sock = _raw_connection(transport)
        try:
            sock.sendall(encode_frame(FRAME_LABELS, request_id=3, rows=0))
            frame = _read_error_frame(sock)
            assert frame.code == ERR_MALFORMED
            assert _connection_is_closed(sock)
        finally:
            sock.close()
        self._server_still_works(live, serve_data, direct_labels)

    def test_slow_client_dripping_bytes_reassembles(
        self, live, serve_data, direct_labels
    ):
        """One frame delivered in tiny chunks across many socket reads
        must decode into exactly one correct prediction."""
        _, transport = live
        images = serve_data.test_images[:3]
        encoded = encode_frame(
            FRAME_PREDICT, request_id=77, rows=3,
            payload=np.ascontiguousarray(
                images.reshape(3, -1), dtype=np.uint8
            ).tobytes(),
        )
        sock = _raw_connection(transport)
        try:
            for start in range(0, len(encoded), 97):
                sock.sendall(encoded[start:start + 97])
                time.sleep(0.002)
            buf = b""
            while True:
                decoded = decode_frame(buf)
                if decoded is not None:
                    break
                buf += sock.recv(4096)
            frame, _ = decoded
            assert frame.frame_type == FRAME_LABELS
            assert frame.request_id == 77
            labels = np.frombuffer(frame.payload, dtype="<i8")
            assert np.array_equal(labels, direct_labels[:3])
        finally:
            sock.close()


# ------------------------------------------------------------- semantics


class TestWireSemantics:
    def test_unknown_lane_errors_but_connection_survives(
        self, live, serve_data, direct_labels
    ):
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            with pytest.raises(ValueError, match="lane"):
                client.predict(serve_data.test_images[:2], lane="no-such")
            # semantic errors never poison the connection
            labels = client.predict(serve_data.test_images[:2])
            assert np.array_equal(labels, direct_labels[:2])

    def test_model_id_on_a_single_server_is_unknown(self, live, serve_data):
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            with pytest.raises(ValueError, match="model"):
                client.predict(serve_data.test_images[:1], model="mnist")

    def test_wrong_pixel_count_is_malformed(self, live):
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            bad = np.zeros((2, 7), dtype=np.uint8)  # wrong width
            with pytest.raises(ValueError, match="pixels"):
                client.predict(bad)

    @pytest.mark.parametrize("deadline_ms", [-1.0, float("nan"), float("inf")])
    def test_bad_deadline_is_malformed(
        self, live, serve_data, direct_labels, deadline_ms
    ):
        """0 means no deadline; any other one outside (0, inf) is refused,
        the same rule HTTP answers 400 for."""
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            with pytest.raises(ValueError, match="deadline_ms"):
                client.predict(
                    serve_data.test_images[:2], deadline_ms=deadline_ms
                )
            labels = client.predict(serve_data.test_images[:2], deadline_ms=0)
            assert np.array_equal(labels, direct_labels[:2])

    def test_empty_request_is_malformed(self, live, serve_data):
        _, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            empty = np.zeros((0, serve_data.num_pixels), dtype=np.uint8)
            with pytest.raises(ValueError, match="empty|rows"):
                client.predict(empty)

    def test_pipelined_responses_match_by_request_id(
        self, live, serve_data, direct_labels
    ):
        _, transport = live
        chunks = [serve_data.test_images[i:i + 4] for i in range(0, 16, 4)]
        with BinaryClient(transport.host, transport.port) as client:
            ids = [client.send(chunk) for chunk in chunks]
            got = {}
            for _ in ids:
                rid, labels = client.recv()
                got[rid] = labels
        assert sorted(got) == sorted(ids)
        for index, rid in enumerate(ids):
            assert np.array_equal(
                got[rid], direct_labels[index * 4:(index + 1) * 4]
            )

    def test_deadline_expiry_moves_exactly_one_lanes_counters(
        self, model_path, serve_data, hold_executor
    ):
        """A deadline that passes while queued must answer EXPIRED and
        move the *binary-submitting* lane's ``expired`` (and its
        histogram's ``excluded``) by exactly one — same contract, same
        scheduler, as HTTP's 504 path."""
        config = ServeConfig(
            workers=1,
            max_batch=1,
            max_wait_ms=0.0,
            lanes=(LaneConfig("slow", max_batch=1), LaneConfig("other")),
        )
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            with SocketTransport(router) as transport:
                # a deep single-row backlog makes a 1 ms deadline
                # unmeetable for the request queued behind it
                flood = [
                    router.submit("m", serve_data.test_images[i % 8], lane="slow")
                    for i in range(60)
                ]
                # one flood item held in predict, 59 queued, then EXPIRED
                release = held.release_once_accepted(61)
                with BinaryClient(transport.host, transport.port) as client:
                    with pytest.raises(DeadlineExpiredError, match="expired"):
                        client.predict(
                            serve_data.test_images[:1],
                            lane="slow",
                            deadline_ms=1.0,
                        )
                release.join()
                for handle in flood:
                    handle.result(timeout=60.0)
                stats = router.stats()
        by_name = {lane["name"]: lane for lane in stats["lanes"]}
        assert by_name["slow"]["expired"] == 1
        assert by_name["slow"]["latency"]["excluded"] == 1  # expired == excluded
        assert by_name["other"]["expired"] == 0
        assert by_name["other"]["latency"]["excluded"] == 0

    def test_draining_server_refuses_new_predicts(self, model_path, serve_data):
        with _router(model_path, ServeConfig(workers=0)) as router:
            transport = SocketTransport(router).start()
            client = BinaryClient(transport.host, transport.port)
            try:
                client.predict(serve_data.test_images[:1])
                transport.close()
                with pytest.raises((ServeError, ConnectionError, OSError)):
                    client.predict(serve_data.test_images[:1])
            finally:
                client.close()
                transport.close()

    def test_transport_counters_reach_server_stats(
        self, live, serve_data
    ):
        router, transport = live
        with BinaryClient(transport.host, transport.port) as client:
            client.predict(serve_data.test_images[:2])
            client.predict(serve_data.test_images[:2])
            (snap,) = router.stats()["transports"]
            assert snap["name"] == "binary"
            assert snap["connections_open"] == 1
            assert snap["frames_in"] == 2
            assert snap["frames_out"] == 2
            assert snap["bytes_in"] > 2 * serve_data.num_pixels
            assert snap["bytes_out"] > 0


# ---------------------------------------------------- connection threads


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` passes."""
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _lanes(router: Router) -> dict:
    return {lane["name"]: lane for lane in router.stats()["lanes"]}


def _binary_threads() -> list[str]:
    return [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("uhd-binary")
    ]


class TestConnectionThreads:
    def test_full_lane_stalls_only_its_own_connection(
        self, model_path, serve_data, direct_labels, hold_executor
    ):
        """Connection A fills lane ``slow`` behind a held executor, so its
        reader blocks in ``submit``; connection B's frame for lane
        ``fast`` must still be read and queued meanwhile."""
        config = ServeConfig(
            workers=1,
            lanes=(
                LaneConfig("slow", max_batch=1, queue_depth=1),
                LaneConfig("fast"),
            ),
        )
        images = serve_data.test_images
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            try:
                with SocketTransport(router) as transport, \
                        BinaryClient(transport.host, transport.port) as a, \
                        BinaryClient(transport.host, transport.port) as b:
                    # one held in predict, one queued, one blocked in put
                    sent_a = {a.send(images[i:i + 1], lane="slow"): i
                              for i in range(3)}
                    assert _wait_for(lambda: held.entered.is_set()
                                     and _lanes(router)["slow"]["depth"] == 1)
                    time.sleep(0.05)  # A's third frame reaches the full lane
                    rid_b = b.send(images[3:5], lane="fast")
                    assert _wait_for(
                        lambda: _lanes(router)["fast"]["submitted"] == 1,
                        timeout=5.0,
                    ), "B was not read while A waited on its full lane"
                    assert not held._gate.is_set()  # executor still held
                    held.release()
                    got_a = dict(a.recv() for _ in sent_a)
                    got_b = b.recv()
                    assert _wait_for(lambda: router.stats()["transports"][0][
                        "frames_out"] == 4)
                    (wire,) = router.stats()["transports"]
            finally:
                held.release()
        assert sorted(got_a) == sorted(sent_a)
        for rid, row in sent_a.items():
            assert np.array_equal(got_a[rid], direct_labels[row:row + 1])
        assert got_b[0] == rid_b
        assert np.array_equal(got_b[1], direct_labels[3:5])
        assert (wire["frames_in"], wire["frames_out"]) == (4, 4)  # once each

    def test_concurrent_pipelined_connections_answer_each_frame_once(
        self, model_path, serve_data, direct_labels
    ):
        """More connections and executors than cores, with a short switch
        interval: each connection's reader, writer and the executors'
        callbacks share its reply queue, and every frame must still be
        answered bit-exactly, exactly once, on its own connection."""
        import sys

        images = serve_data.test_images
        results: dict[int, dict] = {}
        errors: list[BaseException] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _router(model_path, ServeConfig(workers=3)) as router:
                with SocketTransport(router) as transport:

                    def client(index: int) -> None:
                        try:
                            with BinaryClient(
                                transport.host, transport.port
                            ) as conn:
                                sent = {
                                    conn.send(images[row:row + 2]): row
                                    for row in range(index, 48, 4)
                                }
                                got = dict(conn.recv() for _ in sent)
                            results[index] = {"sent": sent, "got": got}
                        except BaseException as exc:  # reported below
                            errors.append(exc)

                    threads = [
                        threading.Thread(target=client, args=(k,))
                        for k in range(4)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                    assert not any(thread.is_alive() for thread in threads)
                    (wire,) = router.stats()["transports"]
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert sorted(results) == [0, 1, 2, 3]
        for run in results.values():
            assert sorted(run["got"]) == sorted(run["sent"])
            for rid, row in run["sent"].items():
                assert np.array_equal(run["got"][rid], direct_labels[row:row + 2])
        assert wire["frames_in"] == wire["frames_out"] == 48

    def test_hangup_with_replies_owed_leaves_counters_conserved(
        self, model_path, serve_data, direct_labels
    ):
        """A client pipelines 8 frames and closes without reading: the
        next client is served bit-exactly, and once idle every lane holds
        ``submitted == served + expired + failed`` in /stats and
        /metrics, with no connection left open."""
        images = serve_data.test_images
        with _router(model_path, ServeConfig(workers=1)) as router:
            with SocketTransport(router) as transport:
                rude = BinaryClient(transport.host, transport.port)
                for i in range(8):
                    rude.send(images[i:i + 4])
                rude.close()
                with BinaryClient(transport.host, transport.port) as client:
                    labels = client.predict(images[8:16])
                assert np.array_equal(labels, direct_labels[8:16])

                def settled() -> bool:
                    doc = router.stats()
                    (lane,) = doc["lanes"]
                    return (
                        doc["transports"][0]["connections_open"] == 0
                        and lane["depth"] == 0
                        and lane["submitted"]
                        == lane["served"] + lane["expired"] + lane["failed"]
                    )

                assert _wait_for(settled)
                doc = router.stats()
                families = parse_exposition(render_metrics(router))
        (lane,) = doc["lanes"]
        assert lane["submitted"] == lane["served"] + lane["expired"] + lane["failed"]
        assert 1 <= lane["submitted"] <= 9
        totals = {
            kind: sum(
                value for name, labels, value in
                families[f"uhd_lane_{kind}_total"]["samples"]
                if name == f"uhd_lane_{kind}_total" and labels["lane"] == "default"
            )
            for kind in ("submitted", "served", "expired", "failed")
        }
        assert totals["submitted"] == lane["submitted"]
        assert totals["submitted"] == (
            totals["served"] + totals["expired"] + totals["failed"]
        )
        (open_now,) = [
            value for name, labels, value in
            families["uhd_transport_connections"]["samples"]
            if labels["transport"] == "binary"
        ]
        assert open_now == 0

    def test_close_leaves_no_connection_thread_behind(
        self, model_path, serve_data, direct_labels
    ):
        """``close()`` with an idle connection still open wakes and joins
        its reader and writer: no ``uhd-binary*`` thread survives."""
        with _router(model_path, ServeConfig(workers=0)) as router:
            transport = SocketTransport(router).start()
            client = BinaryClient(transport.host, transport.port)
            try:
                labels = client.predict(serve_data.test_images[:2])
                assert np.array_equal(labels, direct_labels[:2])
                assert "uhd-binary-reader" in _binary_threads()
                assert "uhd-binary-writer" in _binary_threads()
                transport.close()
                assert _binary_threads() == []
                assert router.stats()["transports"][0]["connections_open"] == 0
            finally:
                client.close()
                transport.close()


# --------------------------------------------------------- bit-exactness


class TestBitExactAcrossTransports:
    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_all_three_transports_agree_with_direct_predict(
        self, model_path, serve_data, direct_labels, backend
    ):
        """Contract 5 extends to the binary wire: in-process submit, HTTP
        and Socket transports must serve byte-identical labels on every
        backend."""
        config = ServeConfig(workers=1, backend=backend)
        images = serve_data.test_images[:16]
        want = direct_labels[:16]
        with _router(model_path, config) as router:
            got_inproc = router.submit("m", images).result(timeout=60.0)
            with HttpTransport(router) as http:
                got_http = _http_predict(http, images)
            with SocketTransport(router) as binary:
                with BinaryClient(binary.host, binary.port) as client:
                    got_binary = client.predict(images)
        assert np.array_equal(got_inproc, want)
        assert np.array_equal(got_http, want)
        assert np.array_equal(got_binary, want)


def _http_predict(transport: HttpTransport, images: np.ndarray) -> np.ndarray:
    import http.client
    import json

    conn = http.client.HTTPConnection(
        "127.0.0.1", transport.port, timeout=60.0
    )
    try:
        conn.request(
            "POST", "/predict",
            body=json.dumps({"images": images.tolist()}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        reply = json.loads(conn.getresponse().read())
        return np.asarray(reply["labels"])
    finally:
        conn.close()
