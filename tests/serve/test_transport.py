"""Transport layer: HTTP bit-exactness, endpoints, lanes/deadlines, errors.

The HTTP transport must be a pure pipe: labels served over the socket
are bit-exact with ``UHDClassifier.predict`` (and therefore with
in-process ``submit``) on every backend and start method — the router
routes, the transport only encodes/decodes.  Transports front only a
``Router``; here it is the one-deployment router ``repro-uhd serve``
builds.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    DeadlineExpiredError,
    DeploymentSpec,
    HttpTransport,
    LaneConfig,
    Router,
    ServeConfig,
    SocketTransport,
    Transport,
    TransportStats,
    UHDServer,
)


def _router(model_path, config: ServeConfig) -> Router:
    """One deployment: the router ``repro-uhd serve`` runs."""
    return Router({"m": DeploymentSpec(model_path, serve=config)})


def _post_json(address: str, payload: dict, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        address + "/predict",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get_json(address: str, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(address + path, timeout=timeout) as response:
        return json.load(response)


#: two executor threads behind one deployment
POOL = ServeConfig(workers=2, max_batch=16, max_wait_ms=1.0)


def _pool_round_trip(router: Router, images: np.ndarray) -> tuple:
    """(labels, /healthz) for ``images`` posted to ``router`` over HTTP."""
    with HttpTransport(router) as transport:
        reply = _post_json(
            transport.address, {"images": images.tolist()}, timeout=60.0
        )
        health = _get_json(transport.address, "/healthz")
    return np.asarray(reply["labels"]), health


def _serve_pool_over_http(model_path: str, images: np.ndarray) -> tuple:
    """:func:`_pool_round_trip` from a fresh :data:`POOL` router (a
    child's side)."""
    with _router(model_path, POOL) as router:
        return _pool_round_trip(router, images)


@pytest.fixture
def inproc_http(model_path):
    """An HTTP transport over the in-process fallback (fast, no pool)."""
    config = ServeConfig(
        workers=0,
        max_batch=16,
        lanes=(
            LaneConfig("interactive", max_batch=16, max_wait_ms=1.0, weight=4.0),
            LaneConfig("bulk", max_wait_ms=20.0),
        ),
    )
    with _router(model_path, config) as router:
        with HttpTransport(router) as transport:
            yield router, transport


class TestHttpPredict:
    def test_json_round_trip_bit_exact(
        self, inproc_http, serve_data, direct_labels
    ):
        _, transport = inproc_http
        reply = _post_json(
            transport.address, {"images": serve_data.test_images[:8].tolist()}
        )
        assert reply["rows"] == 8
        assert np.array_equal(np.asarray(reply["labels"]), direct_labels[:8])

    def test_raw_bytes_round_trip_bit_exact(
        self, inproc_http, serve_data, direct_labels
    ):
        _, transport = inproc_http
        body = np.ascontiguousarray(
            serve_data.test_images[:5], dtype=np.uint8
        ).tobytes()
        request = urllib.request.Request(
            transport.address + "/predict",
            data=body,
            headers={"Content-Type": "application/octet-stream"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            reply = json.load(response)
        assert np.array_equal(np.asarray(reply["labels"]), direct_labels[:5])

    def test_octet_stream_response_bit_exact(
        self, inproc_http, serve_data, direct_labels
    ):
        """``Accept: application/octet-stream`` skips the JSON response
        codec: the body is raw little-endian int64 labels, with the row
        count echoed in ``X-UHD-Rows``."""
        _, transport = inproc_http
        request = urllib.request.Request(
            transport.address + "/predict",
            data=np.ascontiguousarray(
                serve_data.test_images[:6], dtype=np.uint8
            ).tobytes(),
            headers={
                "Content-Type": "application/octet-stream",
                "Accept": "application/octet-stream",
            },
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.headers["Content-Type"] == (
                "application/octet-stream"
            )
            assert int(response.headers["X-UHD-Rows"]) == 6
            raw = response.read()
        labels = np.frombuffer(raw, dtype="<i8")
        assert np.array_equal(labels, direct_labels[:6])

    def test_lane_selected_via_body_and_query(
        self, inproc_http, serve_data, direct_labels
    ):
        router, transport = inproc_http
        reply = _post_json(
            transport.address,
            {"images": serve_data.test_images[:2].tolist(), "lane": "bulk"},
        )
        assert reply["lane"] == "bulk"
        assert np.array_equal(np.asarray(reply["labels"]), direct_labels[:2])
        body = np.ascontiguousarray(
            serve_data.test_images[:2], dtype=np.uint8
        ).tobytes()
        request = urllib.request.Request(
            transport.address + "/predict?lane=bulk&deadline_ms=60000",
            data=body,
            headers={"Content-Type": "application/octet-stream"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert json.load(response)["lane"] == "bulk"
        lanes = {lane["name"]: lane for lane in router.stats()["lanes"]}
        assert lanes["bulk"]["served_rows"] == 4

    def test_unknown_lane_is_400(self, inproc_http, serve_data):
        _, transport = inproc_http
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(
                transport.address,
                {"images": serve_data.test_images[:1].tolist(), "lane": "vip"},
            )
        assert err.value.code == 400
        assert "unknown lane" in json.load(err.value)["error"]

    def test_wrong_pixel_count_is_400(self, inproc_http):
        _, transport = inproc_http
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(transport.address, {"images": [[1, 2, 3]]})
        assert err.value.code == 400
        assert "pixels" in json.load(err.value)["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"images": [[0.5] * 4]},  # non-integer intensities
            {"images": [[300] * 4]},  # out of uint8 range
            {"wrong_key": []},
            {"images": [[1, 2], [3]]},  # ragged
        ],
    )
    def test_malformed_payloads_are_400(self, inproc_http, payload):
        _, transport = inproc_http
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_json(transport.address, payload)
        assert err.value.code == 400

    @pytest.mark.parametrize(
        "query, deadline_ms",
        [("?deadline_ms=nan", None), ("?deadline_ms=inf", None),
         ("", True), ("", -5)],
        ids=["query-nan", "query-inf", "json-true", "json-negative"],
    )
    def test_deadline_outside_the_rule_is_400(
        self, inproc_http, serve_data, query, deadline_ms
    ):
        """One deadline rule on every wire: None, or finite and > 0."""
        _, transport = inproc_http
        body = {"images": serve_data.test_images[:1].tolist()}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        request = urllib.request.Request(
            transport.address + "/predict" + query,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400
        assert "deadline_ms" in json.load(err.value)["error"]

    def test_invalid_json_is_400(self, inproc_http):
        _, transport = inproc_http
        request = urllib.request.Request(
            transport.address + "/predict",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400

    def test_raw_bytes_length_mismatch_is_400(self, inproc_http):
        _, transport = inproc_http
        request = urllib.request.Request(
            transport.address + "/predict",
            data=b"\x00" * 13,  # not a multiple of num_pixels
            headers={"Content-Type": "application/octet-stream"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30.0)
        assert err.value.code == 400

    def test_unknown_path_is_404(self, inproc_http):
        _, transport = inproc_http
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(transport.address, "/nope")
        assert err.value.code == 404

    def test_keep_alive_connection_survives_an_error_response(
        self, inproc_http, serve_data, direct_labels
    ):
        """An error reply must not poison a persistent connection: the
        server closes it (Connection: close) instead of leaving unread
        body bytes to be parsed as the next request line."""
        import http.client

        _, transport = inproc_http
        conn = http.client.HTTPConnection("127.0.0.1", transport.port,
                                          timeout=30.0)
        try:
            # malformed deadline in the query string, with an unread body
            conn.request(
                "POST", "/predict?deadline_ms=notanumber",
                body=json.dumps(
                    {"images": serve_data.test_images[:2].tolist()}
                ),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert response.headers.get("Connection") == "close"
            response.read()
            # a fresh request (http.client reconnects transparently after
            # a server-side close) must succeed with correct labels
            conn.request(
                "POST", "/predict",
                body=json.dumps(
                    {"images": serve_data.test_images[:2].tolist()}
                ),
                headers={"Content-Type": "application/json"},
            )
            reply = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        assert np.array_equal(np.asarray(reply["labels"]), direct_labels[:2])

    def test_close_waits_for_in_flight_handlers(
        self, model_path, serve_data, direct_labels, monkeypatch
    ):
        """transport.close() must join handler threads: a request accepted
        before close gets its answer, not a reset."""
        with _router(model_path, ServeConfig(workers=0)) as router:
            # a gated predict holds the request inside its handler thread
            # (the in-process executor) until the gate opens
            model = router.deployment("m")._model
            real_predict = model.predict
            entered, gate = threading.Event(), threading.Event()

            def gated_predict(images):
                entered.set()
                assert gate.wait(30.0)
                return real_predict(images)

            monkeypatch.setattr(model, "predict", gated_predict)
            transport = HttpTransport(router).start()
            reply: dict = {}

            def slow_post():
                reply.update(
                    _post_json(
                        transport.address,
                        {"images": serve_data.test_images[:1].tolist()},
                        timeout=60.0,
                    )
                )

            thread = threading.Thread(target=slow_post)
            closer = threading.Thread(target=transport.close)
            try:
                thread.start()
                assert entered.wait(30.0)  # the handler is predicting
                assert not reply
                closer.start()
                # longer than the accept loop's 0.5 s shutdown poll
                closer.join(timeout=1.5)
                assert closer.is_alive(), (
                    "close() returned while a handler was still in flight"
                )
            finally:
                gate.set()
            closer.join(timeout=30.0)  # must return once the handler answered
            assert not closer.is_alive()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert np.array_equal(
            np.asarray(reply["labels"]), direct_labels[:1]
        )


class TestHttpObservability:
    def test_healthz_reports_ok_and_probe(self, inproc_http):
        _, transport = inproc_http
        health = _get_json(transport.address, "/healthz")
        assert health["ok"] is True and health["status"] == "ok"
        (model,) = health["models"]
        assert model["mode"] == "inproc"
        assert model["lanes"] == ["interactive", "bulk"]
        assert model["probe"]["deterministic"] is True
        assert model["probe"]["median_ms"] > 0

    def test_stats_exposes_lanes_and_cache(
        self, inproc_http, serve_data
    ):
        _, transport = inproc_http
        _post_json(
            transport.address, {"images": serve_data.test_images[:4].tolist()}
        )
        stats = _get_json(transport.address, "/stats")
        assert stats["requests"] >= 1
        lanes = {lane["name"]: lane for lane in stats["lanes"]}
        assert lanes["interactive"]["served_rows"] >= 4  # default lane
        assert lanes["bulk"]["expired"] == 0
        # the operator's one-stop view: encoder cache surfaces here too
        assert stats["cache"]["entries"] >= 1
        assert stats["cache"]["table_bytes"] > 0

    def test_every_reply_a_client_holds_is_counted(
        self, inproc_http, serve_data
    ):
        """A reply is counted in ``frames_out`` before its bytes are
        written: after each of 200 sequential keep-alive octet POSTs the
        wire counters already hold every reply the client received."""
        import http.client

        router, transport = inproc_http
        body = np.ascontiguousarray(
            serve_data.test_images[:1], dtype=np.uint8
        ).tobytes()
        headers = {
            "Content-Type": "application/octet-stream",
            "Accept": "application/octet-stream",
        }
        conn = http.client.HTTPConnection("127.0.0.1", transport.port,
                                          timeout=30.0)
        uncounted = []
        try:
            for received in range(1, 201):
                conn.request("POST", "/predict", body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                (wire,) = router.stats()["transports"]
                if wire["frames_out"] != received:
                    uncounted.append((received, wire["frames_out"]))
        finally:
            conn.close()
        assert not uncounted, uncounted

    def test_healthz_unavailable_after_close(self, model_path):
        router = _router(model_path, ServeConfig(workers=0)).start()
        transport = HttpTransport(router).start()
        try:
            router.close()
            with pytest.raises(urllib.error.HTTPError) as err:
                _get_json(transport.address, "/healthz")
            assert err.value.code == 503
        finally:
            transport.close()


class TestWireStats:
    def test_concurrent_counts_are_never_lost(self):
        """Every transport of a kind on a router shares one counter set,
        updated by all of their connection threads at once."""
        stats = TransportStats("http")

        def hammer() -> None:
            for _ in range(2000):
                stats.connection_opened()
                stats.frame_in(3)
                stats.frame_out(5)
                stats.connection_closed()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stats.snapshot() == {
            "name": "http",
            "connections_open": 0,
            "connections_total": 16000,
            "frames_in": 16000,
            "frames_out": 16000,
            "bytes_in": 48000,
            "bytes_out": 80000,
            "malformed": 0,
        }


class TestHttpSocket:
    def test_accepted_connections_disable_nagle(self, inproc_http):
        """Each accepted HTTP socket has TCP_NODELAY set, so a reply's
        body never waits out the client's delayed ACK of its headers."""
        import socket

        _, transport = inproc_http
        handler = transport._server.RequestHandlerClass
        seen: list[int] = []
        setup = handler.setup

        def recording_setup(self):
            setup(self)
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        handler.setup = recording_setup
        try:
            for _ in range(2):  # a fresh connection each time
                assert _get_json(transport.address, "/healthz")["ok"]
        finally:
            handler.setup = setup
        assert len(seen) == 2 and all(seen), seen

    def test_both_wires_listen_with_the_shared_backlog(
        self, model_path, monkeypatch
    ):
        """Neither wire keeps socketserver's listen backlog of 5, which a
        burst of concurrent connects overflows."""
        import socket

        backlogs: list[int] = []
        listen = socket.socket.listen

        def recording_listen(sock, backlog):
            backlogs.append(backlog)
            return listen(sock, backlog)

        monkeypatch.setattr(socket.socket, "listen", recording_listen)
        with _router(model_path, ServeConfig(workers=0)) as router:
            for wire in (HttpTransport, SocketTransport):
                with wire(router):
                    pass
        assert backlogs == [Transport.listen_backlog] * 2
        assert Transport.listen_backlog >= 128


class TestHttpPool:
    """The real deployment shape: handler threads feeding the executors."""

    def test_pool_round_trip_bit_exact_under_both_start_methods(
        self, model_path, serve_data, direct_labels, in_child
    ):
        """Bit-exact over HTTP here, and in a child process started (by
        each start method) while this router's executors are live."""
        with _router(model_path, POOL) as router:
            here = _pool_round_trip(router, serve_data.test_images)
            child = in_child(_serve_pool_over_http, model_path, serve_data.test_images)
        for labels, health in (here, child):
            assert np.array_equal(labels, direct_labels)
            (model,) = health["models"]
            assert model["mode"] == "pool" and model["workers_live"] == 2

    @pytest.mark.parametrize("backend", ["packed", "reference"])
    def test_backends_bit_exact_over_http(
        self, model_path, serve_data, direct_labels, backend
    ):
        config = ServeConfig(workers=1, backend=backend)
        with _router(model_path, config) as router:
            with HttpTransport(router) as transport:
                reply = _post_json(
                    transport.address,
                    {"images": serve_data.test_images.tolist()},
                    timeout=60.0,
                )
        assert np.array_equal(np.asarray(reply["labels"]), direct_labels)

    def test_concurrent_posts_coalesce_and_stay_bit_exact(
        self, model_path, serve_data, direct_labels, hold_executor
    ):
        """Many handler threads feed the scheduler at once — answers must
        come back bit-exact and matched to their own request.  The
        executor is held on the first post (alone in its batch) until the
        other 15 are queued, so they coalesce however the client threads
        are scheduled."""
        config = ServeConfig(workers=1, max_batch=64, max_wait_ms=20.0)
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            with HttpTransport(router) as transport:
                results: dict[int, np.ndarray] = {}
                errors: list[Exception] = []

                def post(index: int) -> None:
                    try:
                        reply = _post_json(
                            transport.address,
                            {"images": serve_data.test_images[index].tolist()},
                            timeout=60.0,
                        )
                        results[index] = np.asarray(reply["labels"])
                    except Exception as exc:  # pragma: no cover - surfaced below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=post, args=(i,)) for i in range(16)
                ]
                threads[0].start()
                assert held.entered.wait(timeout=60.0)
                release = held.release_once_accepted(16)
                for thread in threads[1:]:
                    thread.start()
                release.join(timeout=60.0)
                for thread in threads:
                    thread.join(timeout=60.0)
                stats = router.stats()
        assert not errors
        for index, labels in results.items():
            assert np.array_equal(labels, direct_labels[index:index + 1])
        assert len(results) == 16
        assert stats["batches"] < 16  # concurrency actually coalesced

    def test_burst_of_posts_is_released_within_seconds(
        self, model_path, serve_data, direct_labels, hold_executor
    ):
        """16 posts sent at once with ``max_batch=8``: the executor takes
        several into its first batch before it is held, so fewer than 16
        ever wait in the lanes; the held executor must still be released
        within seconds, not at its 60 s gate."""
        config = ServeConfig(workers=1, max_batch=8, max_wait_ms=20.0)
        results: dict[int, np.ndarray] = {}
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            try:
                with HttpTransport(router) as transport:

                    def post(index: int) -> None:
                        reply = _post_json(
                            transport.address,
                            {"images": serve_data.test_images[index].tolist()},
                            timeout=60.0,
                        )
                        results[index] = np.asarray(reply["labels"])

                    threads = [
                        threading.Thread(target=post, args=(i,), daemon=True)
                        for i in range(16)
                    ]
                    release = held.release_once_accepted(16)
                    for thread in threads:
                        thread.start()
                    release.join(timeout=10.0)
                    assert not release.is_alive()
                    for thread in threads:
                        thread.join(timeout=30.0)
            finally:
                held.release()
        assert sorted(results) == list(range(16))
        for index, labels in results.items():
            assert np.array_equal(labels, direct_labels[index:index + 1])


class TestDeadlinesThroughTheServer:
    def test_deadline_expires_behind_a_flood(
        self, model_path, serve_data, hold_executor
    ):
        """A tiny deadline behind a deep single-row queue cannot be met:
        the handle fails with DeadlineExpiredError, never serves late."""
        config = ServeConfig(workers=1, max_batch=1, max_wait_ms=0.0)
        with UHDServer(model_path, config) as server:
            held = hold_executor(server)
            flood = [
                server.submit(serve_data.test_images[i % 8]) for i in range(60)
            ]
            doomed = server.submit(
                serve_data.test_images[0], deadline_ms=1.0
            )
            held.release_once_accepted(61).join()
            with pytest.raises(DeadlineExpiredError, match="expired"):
                doomed.result(timeout=30.0)
            for handle in flood:
                handle.result(timeout=60.0)
            stats = server.stats()
        assert stats.expired >= 1
        assert sum(lane.expired for lane in stats.lanes) == stats.expired

    def test_flood_is_released_when_the_executor_wakes_late(
        self, model_path, serve_data, hold_executor, monkeypatch
    ):
        """An executor that wakes only at its heartbeat expires the 1 ms
        deadline before it is held, so the lanes never hold all 60 items
        at once; the held executor must still be released within seconds,
        not at its 60 s gate."""
        config = ServeConfig(workers=1, max_batch=1, max_wait_ms=0.0)
        with UHDServer(model_path, config) as server:
            held = hold_executor(server)
            # puts no longer wake the idle executor: it takes the flood's
            # first part at its next 0.1 s heartbeat
            monkeypatch.setattr(
                server._scheduler._not_empty, "notify_all", lambda: None
            )
            try:
                flood = [
                    server.submit(serve_data.test_images[i % 8])
                    for i in range(60)
                ]
                doomed = server.submit(serve_data.test_images[0], deadline_ms=1.0)
                release = held.release_once_accepted(61)
                release.join(timeout=5.0)
                assert not release.is_alive()
                with pytest.raises(DeadlineExpiredError, match="expired"):
                    doomed.result(timeout=5.0)
                for handle in flood:
                    handle.result(timeout=10.0)
            finally:
                held.release()
        assert server.stats().expired == 1

    def test_invalid_deadline_rejected(self, model_path, serve_data):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            for deadline_ms in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="deadline_ms"):
                    server.submit(
                        serve_data.test_images[:1], deadline_ms=deadline_ms
                    )


class TestLaneServing:
    def test_unknown_lane_rejected_at_submit(self, model_path, serve_data):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            with pytest.raises(ValueError, match="unknown lane"):
                server.submit(serve_data.test_images[:1], lane="vip")

    @pytest.mark.parametrize("workers", [0, 1])
    def test_oversize_request_splits_to_the_lane_bound(
        self, model_path, serve_data, direct_labels, workers
    ):
        """A request routed to a narrow lane splits to *that* lane's
        max_batch, not the server-wide bound — and both modes count the
        parts the same way: one served item and one queue wait each."""
        config = ServeConfig(
            workers=workers,
            max_batch=64,
            lanes=(
                LaneConfig("wide", max_batch=64),
                LaneConfig("narrow", max_batch=8, max_wait_ms=0.0),
            ),
        )
        with UHDServer(model_path, config) as server:
            got = server.predict(
                serve_data.test_images, lane="narrow", timeout=60.0
            )
            stats = server.stats()
        assert np.array_equal(got, direct_labels)
        lanes = {s.name: s for s in stats.lanes}
        rows = serve_data.test_images.shape[0]
        parts = -(-rows // 8)  # split into 8-row parts
        assert lanes["narrow"].submitted == lanes["narrow"].served == parts
        assert lanes["narrow"].latency.count == parts
        assert stats.batches == parts
        assert stats.max_batch_seen <= 8

    def test_lane_stats_surface_in_pool_mode(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(
            workers=1,
            lanes=(
                LaneConfig("interactive", max_batch=16, max_wait_ms=1.0),
                LaneConfig("bulk", max_wait_ms=20.0),
            ),
        )
        with UHDServer(model_path, config) as server:
            assert np.array_equal(
                server.predict(serve_data.test_images[:8], lane="interactive",
                               timeout=60.0),
                direct_labels[:8],
            )
            assert np.array_equal(
                server.predict(serve_data.test_images[:4], lane="bulk",
                               timeout=60.0),
                direct_labels[:4],
            )
            stats = server.stats()
        lanes = {s.name: s for s in stats.lanes}
        assert lanes["interactive"].served_rows == 8
        assert lanes["bulk"].served_rows == 4
        assert stats.as_dict()["lanes"][0]["name"] == "interactive"


class TestGracefulShutdown:
    def test_close_default_honors_config_drain_timeout(
        self, model_path, serve_data, direct_labels
    ):
        """close() with no argument uses ServeConfig.drain_timeout_s —
        submitted work completes inside that window."""
        config = ServeConfig(
            workers=1, max_batch=16, max_wait_ms=0.0, drain_timeout_s=10.0
        )
        server = UHDServer(model_path, config).start()
        handle = server.submit(serve_data.test_images[:8])
        server.close()  # no explicit timeout: config value applies
        assert np.array_equal(handle.result(timeout=5.0), direct_labels[:8])

    def test_zero_drain_timeout_fails_queued_loudly(
        self, model_path, serve_data
    ):
        from repro.serve import ServeError

        config = ServeConfig(
            workers=1, max_batch=1, max_wait_ms=0.0, drain_timeout_s=0.0
        )
        server = UHDServer(model_path, config).start()
        handles = [server.submit(serve_data.test_images[i]) for i in range(40)]
        server.close()
        outcomes = 0
        for handle in handles:
            try:
                handle.result(timeout=5.0)
            except ServeError:
                pass
            outcomes += 1
        assert outcomes == len(handles)

    def test_cli_signal_helper_converts_sigterm_to_drain(self):
        """The CLI's handler turns SIGTERM into a stop event (drain path)
        instead of the default kill, and restores handlers after."""
        import os
        import signal

        from repro.cli import _graceful_shutdown

        before = signal.getsignal(signal.SIGTERM)
        with _graceful_shutdown() as stop:
            assert not stop.is_set()
            os.kill(os.getpid(), signal.SIGTERM)
            assert stop.wait(5.0)
        assert signal.getsignal(signal.SIGTERM) is before
