"""Failure paths as invariants, at every executor count.

Each accepted request is answered or failed exactly once, never late,
and the counters are conserved: once nothing is queued or in flight,
every lane holds ``submitted == served + expired + failed`` in ``/stats``
and in ``/metrics`` alike.  A ``predict`` that raises fails only the
batch it was running; the executor that ran it goes on serving.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (
    DeadlineExpiredError,
    DeploymentSpec,
    LaneConfig,
    Router,
    ServeConfig,
    ServeError,
    UHDServer,
    parse_exposition,
    render_metrics,
)

#: four-row requests on a four-row lane: every request is one batch of
#: its own, so a poisoned request shares its batch with nobody
ROWS = 4
LANES = (LaneConfig("solo", max_batch=ROWS),)


def _poison(images: np.ndarray) -> np.ndarray:
    """The request the injected predict refuses: every pixel saturated."""
    return np.full_like(images, 255)


def _refuse_poison(server: UHDServer, monkeypatch) -> list[int]:
    """Make ``server``'s model raise on any batch holding a poisoned row.

    Returns the list the wrapper appends each refused batch's size to.
    """
    real_predict = server._model.predict
    refused: list[int] = []

    def predict(images):
        if (images.reshape(images.shape[0], -1) == 255).all(axis=1).any():
            refused.append(images.shape[0])
            raise RuntimeError("injected predict failure")
        return real_predict(images)

    monkeypatch.setattr(server._model, "predict", predict)
    return refused


def _metric(families: dict, family: str, **labels: str) -> float:
    for sample_name, sample_labels, value in families[family]["samples"]:
        if sample_name == family and all(
            sample_labels.get(k) == v for k, v in labels.items()
        ):
            return value
    raise KeyError((family, labels))


@pytest.mark.parametrize("workers", [0, 2])
class TestPredictFailure:
    def test_failure_fails_only_its_batch_once_and_executor_serves_on(
        self, model_path, serve_data, direct_labels, monkeypatch, workers
    ):
        images = serve_data.test_images
        config = ServeConfig(workers=workers, lanes=LANES)
        with UHDServer(model_path, config) as server:
            refused = _refuse_poison(server, monkeypatch)
            answers: dict[int, int] = {}
            lock = threading.Lock()

            def on_done(handle):
                with lock:
                    answers[id(handle)] = answers.get(id(handle), 0) + 1

            poisoned = server.submit(_poison(images[:ROWS]))
            poisoned.add_done_callback(on_done)
            with pytest.raises(ServeError, match="predict failed"):
                poisoned.result(timeout=30.0)
            # the same executor(s) keep serving, bit-exactly
            handles = []
            for first in range(0, 8 * ROWS, ROWS):
                handle = server.submit(images[first:first + ROWS])
                handle.add_done_callback(on_done)
                handles.append((first, handle))
            for first, handle in handles:
                got = handle.result(timeout=30.0)
                assert np.array_equal(got, direct_labels[first:first + ROWS])
            health = server.healthz()
            stats = server.stats()
        assert refused == [ROWS]  # one batch refused, exactly once
        assert answers[id(poisoned)] == 1
        assert all(answers[id(handle)] == 1 for _, handle in handles)
        assert health["ok"] and health["workers_live"] == workers
        (lane,) = stats.lanes
        assert (lane.served, lane.failed, lane.expired) == (8, 1, 0)
        assert stats.failed == 1

    def test_concurrent_failures_touch_no_other_request(
        self, model_path, serve_data, direct_labels, monkeypatch, workers
    ):
        """Poisoned and clean requests from several threads at once: each
        poisoned one fails, each clean one is answered, each exactly once."""
        images = serve_data.test_images
        config = ServeConfig(workers=workers, lanes=LANES)
        outcomes: list[tuple[int, bool, object]] = []
        lock = threading.Lock()
        with UHDServer(model_path, config) as server:
            refused = _refuse_poison(server, monkeypatch)

            def client(offset: int) -> None:
                for step in range(6):
                    first = (offset * 6 + step) * ROWS % (60 - ROWS)
                    poison = step % 3 == 0
                    rows = images[first:first + ROWS]
                    handle = server.submit(_poison(rows) if poison else rows)
                    try:
                        result: object = handle.result(timeout=30.0)
                    except ServeError as exc:
                        result = exc
                    with lock:
                        outcomes.append((first, poison, result))

            threads = [threading.Thread(target=client, args=(k,)) for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            stats = server.stats()
        assert len(outcomes) == 18
        for first, poison, result in outcomes:
            if poison:
                assert isinstance(result, ServeError), result
            else:
                assert np.array_equal(result, direct_labels[first:first + ROWS])
        assert len(refused) == 6
        (lane,) = stats.lanes
        assert (lane.submitted, lane.served, lane.failed) == (18, 12, 6)


@pytest.mark.parametrize("workers", [0, 2])
def test_counters_conserved_in_stats_and_metrics(
    model_path, serve_data, monkeypatch, workers
):
    """Answered, expired and failed requests in one run: every lane item
    lands in exactly one of the three, in /stats and /metrics."""
    images = serve_data.test_images
    config = ServeConfig(workers=workers, lanes=LANES)
    with Router({"m": DeploymentSpec(model_path, serve=config)}) as router:
        _refuse_poison(router.deployment("m"), monkeypatch)
        handles = []
        for index in range(12):
            rows = images[index * ROWS:(index + 1) * ROWS]
            if index % 4 == 1:
                handles.append(router.submit("m", _poison(rows)))
            elif index % 4 == 3:  # expires before any executor can take it
                handles.append(router.submit("m", rows, deadline_ms=1e-6))
            else:
                handles.append(router.submit("m", rows))
        kinds = {"ok": 0, "expired": 0, "failed": 0}
        for handle in handles:
            try:
                handle.result(timeout=30.0)
                kinds["ok"] += 1
            except DeadlineExpiredError:
                kinds["expired"] += 1
            except ServeError:
                kinds["failed"] += 1
        document = router.stats("m")
        families = parse_exposition(render_metrics(router))
    assert kinds == {"ok": 6, "expired": 3, "failed": 3}
    (lane,) = document["lanes"]
    assert lane["depth"] == 0
    assert (lane["served"], lane["expired"], lane["failed"]) == (6, 3, 3)
    assert lane["submitted"] == lane["served"] + lane["expired"] + lane["failed"]
    assert document["failed"] == 3 and document["expired"] == 3
    latency = lane["latency"]
    assert latency["count"] + latency["excluded"] == lane["submitted"]
    labels = {"model": "m", "lane": "solo"}
    submitted = _metric(families, "uhd_lane_submitted_total", **labels)
    served = _metric(families, "uhd_lane_served_total", **labels)
    expired = _metric(families, "uhd_lane_expired_total", **labels)
    failed = _metric(families, "uhd_lane_failed_total", **labels)
    assert (submitted, served, expired, failed) == (12, 6, 3, 3)
    assert _metric(families, "uhd_failed_total", model="m") == 3


class TestExecutorDeath:
    def test_dead_executor_makes_the_server_unavailable(
        self, model_path, serve_data, direct_labels, monkeypatch
    ):
        """An exception escaping the executor loop (a bug, never a predict
        failure) marks the server failed: healthz reads unavailable and
        new requests are refused instead of queueing for nobody — until
        a reload restarts the dead executor."""
        escaped: list[BaseException] = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: escaped.append(args.exc_value)
        )
        with UHDServer(model_path, ServeConfig(workers=1)) as server:
            gate = threading.Event()
            real_predict = server._model.predict

            def gated_predict(images):
                gate.wait(30.0)
                return real_predict(images)

            monkeypatch.setattr(server._model, "predict", gated_predict)
            handle = server.submit(serve_data.test_images[:2])

            def broken_callback(_handle):
                raise RuntimeError("callback bug")

            handle.add_done_callback(broken_callback)  # still in predict
            gate.set()
            assert np.array_equal(handle.result(timeout=30.0), direct_labels[:2])
            (thread,) = server._threads
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert server.healthz()["status"] == "unavailable"
            with pytest.raises(ServeError, match="server failed"):
                server.submit(serve_data.test_images[:2])
            server.reload()
            health = server.healthz()
            assert health["ok"] and health["workers_live"] == 1
            assert np.array_equal(
                server.predict(serve_data.test_images[:2], timeout=30.0),
                direct_labels[:2],
            )
        assert [str(exc) for exc in escaped] == ["callback bug"]


class TestBootstrapFailure:
    def test_missing_model_file_fails_startup(self, tmp_path):
        server = UHDServer(str(tmp_path / "missing.npz"), ServeConfig(workers=1))
        with pytest.raises((ServeError, FileNotFoundError)):
            server.start()
        server.close()
        assert server._threads == []  # no executor was started

    def test_corrupt_model_file_fails_startup(self, tmp_path):
        from repro.api.persistence import ModelFormatError

        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not a model at all")
        server = UHDServer(str(path), ServeConfig(workers=1))
        with pytest.raises((ServeError, ModelFormatError)):
            server.start()
        server.close()
        assert server._threads == []
