"""UHDServer: bit-exactness, splitting/reassembly, coalescing, lifecycle,
hot reload."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DeadlineExpiredError,
    LaneConfig,
    PredictionHandle,
    ServeConfig,
    ServeError,
    UHDServer,
    encoder_cache,
    readiness_probe,
)


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"max_batch": 0},
            {"max_wait_ms": -0.1},
            {"drain_timeout_s": -1.0},
            {"lanes": (LaneConfig("twin"), LaneConfig("twin"))},
            {"backend": "nope"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_lanes_resolve_the_same_at_every_worker_count(self):
        """In-process lanes keep their bounds, so weights and urgency
        mean the same thing in both modes."""
        lanes = (
            LaneConfig("interactive", max_batch=16, max_wait_ms=1.0, weight=4.0),
            LaneConfig("bulk", max_wait_ms=50.0),
        )
        for kwargs in ({}, {"lanes": lanes}):
            inproc = ServeConfig(workers=0, max_wait_ms=7.0, **kwargs)
            pool = ServeConfig(workers=1, max_wait_ms=7.0, **kwargs)
            assert inproc.effective_lanes() == pool.effective_lanes()
        assert ServeConfig(workers=0).effective_lanes()[0].max_wait_ms == 2.0


class TestInProcessFallback:
    def test_bit_exact_with_direct_predict(
        self, model_path, serve_data, direct_labels
    ):
        with UHDServer(model_path, ServeConfig(workers=0, max_batch=16)) as server:
            got = server.predict(serve_data.test_images)
        assert np.array_equal(got, direct_labels)

    def test_single_sample_request(self, model_path, serve_data, direct_labels):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            flat = serve_data.test_images[3].reshape(-1)  # (pixels,) vector
            unflat = serve_data.test_images[3]  # (h, w) image
            assert np.array_equal(server.predict(flat), direct_labels[3:4])
            assert np.array_equal(server.predict(unflat), direct_labels[3:4])

    def test_request_larger_than_max_batch_is_chunked(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=0, max_batch=7)  # 64 test rows -> 10 chunks
        with UHDServer(model_path, config) as server:
            got = server.predict(serve_data.test_images)
            stats = server.stats()
        assert np.array_equal(got, direct_labels)
        assert stats.batches == -(-serve_data.test_images.shape[0] // 7)
        assert stats.max_batch_seen <= 7

    def test_empty_request_returns_empty_labels(self, model_path, serve_data):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            got = server.predict(serve_data.test_images[:0])
        assert got.shape == (0,)

    def test_wrong_pixel_count_rejected(self, model_path):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            with pytest.raises(ValueError, match="pixels"):
                server.predict(np.zeros((2, 9), dtype=np.uint8))

    def test_nonsquare_batch_totalling_num_pixels_rejected(self, model_path):
        """(2, 392) must error, not be misread as one 784-pixel image."""
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            with pytest.raises(ValueError, match="pixels"):
                server.predict(np.zeros((2, 392), dtype=np.uint8))

    def test_submit_before_start_and_after_close_raise(self, model_path):
        server = UHDServer(model_path, ServeConfig(workers=0))
        with pytest.raises(ServeError, match="not started"):
            server.predict(np.zeros(4, dtype=np.uint8))
        server.start()
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.predict(np.zeros(4, dtype=np.uint8))

    def test_front_probe_reported(self, model_path):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            assert server.front_probe is not None
            assert server.front_probe.deterministic
            assert server.front_probe.median_s > 0

    def test_predict_failure_fails_the_handle_not_submit(
        self, model_path, serve_data, direct_labels, monkeypatch
    ):
        """The submitting thread may be draining other callers' parts, so
        a predict failure must fail that batch's handles, never escape."""
        server = UHDServer(model_path, ServeConfig(workers=0)).start()
        try:
            real_predict = server._model.predict
            failures = [RuntimeError("injected predict failure")]

            def flaky_predict(images):
                if failures:
                    raise failures.pop()
                return real_predict(images)

            monkeypatch.setattr(server._model, "predict", flaky_predict)
            handle = server.submit(serve_data.test_images[:4])
            with pytest.raises(ServeError, match="predict failed"):
                handle.result(timeout=5.0)
            got = server.predict(serve_data.test_images, timeout=30.0)
            assert np.array_equal(got, direct_labels)
        finally:
            t0 = time.monotonic()
            server.close()
        assert time.monotonic() - t0 < 1.0  # nothing left pending
        assert server._pending_parts == 0


#: two lanes for the concurrency property: a narrow one with a tiny queue
#: (puts block on backpressure) next to a wider default lane
_CONCURRENT_LANES = (
    LaneConfig("wide", max_batch=8),
    LaneConfig("narrow", max_batch=3, queue_depth=2),
)

_request = st.tuples(
    st.integers(0, 63),  # first row
    st.integers(1, 20),  # rows (clipped at the end of the test set)
    st.sampled_from([lane.name for lane in _CONCURRENT_LANES]),
    st.none() | st.floats(0.01, 5.0),  # deadline_ms
)


class TestInProcessConcurrency:
    """The pool's accounting invariants, reached through ``workers=0``:
    every submitting thread drains the one scheduler, possibly running
    parts other threads queued."""

    @settings(max_examples=12, deadline=None)
    @given(plan=st.lists(st.lists(_request, min_size=1, max_size=5),
                         min_size=2, max_size=4))
    def test_handles_resolve_once_and_lanes_balance(
        self, model_path, serve_data, direct_labels, plan
    ):
        server = UHDServer(
            model_path, ServeConfig(workers=0, lanes=_CONCURRENT_LANES)
        ).start()
        images = serve_data.test_images
        outcomes: list[tuple[PredictionHandle, slice]] = []
        calls: dict[int, int] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(plan))

        def on_done(handle):
            with lock:
                calls[id(handle)] = calls.get(id(handle), 0) + 1

        def client(requests):
            try:
                barrier.wait()
                for first, rows, lane, deadline_ms in requests:
                    rows_slice = slice(first, first + rows)
                    handle = server.submit(
                        images[rows_slice], lane=lane, deadline_ms=deadline_ms
                    )
                    handle.add_done_callback(on_done)
                    with lock:
                        outcomes.append((handle, rows_slice))
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(requests,))
            for requests in plan
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors, errors
            assert len(outcomes) == sum(len(requests) for requests in plan)
            for handle, rows_slice in outcomes:
                try:
                    got = handle.result(timeout=30.0)
                except DeadlineExpiredError:
                    continue
                assert np.array_equal(got, direct_labels[rows_slice])
            stats = server.stats()
        finally:
            server.close()
        assert all(calls.get(id(h)) == 1 for h, _ in outcomes)
        for lane in stats.lanes:
            assert lane.depth == 0 and lane.failed == 0
            assert lane.submitted == lane.served + lane.expired
            assert (
                lane.latency.count + lane.latency.excluded
                == lane.served + lane.expired
            )
        assert server._pending_parts == 0


TWO_EXECUTORS = ServeConfig(workers=2, max_batch=16, max_wait_ms=1.0)


def _predict_and_report(server: UHDServer, images: np.ndarray) -> tuple:
    """(labels, mode, workers, workers_live, restarts) after one predict."""
    got = server.predict(images, timeout=30.0)
    stats = server.stats()
    health = server.healthz()
    return got, stats.mode, stats.workers, health["workers_live"], stats.restarts


def _serve_two_executors(model_path: str, images: np.ndarray) -> tuple:
    """:func:`_predict_and_report` from a fresh server (a child's side)."""
    with UHDServer(model_path, TWO_EXECUTORS) as server:
        return _predict_and_report(server, images)


class TestWorkerPool:
    """``workers=K``: K executor threads share the server's one model."""

    def test_bit_exact_with_direct_predict(
        self, model_path, serve_data, direct_labels, in_child
    ):
        """Bit-exact here, and in a child process started (by each start
        method) while this server's executors are live."""
        with UHDServer(model_path, TWO_EXECUTORS) as server:
            here = _predict_and_report(server, serve_data.test_images)
            child = in_child(_serve_two_executors, model_path, serve_data.test_images)
        for got, mode, workers, workers_live, restarts in (here, child):
            assert np.array_equal(got, direct_labels)
            assert mode == "pool" and workers == 2
            assert workers_live == 2
            assert restarts == 0  # executors are never respawned

    def test_executors_stop_on_close(self, model_path, serve_data):
        server = UHDServer(model_path, ServeConfig(workers=3)).start()
        threads = list(server._threads)
        assert len(threads) == 3 and all(t.is_alive() for t in threads)
        server.predict(serve_data.test_images[:4], timeout=30.0)
        server.close()
        assert not any(t.is_alive() for t in threads)
        assert server.healthz()["status"] == "unavailable"

    def test_concurrent_callers_share_one_table(
        self, model_path, serve_data, direct_labels
    ):
        """Many callers, two executors, one encoder and one table build."""
        config = ServeConfig(workers=2, max_batch=8)
        with UHDServer(model_path, config) as server:
            encoder = server._model.encoder
            builds = encoder.table_builds
            results: dict[int, np.ndarray] = {}

            def call(index: int) -> None:
                rows = slice(index, index + 5)
                results[index] = server.predict(
                    serve_data.test_images[rows], timeout=30.0
                )

            threads = [
                threading.Thread(target=call, args=(i,)) for i in range(0, 60, 5)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        for index, got in results.items():
            assert np.array_equal(got, direct_labels[index:index + 5])
        assert len(results) == 12
        assert encoder.table_builds == builds == 1

    def test_single_sample_round_trips(
        self, model_path, serve_data, direct_labels
    ):
        with UHDServer(model_path, ServeConfig(workers=1)) as server:
            handles = [
                server.submit(serve_data.test_images[i]) for i in range(8)
            ]
            for i, handle in enumerate(handles):
                assert np.array_equal(
                    handle.result(timeout=30.0), direct_labels[i:i + 1]
                )

    def test_oversized_request_split_and_reassembled_in_order(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=2, max_batch=8)  # 64 rows -> 8 parts
        with UHDServer(model_path, config) as server:
            handle = server.submit(serve_data.test_images)
            assert isinstance(handle, PredictionHandle)
            got = handle.result(timeout=30.0)
        assert np.array_equal(got, direct_labels)

    def test_small_requests_coalesce(self, model_path, serve_data, direct_labels):
        config = ServeConfig(workers=1, max_batch=64, max_wait_ms=50.0)
        with UHDServer(model_path, config) as server:
            handles = [
                server.submit(serve_data.test_images[i]) for i in range(16)
            ]
            for i, handle in enumerate(handles):
                assert np.array_equal(
                    handle.result(timeout=30.0), direct_labels[i:i + 1]
                )
            stats = server.stats()
        assert stats.requests == 16
        # requests queued while the worker was busy must have coalesced
        assert stats.batches < 16
        assert stats.max_batch_seen > 1

    def test_lone_request_does_not_wait_out_the_bound(
        self, model_path, serve_data, direct_labels
    ):
        """Work-conserving dispatch: the idle worker takes a lone request
        at once, so a 5 s max_wait_ms never delays it."""
        config = ServeConfig(workers=1, max_wait_ms=5000.0)
        with UHDServer(model_path, config) as server:
            start = time.monotonic()
            got = server.predict(serve_data.test_images[:1], timeout=30.0)
            elapsed = time.monotonic() - start
        assert np.array_equal(got, direct_labels[:1])
        assert elapsed < 2.5

    def test_backend_override_is_bit_exact(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=1, backend="reference")
        with UHDServer(model_path, config) as server:
            got = server.predict(serve_data.test_images, timeout=30.0)
        assert np.array_equal(got, direct_labels)

    def test_close_is_idempotent(self, model_path, serve_data):
        server = UHDServer(model_path, ServeConfig(workers=1)).start()
        server.predict(serve_data.test_images[:4], timeout=30.0)
        server.close()
        server.close()

    def test_graceful_close_drains_submitted_requests(
        self, model_path, serve_data, direct_labels
    ):
        """A request submitted before close() completes within the drain
        window — including one the dispatcher holds mid-flight."""
        config = ServeConfig(workers=1, max_batch=16, max_wait_ms=0.0)
        for _ in range(5):  # repeat to widen the pop-vs-register race window
            server = UHDServer(model_path, config).start()
            handle = server.submit(serve_data.test_images[:8])
            server.close(drain_timeout=10.0)
            assert np.array_equal(handle.result(timeout=5.0), direct_labels[:8])

    def test_close_never_leaves_handles_hanging(self, model_path, serve_data):
        """Requests still queued at close() fail loudly instead of hanging."""
        config = ServeConfig(workers=1, max_batch=1, max_wait_ms=0.0)
        server = UHDServer(model_path, config).start()
        handles = [
            server.submit(serve_data.test_images[i]) for i in range(40)
        ]
        server.close(drain_timeout=0.0)  # give queued requests no grace
        completed = failed = 0
        for handle in handles:
            try:
                handle.result(timeout=5.0)  # TimeoutError here = the bug
                completed += 1
            except ServeError:
                failed += 1
        assert completed + failed == len(handles)


@pytest.fixture(scope="module")
def small_model(serve_data, tmp_path_factory):
    """(path, model) of a model on 14x14 images: another pixel geometry."""
    from repro.core.config import UHDConfig
    from repro.core.model import UHDClassifier

    model = UHDClassifier(
        196, serve_data.num_classes, UHDConfig(dim=256, backend="packed")
    ).fit(serve_data.train_images[:, ::2, ::2], serve_data.train_labels)
    path = tmp_path_factory.mktemp("small") / "small.npz"
    model.save(path)
    return str(path), model


class TestReload:
    def test_start_after_close_raises_and_starts_no_executor(self, model_path):
        server = UHDServer(model_path, ServeConfig(workers=1))
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.start()
        assert server._threads == []
        assert server._model is None

    def test_queued_requests_answer_from_their_own_model(
        self, model_path, small_model, serve_data, direct_labels, hold_executor
    ):
        """A reload onto another pixel geometry while old-geometry requests
        queue: each is answered bit-exactly by the model it was submitted
        to, and new requests validate against the new geometry."""
        path, small = small_model
        small_images = serve_data.test_images[:8, ::2, ::2]
        with UHDServer(model_path, ServeConfig(workers=1)) as server:
            held = hold_executor(server)
            first = server.submit(serve_data.test_images[:4])
            assert held.entered.wait(30.0)  # the executor holds `first`
            queued = [
                server.submit(serve_data.test_images[i:i + 4])
                for i in range(4, 16, 4)
            ]
            report = server.reload(path)
            assert report["to_generation"] == server.generation == 2
            assert server.num_pixels == 196
            with pytest.raises(ValueError, match="pixels"):
                server.submit(serve_data.test_images[:4])
            fresh = server.submit(small_images)
            held.release()
            assert np.array_equal(first.result(30.0), direct_labels[:4])
            for i, handle in zip(range(4, 16, 4), queued):
                assert np.array_equal(handle.result(30.0), direct_labels[i:i + 4])
            assert np.array_equal(fresh.result(30.0), small.predict(small_images))
            (lane,) = server.stats().lanes
        assert lane.submitted == lane.served == 5

    def test_second_concurrent_reload_refused(self, model_path, monkeypatch):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            loading, release = threading.Event(), threading.Event()
            original_load = UHDServer._load_model

            def slow_load(self, path):
                loading.set()
                release.wait(30.0)
                return original_load(self, path)

            monkeypatch.setattr(UHDServer, "_load_model", slow_load)
            thread = threading.Thread(target=server.reload)
            thread.start()
            assert loading.wait(30.0)
            health = server.healthz()
            assert health["ok"] and health["reloading"]  # serves on meanwhile
            with pytest.raises(ServeError, match="reload already in progress"):
                server.reload()
            release.set()
            thread.join(30.0)
            assert server.generation == 2
            assert not server.healthz()["reloading"]

    @pytest.mark.parametrize("kind", ["BaselineHDC", "CentroidClassifier"])
    @pytest.mark.parametrize("backend", [None, "packed"])
    def test_non_uhd_model_files_are_refused(
        self, model_path, serve_data, tmp_path, kind, backend
    ):
        """Only UHDClassifier files (StreamingUHD included) are servable:
        start and reload refuse anything else with a ServeError that says
        so, whatever backend the server would re-home onto."""
        from repro.hdc import BaselineConfig, BaselineHDC, CentroidClassifier

        if kind == "BaselineHDC":
            model = BaselineHDC(
                serve_data.num_pixels, serve_data.num_classes,
                BaselineConfig(dim=64),
            )
            model.fit(serve_data.train_images, serve_data.train_labels)
        else:
            model = CentroidClassifier(serve_data.num_classes, 64)
            model.fit(
                np.ones((2, 64), dtype=np.int64), np.array([0, 1], dtype=np.int64)
            )
        path = str(tmp_path / f"{kind}.npz")
        model.save(path)
        config = ServeConfig(workers=0, backend=backend)
        with pytest.raises(ServeError, match=f"holds a {kind}.*UHDClassifier"):
            UHDServer(path, config).start()
        with UHDServer(model_path, config) as server:
            with pytest.raises(ServeError, match=f"holds a {kind}.*UHDClassifier"):
                server.reload(path)
            assert server.generation == 1
            assert server.healthz()["ok"]

    def test_reload_after_close_raises(self, model_path):
        server = UHDServer(model_path, ServeConfig(workers=0)).start()
        server.close()
        with pytest.raises(ServeError, match="closed"):
            server.reload()
        assert server.generation == 1


class TestEncoderCache:
    def test_same_key_shares_one_encoder(self, served_model, serve_data):
        cache = encoder_cache()
        first = cache.get(serve_data.num_pixels, served_model.config)
        second = cache.get(serve_data.num_pixels, served_model.config)
        assert first is second

    def test_front_end_model_uses_shared_encoder(self, model_path, served_model):
        with UHDServer(model_path, ServeConfig(workers=0)) as server:
            shared = encoder_cache().get(
                server.num_pixels, served_model.config
            )
            assert server._model.encoder is shared

    def test_distinct_configs_get_distinct_encoders(self, served_model, serve_data):
        from dataclasses import replace

        cache = encoder_cache()
        base = cache.get(serve_data.num_pixels, served_model.config)
        other = cache.get(
            serve_data.num_pixels, replace(served_model.config, seed=99)
        )
        assert base is not other

    def test_adopt_installs_shared_encoder(
        self, model_path, served_model, serve_data
    ):
        from repro.core.model import UHDClassifier

        cache = encoder_cache()
        loaded = UHDClassifier.load(model_path)
        cache.adopt(loaded)
        assert loaded.encoder is cache.get(serve_data.num_pixels, loaded.config)

    def test_two_servers_same_key_share_one_encoder(self, model_path):
        """Two servers over one key share the encoder and its one table."""
        first = UHDServer(model_path, ServeConfig(workers=1)).start()
        second = UHDServer(model_path, ServeConfig(workers=0)).start()
        try:
            assert first._model.encoder is second._model.encoder
        finally:
            first.close()
            second.close()


class TestCacheIntrospection:
    """EncoderCache.stats()/clear(): observability."""

    def test_stats_reports_entries_and_table_bytes(
        self, served_model, serve_data
    ):
        from repro.serve import EncoderCache

        cache = EncoderCache()
        encoder = cache.get(serve_data.num_pixels, served_model.config)
        assert cache.stats().table_bytes == 0  # cold until the first encode
        encoder.encode_batch(serve_data.test_images[:1])
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.table_bytes == encoder.table_nbytes > 0
        cache.clear()
        assert cache.stats().entries == 0


class TestReadinessProbe:
    def test_probe_reports_latency_and_determinism(self, served_model, serve_data):
        probe = readiness_probe(
            served_model, serve_data.num_pixels, batch=4, repeats=2
        )
        assert probe.deterministic
        assert probe.median_s > 0
        assert probe.images_per_s > 0
        assert probe.batch == 4

    def test_probe_validates_arguments(self, served_model, serve_data):
        with pytest.raises(ValueError):
            readiness_probe(served_model, serve_data.num_pixels, batch=0)
