"""UHDServer: bit-exactness, splitting/reassembly, coalescing, lifecycle."""

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
            {"queue_depth": 0},
            {"restart_limit": -1},
            {"start_method": "threads"},
            {"probe_batch": 0},
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
            assert lane.depth == 0
            assert lane.submitted == lane.served + lane.expired
            assert (
                lane.latency.count + lane.latency.excluded
                == lane.served + lane.expired
            )
        assert server._pending_parts == 0


class TestWorkerPool:
    def test_bit_exact_with_direct_predict(
        self, model_path, serve_data, direct_labels, start_method
    ):
        config = ServeConfig(
            workers=2, max_batch=16, max_wait_ms=1.0, start_method=start_method
        )
        with UHDServer(model_path, config) as server:
            got = server.predict(serve_data.test_images, timeout=30.0)
            stats = server.stats()
        assert np.array_equal(got, direct_labels)
        assert stats.mode == "pool"
        assert len(stats.worker_probe_ms) == 2  # every worker probed ready

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


class TestTableStoreServing:
    """Where workers get the warm gather table: the start method decides.

    ``worker_table_builds`` comes from the build-counter hook on
    ``PackedLevelEncoder`` reported through the ready handshake: 0 means
    the worker served its readiness probe (and therefore all traffic)
    on inherited (fork) or attached (spawn/forkserver) tables.
    """

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawn_workers_attach_published_tables(
        self, model_path, serve_data, direct_labels, method
    ):
        """The headline property: without fork, tables are built exactly
        once (by the front-end) and every worker attaches its file."""
        import multiprocessing

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} not available")  # pragma: no cover
        config = ServeConfig(workers=2, max_batch=16, start_method=method)
        with UHDServer(model_path, config) as server:
            got = server.predict(serve_data.test_images, timeout=60.0)
            stats = server.stats()
            path = server._table_path
        assert np.array_equal(got, direct_labels)
        assert stats.worker_table_builds == (0, 0)
        assert path in [p for p, _, _ in stats.cache.published]

    def test_fork_workers_inherit_without_building(
        self, model_path, serve_data, direct_labels
    ):
        import multiprocessing
        import os

        if os.environ.get("REPRO_FORCE_SPAWN") or (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork not available")  # pragma: no cover
        config = ServeConfig(workers=2, max_batch=16, start_method="fork")
        with UHDServer(model_path, config) as server:
            got = server.predict(serve_data.test_images, timeout=60.0)
            stats = server.stats()
            # fork workers inherit the table: nothing is written
            assert server._table_dir is None and server._table_path is None
        assert np.array_equal(got, direct_labels)
        # copy-on-write adoption: zero builds inside the workers
        assert stats.worker_table_builds == (0, 0)
        assert stats.cache.published == ()

    def test_spawn_worker_builds_when_table_file_vanished(
        self, model_path, serve_data, direct_labels
    ):
        """A respawned worker whose table file is gone builds its own
        table and still serves bit-exactly — slower, never wrong."""
        import multiprocessing
        import os

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn not available")  # pragma: no cover
        config = ServeConfig(workers=1, max_batch=16, start_method="spawn")
        with UHDServer(model_path, config) as server:
            assert server.stats().worker_table_builds == (0,)
            os.unlink(server._table_path)
            server._crash_next = 1
            got = server.predict(serve_data.test_images, timeout=60.0)
            stats = server.stats()
        assert np.array_equal(got, direct_labels)
        assert stats.restarts == 1
        assert stats.worker_table_builds == (1,)

    def test_store_released_on_close(self, model_path, serve_data):
        import os

        config = ServeConfig(workers=1, max_batch=16, start_method="spawn")
        server = UHDServer(model_path, config).start()
        path, directory = server._table_path, server._table_dir
        assert os.path.exists(path) and os.path.dirname(path) == directory
        assert path in [p for p, _, _ in encoder_cache().stats().published]
        server.close()
        assert not os.path.exists(path) and not os.path.exists(directory)
        assert server._table_path is None and server._table_dir is None
        assert path not in [p for p, _, _ in encoder_cache().stats().published]

    def test_failed_start_deletes_table_file(
        self, model_path, monkeypatch, tmp_path
    ):
        """A start() that dies after writing the table (here: workers not
        ready in time) leaves no file and no directory behind."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        config = ServeConfig(
            workers=1, start_method="spawn", ready_timeout_s=0.01
        )
        server = UHDServer(model_path, config)
        # the pool times out after the table file was written
        with pytest.raises(ServeError, match="not ready"):
            server.start()
        assert list(tmp_path.glob("uhd-tables-*")) == []
        assert server._table_path is None and server._table_dir is None
        published = [p for p, _, _ in encoder_cache().stats().published]
        assert not [p for p in published if p.startswith(str(tmp_path))]


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

    def test_adopt_installs_shared_encoder_and_returns_its_lock(
        self, model_path, served_model, serve_data
    ):
        """Worker bootstrap relies on adopt() for fork-time table sharing."""
        from repro.core.model import UHDClassifier

        cache = encoder_cache()
        loaded = UHDClassifier.load(model_path)
        lock = cache.adopt(loaded)
        assert loaded.encoder is cache.get(serve_data.num_pixels, loaded.config)
        assert lock is cache.lock(serve_data.num_pixels, loaded.config)

    def test_two_servers_same_key_share_one_encoder_lock(self, model_path):
        """Concurrent in-process servers serialize on the *encoder's* lock."""
        first = UHDServer(model_path, ServeConfig(workers=0)).start()
        second = UHDServer(model_path, ServeConfig(workers=0)).start()
        try:
            assert first._model.encoder is second._model.encoder
            assert first._encoder_lock is second._encoder_lock
        finally:
            first.close()
            second.close()


class TestCacheIntrospection:
    """EncoderCache.stats()/clear(): observability and table-file cleanup."""

    def _fresh_cache(self, served_model, serve_data):
        from repro.serve import EncoderCache

        cache = EncoderCache()
        # exporting builds the table, as a server's first predict would
        cache.get(serve_data.num_pixels, served_model.config).export_tables()
        return cache

    def test_stats_reports_entries_and_table_bytes(
        self, served_model, serve_data
    ):
        cache = self._fresh_cache(served_model, serve_data)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.table_bytes > 0  # warmed: tables are materialized
        assert stats.published == ()

    def test_publish_appears_in_stats_and_clear_releases(
        self, served_model, serve_data, tmp_path
    ):
        import os

        from repro.fastpath.tablestore import read_table_file

        cache = self._fresh_cache(served_model, serve_data)
        target = str(tmp_path / "tables.uhdtbl")
        path = cache.publish(serve_data.num_pixels, served_model.config, target)
        assert path == target and read_table_file(path).kind == "pair"
        stats = cache.stats()
        assert len(stats.published) == 1
        name, kind, nbytes = stats.published[0]
        assert name == path and kind == "pair" and nbytes > 0
        cache.clear()
        empty = cache.stats()
        assert empty.entries == 0 and empty.published == ()
        # clear() deleted the file: a worker would now build instead
        assert not os.path.exists(path)

    def test_publish_without_exportable_tables_returns_none(
        self, serve_data, tmp_path
    ):
        from repro.core.config import UHDConfig
        from repro.serve import EncoderCache

        cache = EncoderCache()
        config = UHDConfig(dim=128, backend="reference")
        cache.get(serve_data.num_pixels, config)
        target = tmp_path / "tables.uhdtbl"
        assert cache.publish(serve_data.num_pixels, config, str(target)) is None
        assert not target.exists() and cache.stats().published == ()

    def test_adopt_seeds_cache_with_a_warm_encoder(
        self, model_path, serve_data
    ):
        """A model arriving with warm tables (sidecar attach, in-process
        training) becomes the cache entry instead of being discarded."""
        from repro.core.model import UHDClassifier
        from repro.serve import EncoderCache

        loaded = UHDClassifier.load(model_path)
        loaded.encoder.export_tables()  # warm it (builds the table)
        warm_encoder = loaded.encoder
        cache = EncoderCache()
        cache.adopt(loaded)
        assert loaded.encoder is warm_encoder  # kept, not replaced
        assert cache.get(serve_data.num_pixels, loaded.config) is warm_encoder


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
