"""Worker lifecycle under failure: crash mid-batch, restart budget, bootstrap.

The crash is injected deterministically through the server's private
``_crash_next`` hook: the next N dispatched batches carry a flag that
makes the owning worker ``os._exit(1)`` *before* predicting — exactly
the mid-batch crash the restart path must survive without dropping the
request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ServeConfig, ServeError, UHDServer, WorkerCrashError


class TestCrashRecovery:
    def test_crash_mid_batch_restarts_and_retries(
        self, model_path, serve_data, direct_labels, start_method
    ):
        config = ServeConfig(
            workers=1, max_batch=16, restart_limit=2,
            start_method=start_method,
        )
        with UHDServer(model_path, config) as server:
            server._crash_next = 1
            got = server.predict(serve_data.test_images[:10], timeout=60.0)
            stats = server.stats()
        # the request was answered bit-exactly despite the crash...
        assert np.array_equal(got, direct_labels[:10])
        # ...because the worker was respawned and the batch re-dispatched
        assert stats.restarts == 1
        # both generations (bootstrap and respawn) inherited or attached
        # the front-end's table, never rebuilt it
        assert stats.worker_table_builds == (0,)

    def test_two_crashes_within_budget_still_answer(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=1, max_batch=16, restart_limit=3)
        with UHDServer(model_path, config) as server:
            server._crash_next = 2
            got = server.predict(serve_data.test_images[:6], timeout=60.0)
            stats = server.stats()
        assert np.array_equal(got, direct_labels[:6])
        assert stats.restarts == 2

    def test_server_survives_crash_for_later_requests(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=1, max_batch=16, restart_limit=2)
        with UHDServer(model_path, config) as server:
            server._crash_next = 1
            first = server.predict(serve_data.test_images[:4], timeout=60.0)
            second = server.predict(serve_data.test_images[4:8], timeout=60.0)
        assert np.array_equal(first, direct_labels[:4])
        assert np.array_equal(second, direct_labels[4:8])

    def test_exhausted_restart_budget_fails_loudly(
        self, model_path, serve_data
    ):
        config = ServeConfig(workers=1, max_batch=16, restart_limit=0)
        with UHDServer(model_path, config) as server:
            server._crash_next = 1
            with pytest.raises(WorkerCrashError, match="restart budget"):
                server.predict(serve_data.test_images[:4], timeout=60.0)

    def test_pool_with_spare_worker_masks_single_crash(
        self, model_path, serve_data, direct_labels
    ):
        config = ServeConfig(workers=2, max_batch=16, restart_limit=2)
        with UHDServer(model_path, config) as server:
            server._crash_next = 1
            got = server.predict(serve_data.test_images, timeout=60.0)
        assert np.array_equal(got, direct_labels)


class TestBootstrapFailure:
    def test_missing_model_file_fails_startup(self, tmp_path):
        config = ServeConfig(workers=1, ready_timeout_s=30.0)
        server = UHDServer(str(tmp_path / "missing.npz"), config)
        with pytest.raises((ServeError, FileNotFoundError)):
            server.start()
        server.close()

    def test_corrupt_model_file_fails_startup(self, tmp_path):
        from repro.api.persistence import ModelFormatError

        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"not a model at all")
        server = UHDServer(str(path), ServeConfig(workers=1))
        with pytest.raises((ServeError, ModelFormatError)):
            server.start()
        server.close()
