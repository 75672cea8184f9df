"""Router layer: model zoo dispatch, hot reload, deployment health.

Contract 5 extended to the fleet: the router only *routes* — for every
model in the zoo, over every transport, across generation swaps, labels
stay bit-exact with ``load_model(path).predict`` on that model's file.
A reload must complete under sustained traffic with zero failed or
dropped requests and conserved counters; a dead server makes its
deployment unavailable until a reload re-arms it; a close that races a
reload swaps in no model, leaves no executor running and counts no
traffic twice.
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

from repro.api import load_model
from repro.serve import (
    DeploymentSpec,
    HttpTransport,
    PredictionHandle,
    Router,
    ServeConfig,
    ServeError,
    UHDServer,
)


def _post_json(address: str, path: str, payload: dict, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        address + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get_json(address: str, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(address + path, timeout=timeout) as response:
        return json.load(response)


def _zoo_specs(zoo_model_paths, **serve_kwargs):
    config = ServeConfig(workers=0, **serve_kwargs)
    return {
        name: DeploymentSpec(path, serve=config)
        for name, path in zoo_model_paths.items()
    }


def _assert_conserved(stats: dict) -> None:
    """Every lane item is accounted once: served, expired or failed, and
    timed."""
    for lane in stats["lanes"]:
        done = lane["served"] + lane["expired"] + lane["failed"]
        assert lane["depth"] == 0, lane["name"]
        assert lane["submitted"] == done, lane["name"]
        latency = lane["latency"]
        assert latency["count"] + latency["excluded"] == done, lane["name"]


@pytest.fixture
def zoo_router(zoo_model_paths):
    """A two-model router on the in-process fallback."""
    with Router(_zoo_specs(zoo_model_paths)) as router:
        yield router


class TestSpecValidation:
    def test_model_ids_are_url_segments(self):
        with pytest.raises(ValueError, match="slash-free"):
            Router({"a/b": "m.npz"})
        with pytest.raises(ValueError, match="slash-free"):
            Router({"": "m.npz"})

    def test_empty_router_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Router({})


class TestDispatch:
    def test_zoo_bit_exact_per_model(self, zoo_router, zoo_data, zoo_direct_labels):
        for name, data in zoo_data.items():
            labels = zoo_router.predict(name, data.test_images, timeout=30.0)
            assert np.array_equal(labels, zoo_direct_labels[name]), name

    def test_unknown_model_lists_known_ids(self, zoo_router, zoo_data):
        with pytest.raises(ValueError, match="fashion.*mnist|mnist.*fashion"):
            zoo_router.predict("nope", next(iter(zoo_data.values())).test_images)

    def test_requests_aggregate_across_replicas(self, zoo_router, zoo_data):
        name, data = next(iter(zoo_data.items()))
        for _ in range(6):
            zoo_router.predict(name, data.test_images[:4], timeout=30.0)
        stats = zoo_router.stats(name)
        assert stats["requests"] == 6
        assert stats["images"] == 24

    def test_submit_returns_the_servers_handle(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        name, data = next(iter(zoo_data.items()))
        handle = zoo_router.submit(name, data.test_images[:3], timeout=30.0)
        assert isinstance(handle, PredictionHandle)
        assert handle.rows == 3
        labels = handle.result(30.0)
        assert np.array_equal(labels, zoo_direct_labels[name][:3])


class TestHealthz:
    def test_healthy_at_target(self, zoo_router):
        health = zoo_router.healthz()
        assert health["ok"] and health["status"] == "ok"
        assert health["deployments"] == len(zoo_router.deployments)
        for row in health["models"]:
            assert row["ok"] and row["status"] == "ok"
            assert row["generation"] == 1 and row["reloading"] is False
            assert row["mode"] == "inproc"  # the server's own healthz keys

    def test_unavailable_when_server_dead(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        deployment = zoo_router.deployment(name)
        deployment._failure = ServeError("executor thread died")
        dep_health = deployment.healthz()
        assert not dep_health["ok"]
        assert dep_health["status"] == "unavailable"
        router_health = zoo_router.healthz()
        assert not router_health["ok"]
        assert router_health["status"] == "unavailable"
        with pytest.raises(ServeError, match="server failed"):
            deployment.predict(np.zeros((1, deployment.num_pixels or 784)))


class TestReload:
    def test_rolling_reload_same_path_new_generation(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        name, data = next(iter(zoo_data.items()))
        before = zoo_router.stats(name)
        report = zoo_router.reload(name)
        assert report["from_generation"] == 1
        assert report["to_generation"] == 2
        labels = zoo_router.predict(name, data.test_images, timeout=30.0)
        assert np.array_equal(labels, zoo_direct_labels[name])
        after = zoo_router.stats(name)
        assert after["generation"] == 2
        # one server across generations: totals never reset
        assert after["requests"] >= before["requests"] + 1

    def test_reload_swaps_model_file(self, zoo_router, zoo_data, zoo_direct_labels):
        # both zoo models share the 28x28x10 geometry, so hot-swapping
        # the fashion weights into the mnist deployment is a real
        # new-model-version rollout: labels must track the new file
        ids = list(zoo_data)
        target, donor = ids[0], ids[1]
        donor_path = zoo_router.deployment(donor).model_path
        zoo_router.reload(target, donor_path)
        labels = zoo_router.predict(
            target, zoo_data[donor].test_images, timeout=30.0
        )
        assert np.array_equal(labels, zoo_direct_labels[donor])
        assert zoo_router.deployment(target).model_path == donor_path

    def test_reload_under_sustained_traffic_zero_failures(
        self, zoo_model_paths, zoo_data, zoo_direct_labels
    ):
        """The tentpole invariant: a swap drops nothing, ever."""
        specs = _zoo_specs(zoo_model_paths)
        failures: list[str] = []
        mismatches: list[str] = []
        submits = {name: 0 for name in zoo_data}
        count_lock = threading.Lock()
        stop = threading.Event()

        with Router(specs) as router:
            def client(name: str, queries: np.ndarray) -> None:
                while not stop.is_set():
                    with count_lock:
                        submits[name] += 1
                    try:
                        labels = router.predict(name, queries, timeout=30.0)
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(f"{name}: {type(exc).__name__}: {exc}")
                        return
                    if not np.array_equal(labels, zoo_direct_labels[name][:8]):
                        mismatches.append(name)
                        return

            threads = [
                threading.Thread(
                    target=client, args=(name, data.test_images[:8])
                )
                for name, data in zoo_data.items()
                for _ in range(2)
            ]
            # frequent thread switches widen the submit/swap race windows
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                time.sleep(0.1)  # let traffic establish
                reports = [router.reload(name) for name in zoo_data]
                time.sleep(0.1)  # keep serving on the new generation
            finally:
                stop.set()
                sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()

            assert failures == []
            assert mismatches == []
            for report in reports:
                assert report["to_generation"] == 2
            assert router.healthz()["ok"]
            # counters conserved across the swap: one request per submit,
            # every lane item served (or expired) exactly once
            for name in zoo_data:
                stats = router.stats(name)
                assert stats["generation"] == 2
                assert stats["requests"] == submits[name] > 0
                _assert_conserved(stats)

    def test_reload_missing_file_keeps_old_generation(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        name, data = next(iter(zoo_data.items()))
        with pytest.raises(ServeError, match="reload of .* failed"):
            zoo_router.reload(name, "/nonexistent/model.npz")
        # old generation still serves, still bit-exact
        deployment = zoo_router.deployment(name)
        assert deployment.generation == 1
        health = deployment.healthz()
        assert health["ok"] and not health["reloading"]
        labels = zoo_router.predict(name, data.test_images, timeout=30.0)
        assert np.array_equal(labels, zoo_direct_labels[name])


    def test_reload_recovers_a_dead_server(
        self, zoo_router, zoo_data, zoo_model_paths
    ):
        """A dead server is unavailable until a reload replaces it."""
        name, data = next(iter(zoo_data.items()))
        deployment = zoo_router.deployment(name)
        deployment._failure = ServeError("executor thread died")
        with HttpTransport(zoo_router) as transport:
            for path in ("/healthz", f"/models/{name}/healthz"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get_json(transport.address, path)
                excinfo.value.close()
                assert excinfo.value.code == 503, path
        with pytest.raises(ServeError, match="server failed"):
            zoo_router.submit(name, data.test_images[:2])
        report = zoo_router.reload(name)
        assert report["to_generation"] == deployment.generation == 2
        labels = zoo_router.predict(name, data.test_images, timeout=30.0)
        expected = load_model(zoo_model_paths[name]).predict(data.test_images)
        assert np.array_equal(labels, expected)
        assert zoo_router.healthz()["ok"]


class TestConcurrentClose:
    def test_close_is_bounded_by_max_not_sum(self, zoo_model_paths):
        specs = _zoo_specs(zoo_model_paths)
        router = Router(specs).start()
        delay = 0.4
        for server in router.deployments.values():
            original = server.close

            def slow_close(t=None, _orig=original):
                time.sleep(delay)
                _orig(t)

            server.close = slow_close
        t0 = time.monotonic()
        router.close()
        elapsed = time.monotonic() - t0
        assert elapsed >= delay  # every deployment really drained
        # serial would be >= len(specs) * delay; concurrent stays near one
        assert elapsed < delay * len(specs), (
            f"close took {elapsed:.2f}s for {len(specs)} deployments — "
            "drains must run concurrently under a shared deadline"
        )

    def test_close_idempotent_and_blocks_new_traffic(self, zoo_model_paths, zoo_data):
        router = Router(_zoo_specs(zoo_model_paths)).start()
        router.close()
        router.close()  # second close is a no-op, not an error
        name, data = next(iter(zoo_data.items()))
        with pytest.raises(ServeError, match="closed"):
            router.predict(name, data.test_images[:2])


    def test_close_during_reload_leaks_no_server(
        self, zoo_model_paths, monkeypatch
    ):
        """A close that lands while the next generation loads wins: the
        reload raises, no executor thread survives, no model is swapped in."""
        name, path = next(iter(zoo_model_paths.items()))
        config = ServeConfig(workers=1, max_wait_ms=1.0)
        router = Router({name: DeploymentSpec(path, serve=config)}).start()
        server = router.deployment(name)
        serving = server._model
        loaded = threading.Event()
        original_load = UHDServer._load_model

        def slow_load(self, model_path):
            result = original_load(self, model_path)
            loaded.set()
            time.sleep(0.5)  # hold the reload between its load and its swap
            return result

        monkeypatch.setattr(UHDServer, "_load_model", slow_load)
        errors: list[BaseException] = []

        def reload() -> None:
            try:
                router.reload(name)
            except ServeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reload)
        thread.start()
        try:
            assert loaded.wait(30.0)
            router.close()
            thread.join(30.0)
            assert not thread.is_alive()
        finally:
            server.close(0.0)
        assert [type(e) for e in errors] == [ServeError]
        assert "closed" in str(errors[0])
        assert not any(t.is_alive() for t in server._threads)
        assert server._model is serving and server.generation == 1

    def test_close_during_reload_drain_counts_once(
        self, zoo_model_paths, zoo_data, monkeypatch
    ):
        """A close racing a reload counts every request exactly once."""
        name, path = next(iter(zoo_model_paths.items()))
        images = zoo_data[name].test_images[:2]
        loading = threading.Event()
        original_load = UHDServer._load_model

        def slow_load(self, model_path):
            loading.set()
            time.sleep(0.3)  # hold the reload mid-load
            return original_load(self, model_path)

        spec = DeploymentSpec(path, serve=ServeConfig(workers=0))
        router = Router({name: spec}).start()
        monkeypatch.setattr(UHDServer, "_load_model", slow_load)
        handles = [router.submit(name, images, timeout=30.0) for _ in range(6)]
        for handle in handles[:-1]:
            handle.result(30.0)
        held = handles[-1]  # result unread across the reload

        def reload() -> None:
            try:
                router.reload(name)
            except ServeError:
                pass  # the close may land first

        reloading = threading.Thread(target=reload)
        reloading.start()
        loading.wait(2.0)
        close = threading.Thread(target=router.close)
        close.start()
        time.sleep(0.1)
        held.result(30.0)
        for thread in (reloading, close):
            thread.join(30.0)
            assert not thread.is_alive()
        stats = router.stats(name)
        assert stats["requests"] == 6
        assert stats["images"] == 12
        _assert_conserved(stats)


def _zoo_executor_specs(zoo_model_paths) -> dict:
    """Every zoo model behind one executor thread of its own."""
    config = ServeConfig(workers=1, max_batch=32)
    return {
        name: DeploymentSpec(path, serve=config)
        for name, path in zoo_model_paths.items()
    }


def _zoo_round_trip(router: Router, images: dict) -> dict:
    """{name: (reply model, labels)} for each model's images over HTTP."""
    replies = {}
    with HttpTransport(router) as transport:
        for name, batch in images.items():
            reply = _post_json(
                transport.address,
                f"/models/{name}/predict",
                {"images": batch.tolist()},
            )
            replies[name] = (reply["model"], np.asarray(reply["labels"]))
    return replies


def _serve_zoo_over_http(zoo_model_paths: dict, images: dict) -> dict:
    """:func:`_zoo_round_trip` from a fresh zoo router (a child's side)."""
    with Router(_zoo_executor_specs(zoo_model_paths)) as router:
        return _zoo_round_trip(router, images)


class TestHttpRouting:
    """Satellite: registry datasets -> model zoo over real HTTP."""

    def test_zoo_round_trip_bit_exact_over_http(
        self, zoo_model_paths, zoo_data, zoo_direct_labels, in_child
    ):
        """An executor thread per model, per-model bit-exact — here, and
        in a child process started (by each start method) while this
        router's executors are live."""
        images = {name: data.test_images for name, data in zoo_data.items()}
        with Router(_zoo_executor_specs(zoo_model_paths)) as router:
            here = _zoo_round_trip(router, images)
            child = in_child(_serve_zoo_over_http, zoo_model_paths, images)
        for replies in (here, child):
            assert set(replies) == set(zoo_data)
            for name, (model, labels) in replies.items():
                assert model == name
                assert np.array_equal(labels, zoo_direct_labels[name]), name

    def test_models_listing(self, zoo_router, zoo_model_paths):
        with HttpTransport(zoo_router) as transport:
            listing = _get_json(transport.address, "/models")["models"]
            assert {row["model"] for row in listing} == set(zoo_model_paths)
            for row in listing:
                assert row["generation"] == 1
                assert row["reloading"] is False
                assert row["status"] == "ok"

    def test_default_predict_routes_to_first_model(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        default = zoo_router.default_model
        with HttpTransport(zoo_router) as transport:
            reply = _post_json(
                transport.address,
                "/predict",
                {"images": zoo_data[default].test_images[:6].tolist()},
            )
            assert reply["model"] == default
            assert np.array_equal(
                np.asarray(reply["labels"]), zoo_direct_labels[default][:6]
            )

    def test_per_model_stats_and_healthz(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        zoo_router.predict(name, zoo_data[name].test_images[:4], timeout=30.0)
        with HttpTransport(zoo_router) as transport:
            stats = _get_json(transport.address, f"/models/{name}/stats")
            assert stats["model"] == name
            assert stats["requests"] >= 1
            health = _get_json(transport.address, f"/models/{name}/healthz")
            assert health["ok"] and health["model"] == name
            assert health["generation"] == 1

    def test_router_healthz_aggregates(self, zoo_router):
        with HttpTransport(zoo_router) as transport:
            health = _get_json(transport.address, "/healthz")
            assert health["ok"] and health["status"] == "ok"
            assert len(health["models"]) == len(zoo_router.deployments)
            # bare /stats is the default model's document, like /predict
            stats = _get_json(transport.address, "/stats")
            assert stats["model"] == zoo_router.default_model

    def test_unknown_model_404(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        with HttpTransport(zoo_router) as transport:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(
                    transport.address,
                    "/models/nope/predict",
                    {"images": zoo_data[name].test_images[:2].tolist()},
                )
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(transport.address, "/models/nope/stats")
            assert excinfo.value.code == 404

    def test_generation_visible_after_reload_over_http(
        self, zoo_router, zoo_data
    ):
        name = next(iter(zoo_data))
        with HttpTransport(zoo_router) as transport:
            zoo_router.reload(name)
            listing = _get_json(transport.address, "/models")["models"]
            by_id = {row["model"]: row for row in listing}
            assert by_id[name]["generation"] == 2


@pytest.fixture(scope="module")
def labelled_model_path(serve_data, tmp_path_factory):
    """A cosine-inference model whose labels span the classes, so a served
    label that differs from the direct one cannot hide behind a constant."""
    from repro.core.config import UHDConfig
    from repro.core.model import UHDClassifier

    model = UHDClassifier(
        serve_data.num_pixels, serve_data.num_classes, UHDConfig(dim=256)
    ).fit(serve_data.train_images, serve_data.train_labels)
    path = tmp_path_factory.mktemp("contract5") / "cosine.npz"
    model.save(path)
    return str(path)


class TestContractFive:
    """Served labels equal ``UHDClassifier.predict`` on the same rows at
    every executor count, on both backends and both encode kernels —
    including while a reload swaps the generation under traffic."""

    @pytest.fixture()
    def kernel(self, request, monkeypatch):
        from repro.fastpath import kernel as kernel_module
        from repro.serve import encoder_cache

        if request.param == "numpy":
            monkeypatch.setattr(kernel_module, "load", lambda: None)
        elif kernel_module.load() is None:
            pytest.skip("compiled encode kernel unavailable here")
        encoder_cache().clear()  # no encoder bound to the other kernel
        yield request.param
        encoder_cache().clear()

    @pytest.mark.parametrize("workers", [0, 1, 2])
    @pytest.mark.parametrize(
        "backend, kernel",
        [("packed", "c"), ("packed", "numpy"), ("reference", "numpy")],
        ids=["packed-c", "packed-numpy", "reference"],
        indirect=["kernel"],
    )
    def test_served_labels_match_direct_predict_across_reload(
        self, labelled_model_path, serve_data, workers, backend, kernel
    ):
        images = serve_data.test_images
        expected = load_model(labelled_model_path, backend=backend).predict(images)
        assert len(set(expected.tolist())) >= 5
        config = ServeConfig(workers=workers, backend=backend, max_batch=16)
        spec = DeploymentSpec(labelled_model_path, serve=config)
        mismatches: list[tuple[int, int]] = []
        failures: list[str] = []
        answered = [0]
        stop = threading.Event()

        with Router({"m": spec}) as router:
            def client(seed: int) -> None:
                rng = np.random.default_rng(seed)
                while not stop.is_set():
                    first = int(rng.integers(0, len(images) - 1))
                    rows = int(rng.integers(1, 21))
                    try:
                        got = router.predict(
                            "m", images[first:first + rows], timeout=30.0
                        )
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(f"{type(exc).__name__}: {exc}")
                        return
                    if not np.array_equal(got, expected[first:first + rows]):
                        mismatches.append((first, rows))
                    answered[0] += 1

            threads = [
                threading.Thread(target=client, args=(seed,)) for seed in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                time.sleep(0.1)
                report = router.reload("m")
                time.sleep(0.1)
            finally:
                stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            server = router.deployment("m")
            if backend == "packed":
                assert server._model.encoder.kernel == kernel
            stats = router.stats("m")
        assert failures == [] and mismatches == []
        assert answered[0] > 0 and report["to_generation"] == 2
        _assert_conserved(stats)
