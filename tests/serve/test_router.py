"""Router layer: model zoo dispatch, rolling hot reload, fleet health.

Contract 5 extended to the fleet: the router only *routes* — for every
model in the zoo, over every transport, across replica failover and
generation swaps, labels stay bit-exact with ``load_model(path).predict``
on that model's file.  Rolling reload must complete under sustained
traffic with zero failed or dropped requests, and a deployment mid-swap
(or down a replica) must report healthy while at/above ``min_ready``.
"""

from __future__ import annotations

import json
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
    Router,
    ServeConfig,
    ServeError,
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


def _zoo_specs(zoo_model_paths, replicas=2, min_ready=1, **serve_kwargs):
    config = ServeConfig(workers=0, **serve_kwargs)
    return {
        name: DeploymentSpec(
            path, replicas=replicas, min_ready=min_ready, serve=config
        )
        for name, path in zoo_model_paths.items()
    }


@pytest.fixture
def zoo_router(zoo_model_paths):
    """A two-model, two-replica router on the in-process fallback."""
    with Router(_zoo_specs(zoo_model_paths)) as router:
        yield router


class TestSpecValidation:
    def test_replicas_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            DeploymentSpec("m.npz", replicas=0)

    def test_min_ready_bounds(self):
        with pytest.raises(ValueError, match="min_ready"):
            DeploymentSpec("m.npz", replicas=2, min_ready=3)
        with pytest.raises(ValueError, match="min_ready"):
            DeploymentSpec("m.npz", replicas=2, min_ready=0)

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

    def test_least_loaded_picks_idle_replica(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        deployment = zoo_router.deployment(name)
        first = deployment._acquire()
        second = deployment._acquire()
        # with slot 0 holding one in-flight request, dispatch must prefer
        # the idle sibling; ties break deterministically on slot order
        assert first.slot == 0
        assert second.slot == 1
        deployment._release(second)
        deployment._release(first)

    def test_requests_aggregate_across_replicas(self, zoo_router, zoo_data):
        name, data = next(iter(zoo_data.items()))
        for _ in range(6):
            zoo_router.predict(name, data.test_images[:4], timeout=30.0)
        stats = zoo_router.deployment(name).stats()
        assert stats["requests"] == 6
        assert stats["images"] == 24

    def test_failover_marks_dead_replica_and_serves(self, zoo_router, zoo_data):
        name, data = next(iter(zoo_data.items()))
        deployment = zoo_router.deployment(name)
        victim = deployment._replicas[0]
        victim.server.close(0.0)  # simulate a died-in-place server
        labels = zoo_router.predict(name, data.test_images[:4], timeout=30.0)
        assert labels.shape == (4,)
        health = deployment.healthz()
        assert health["failed"] == 1 and health["ok"]

    def test_submit_handle_reports_model_and_replica(self, zoo_router, zoo_data):
        name, data = next(iter(zoo_data.items()))
        handle = zoo_router.submit(name, data.test_images[:3], timeout=30.0)
        assert handle.model_id == name
        assert handle.rows == 3
        assert name in handle.replica_name
        handle.result(30.0)


class TestHealthz:
    def test_healthy_at_target(self, zoo_router):
        health = zoo_router.healthz()
        assert health["ok"] and health["status"] == "ok"
        assert not health["degraded"]
        assert health["ready_replicas"] == 2 * len(zoo_router.deployments)

    def test_degraded_below_target_above_min(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        deployment = zoo_router.deployment(name)
        deployment._mark_failed(deployment._replicas[0])
        dep_health = deployment.healthz()
        assert dep_health["ok"], "min_ready satisfied -> still healthy"
        assert dep_health["degraded"] and dep_health["status"] == "degraded"
        router_health = zoo_router.healthz()
        assert router_health["ok"] and router_health["status"] == "degraded"

    def test_unavailable_below_min_ready(self, zoo_router, zoo_data):
        name = next(iter(zoo_data))
        deployment = zoo_router.deployment(name)
        for replica in list(deployment._replicas):
            deployment._mark_failed(replica)
        dep_health = deployment.healthz()
        assert not dep_health["ok"]
        assert dep_health["status"] == "unavailable"
        assert not zoo_router.healthz()["ok"]
        with pytest.raises(ServeError, match="no ready replicas"):
            deployment.predict(np.zeros((1, deployment.num_pixels or 784)))


class TestReload:
    def test_rolling_reload_same_path_new_generation(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        name, data = next(iter(zoo_data.items()))
        before = zoo_router.deployment(name).stats()
        report = zoo_router.reload(name)
        assert report["from_generation"] == 1
        assert report["to_generation"] == 2
        assert report["replaced"] == 2
        labels = zoo_router.predict(name, data.test_images, timeout=30.0)
        assert np.array_equal(labels, zoo_direct_labels[name])
        after = zoo_router.deployment(name).stats()
        assert after["generation"] == 2
        assert after["retired_replicas"] == 2
        # aggregation carries retired generations: totals never reset
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
        """The tentpole invariant: a rolling swap drops nothing, ever."""
        specs = _zoo_specs(zoo_model_paths, replicas=2)
        failures: list[str] = []
        mismatches: list[str] = []
        stop = threading.Event()

        with Router(specs) as router:
            def client(name: str, queries: np.ndarray) -> None:
                while not stop.is_set():
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
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # let traffic establish
            reports = [router.reload(name) for name in zoo_data]
            time.sleep(0.1)  # keep serving on the new generation
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

            assert failures == []
            assert mismatches == []
            for report in reports:
                assert report["to_generation"] == 2
                assert report["replaced"] == 2
            health = router.healthz()
            assert health["ok"] and not health["degraded"]

    def test_reload_missing_file_keeps_old_generation(
        self, zoo_router, zoo_data, zoo_direct_labels
    ):
        name, data = next(iter(zoo_data.items()))
        with pytest.raises(ServeError, match="replica start failed"):
            zoo_router.reload(name, "/nonexistent/model.npz")
        # old generation still serves, still bit-exact
        deployment = zoo_router.deployment(name)
        assert deployment.generation == 1
        health = deployment.healthz()
        assert health["ok"] and health["ready_replicas"] == 2
        labels = zoo_router.predict(name, data.test_images, timeout=30.0)
        assert np.array_equal(labels, zoo_direct_labels[name])


class TestConcurrentClose:
    def test_close_is_bounded_by_max_not_sum(self, zoo_model_paths):
        specs = _zoo_specs(zoo_model_paths, replicas=1)
        router = Router(specs).start()
        delay = 0.4
        for deployment in router.deployments.values():
            for replica in deployment._replicas:
                original = replica.close

                def slow_close(t=None, _orig=original):
                    time.sleep(delay)
                    _orig(t)

                replica.close = slow_close
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
        router = Router(_zoo_specs(zoo_model_paths, replicas=1)).start()
        router.close()
        router.close()  # second close is a no-op, not an error
        name, data = next(iter(zoo_data.items()))
        with pytest.raises(ServeError, match="closed"):
            router.predict(name, data.test_images[:2])


class TestHttpRouting:
    """Satellite: registry datasets -> model zoo over real HTTP."""

    def test_zoo_round_trip_bit_exact_over_http(
        self, start_method, zoo_model_paths, zoo_data, zoo_direct_labels
    ):
        """Worker pools per replica, fork and spawn, per-model bit-exact."""
        config = ServeConfig(
            workers=1, max_batch=32, start_method=start_method
        )
        specs = {
            name: DeploymentSpec(path, replicas=1, serve=config)
            for name, path in zoo_model_paths.items()
        }
        with Router(specs) as router:
            with HttpTransport(router) as transport:
                for name, data in zoo_data.items():
                    reply = _post_json(
                        transport.address,
                        f"/models/{name}/predict",
                        {"images": data.test_images.tolist()},
                    )
                    assert reply["model"] == name
                    assert np.array_equal(
                        np.asarray(reply["labels"]), zoo_direct_labels[name]
                    ), name

    def test_models_listing(self, zoo_router, zoo_model_paths):
        with HttpTransport(zoo_router) as transport:
            listing = _get_json(transport.address, "/models")["models"]
            assert {row["model"] for row in listing} == set(zoo_model_paths)
            for row in listing:
                assert row["generation"] == 1
                assert row["ready"] == row["replicas"] == 2
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
            assert health["ok"] and "degraded" in health

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
