"""Schema stability of the observability surfaces, plus generation merge.

Dashboards, the Prometheus renderer, and the load harness all key into
``/stats`` JSON by name — a silently dropped or renamed key breaks them
without any test noticing.  The serving layer has one stats document (a
deployment's: the ``ServerStats`` keys plus the fleet keys, served by
bare ``/stats`` and ``/models/<id>/stats`` alike); these golden key
sets pin every section of it: adding a key is a deliberate one-line
test update, removing one is a loud failure.

``TestGenerationMerge`` pins the cross-hot-reload invariant: a
deployment's per-lane histogram holds every generation's buckets — a
reload swaps the model inside the one server, so its histogram runs on:
count == sum of generation counts, no bucket loss, quantiles
monotonic-consistent.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import DeploymentSpec, LaneConfig, Router, ServeConfig

#: the ``ServerStats.as_dict()`` keys ...
SERVER_KEYS = {
    "mode",
    "workers",
    "requests",
    "images",
    "batches",
    "max_batch_seen",
    "mean_batch_size",
    "restarts",
    "lanes",
    "expired",
    "failed",
    "cache",
    "transports",
}

LANE_KEYS = {
    "name",
    "depth",
    "queued_rows",
    "submitted",
    "served",
    "served_rows",
    "batches",
    "expired",
    "failed",
    "latency",
}

LATENCY_KEYS = {
    "count",
    "excluded",
    "sum_ms",
    "mean_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "le_ms",
    "counts",
}

CACHE_KEYS = {"entries", "table_bytes"}

#: ... plus the fleet keys make the one stats document
DOCUMENT_KEYS = SERVER_KEYS | {
    "model",
    "path",
    "generation",
}


class TestServerStatsSchema:
    @pytest.fixture()
    def payload(self, model_path, serve_data):
        config = ServeConfig(
            workers=0,
            lanes=(LaneConfig("interactive", weight=4.0), LaneConfig("bulk")),
        )
        with Router({"m": DeploymentSpec(model_path, serve=config)}) as router:
            router.predict("m", serve_data.test_images[:8], lane="interactive")
            return router.stats()

    def test_top_level_keys(self, payload):
        assert set(payload) == DOCUMENT_KEYS

    def test_lane_section_keys(self, payload):
        assert len(payload["lanes"]) == 2
        for lane in payload["lanes"]:
            assert set(lane) == LANE_KEYS
            assert set(lane["latency"]) == LATENCY_KEYS

    def test_cache_section_keys(self, payload):
        assert set(payload["cache"]) == CACHE_KEYS

    def test_document_is_json_serializable(self, payload):
        round_tripped = json.loads(json.dumps(payload))
        assert set(round_tripped) == DOCUMENT_KEYS


class TestRouterStatsSchema:
    @pytest.fixture()
    def documents(self, model_path, serve_data):
        spec = DeploymentSpec(model_path, serve=ServeConfig(workers=0))
        with Router({"m": spec}) as router:
            router.predict("m", serve_data.test_images[:4])
            return router.stats(), router.stats("m")

    def test_router_document(self, documents):
        """Bare ``router.stats()`` is the default deployment's document."""
        router_stats, deployment_stats = documents
        assert router_stats == deployment_stats
        assert not router_stats["transports"]  # no transport attached

    def test_deployment_document(self, documents):
        _, deployment_stats = documents
        assert set(deployment_stats) == DOCUMENT_KEYS

    def test_deployment_lane_rows(self, documents):
        _, deployment_stats = documents
        assert deployment_stats["lanes"], "expected at least the default lane"
        for lane in deployment_stats["lanes"]:
            assert set(lane) == LANE_KEYS
            assert set(lane["latency"]) == LATENCY_KEYS

    def test_documents_are_json_serializable(self, documents):
        router_stats, deployment_stats = documents
        json.dumps(router_stats)
        json.dumps(deployment_stats)


class TestGenerationMerge:
    def test_histograms_merge_losslessly_across_hot_reloads(
        self, model_path, serve_data
    ):
        """Two generations of traffic; the deployment's lane histogram
        must be their exact element-wise sum (no bucket loss) and its
        quantiles must stay inside the generations' envelope."""
        spec = DeploymentSpec(model_path, serve=ServeConfig(workers=0))
        with Router({"m": spec}) as router:
            deployment = router.deployment("m")
            for _ in range(6):
                router.predict("m", serve_data.test_images[:4])
            (gen1,) = (lane.latency for lane in deployment.stats().lanes)
            assert gen1.count == 6

            report = router.reload("m")  # same path, new generation
            assert report["to_generation"] == 2

            for _ in range(4):
                router.predict("m", serve_data.test_images[:2])
            (merged,) = (lane.latency for lane in deployment.stats().lanes)
            stats = router.stats("m")

        live = deployment_live = merged.count - gen1.count
        assert deployment_live == 4  # gen2-only traffic
        assert merged.count == gen1.count + live  # count conservation
        # no bucket loss: per-bucket totals still sum to the count
        assert sum(merged.counts) == merged.count
        # every gen1 bucket is still fully present in the merge
        assert all(
            m >= g for m, g in zip(merged.counts, gen1.counts)
        )
        assert stats["generation"] == 2
        (lane,) = stats["lanes"]
        assert lane["name"] == "default"
        assert lane["served"] == merged.count
        assert lane["latency"]["count"] == merged.count
        # quantiles are monotone under merge-with-more-data: they stay
        # within the global envelope of recorded buckets
        assert 0.0 <= lane["latency"]["p50_ms"] <= lane["latency"]["p99_ms"]

    def test_merge_accumulates_over_repeated_reloads(
        self, model_path, serve_data
    ):
        """Three generations: totals keep up, never reset, never double."""
        spec = DeploymentSpec(model_path, serve=ServeConfig(workers=0))
        per_generation = 3
        with Router({"m": spec}) as router:
            deployment = router.deployment("m")
            for generation in range(3):
                for _ in range(per_generation):
                    router.predict("m", serve_data.test_images[:1])
                (snap,) = (
                    lane.latency for lane in deployment.stats().lanes
                )
                assert snap.count == per_generation * (generation + 1)
                if generation < 2:
                    router.reload("m")
            stats = router.stats("m")
        assert stats["generation"] == 3
        (lane,) = stats["lanes"]
        assert lane["latency"]["count"] == 3 * per_generation
        assert sum(lane["latency"]["counts"]) == 3 * per_generation
