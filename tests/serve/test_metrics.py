"""``/metrics``: exposition conformance, HTTP serving, expiry accounting.

The renderer is validated through the strict parser (the same gate CI
runs), over both a one-deployment router (``repro-uhd serve``) and a
two-model fleet; the parser itself
is then attacked with malformed documents.  The deadline-expiry tests
pin the accounting contract end to end over HTTP: one 504 == exactly
one lane's ``expired`` increment == exactly one ``latency.excluded``,
and never a histogram observation.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    BinaryClient,
    DeploymentSpec,
    HttpTransport,
    LaneConfig,
    Router,
    ServeConfig,
    SocketTransport,
    parse_exposition,
    render_metrics,
)
from repro.serve.metrics import CACHE_ROWS, DEPLOYMENT_ROWS, LANE_ROWS, WIRE_ROWS

TWO_LANES = (
    LaneConfig("interactive", max_batch=16, max_wait_ms=1.0, weight=4.0),
    LaneConfig("bulk", max_wait_ms=20.0),
)


def _router(model_path, config: ServeConfig) -> Router:
    """One deployment: the router ``repro-uhd serve`` runs."""
    return Router({"m": DeploymentSpec(model_path, serve=config)})


def _get(address: str, path: str, timeout: float = 30.0):
    with urllib.request.urlopen(address + path, timeout=timeout) as response:
        return response.status, dict(response.headers), response.read()


def _sample(families: dict, family: str, name: str | None = None, **labels):
    """The single sample matching (name, labels), or fail loudly."""
    name = name or family
    matches = [
        value
        for sample_name, sample_labels, value in families[family]["samples"]
        if sample_name == name
        and all(sample_labels.get(k) == v for k, v in labels.items())
    ]
    assert len(matches) == 1, (family, name, labels, matches)
    return matches[0]


def _wait_for_idle_connections(router: Router, timeout: float = 10.0) -> None:
    """Handler threads close their connections after the client is done."""
    deadline = time.monotonic() + timeout
    while any(w["connections_open"] for w in router.stats()["transports"]):
        assert time.monotonic() < deadline, router.stats()["transports"]
        time.sleep(0.01)


class TestRenderSingleServer:
    def test_exposition_parses_and_counts_match_stats(
        self, zoo_model_paths, zoo_data
    ):
        """Two models, two lanes, both wires and two HTTP transports on
        one router: every sample equals the ``/stats`` field its table
        row names, and the tables name every family rendered."""
        config = ServeConfig(workers=0, lanes=TWO_LANES)
        specs = {
            name: DeploymentSpec(path, serve=config)
            for name, path in zoo_model_paths.items()
        }
        with Router(specs) as router, HttpTransport(router) as http1, \
                HttpTransport(router) as http2, SocketTransport(router) as wire:
            for name, data in zoo_data.items():
                router.predict(name, data.test_images[:8], lane="interactive")
                router.predict(name, data.test_images[:20], lane="bulk")
                images = np.ascontiguousarray(
                    data.test_images[:3], dtype=np.uint8
                )
                for transport in (http1, http2):
                    request = urllib.request.Request(
                        f"{transport.address}/models/{name}/predict",
                        data=images.tobytes(),
                        headers={"Content-Type": "application/octet-stream"},
                    )
                    urllib.request.urlopen(request, timeout=30.0).read()
                with BinaryClient(wire.host, wire.port) as client:
                    client.predict(images, lane="bulk", model=name)
            _wait_for_idle_connections(router)
            text = render_metrics(router)
            documents = {name: router.stats(name) for name in specs}
        families = parse_exposition(text)  # raises on any violation
        for name, document in documents.items():
            for row in DEPLOYMENT_ROWS:
                assert _sample(families, row.family, model=name) == (
                    document[row.field]
                ), row
            for lane in document["lanes"]:
                labels = {"model": name, "lane": lane["name"]}
                for row in LANE_ROWS:
                    value = lane[row.field]
                    if isinstance(value, dict):  # a histogram: its _count
                        assert _sample(
                            families, row.family, row.family + "_count",
                            **labels,
                        ) == value["count"], row
                    else:
                        assert _sample(families, row.family, **labels) == (
                            value
                        ), row
        transports = document["transports"]
        assert [t["name"] for t in transports] == ["http", "binary"]
        assert transports[0]["frames_out"] == 4  # both HTTP transports
        for transport in transports:
            for row in WIRE_ROWS:
                assert _sample(
                    families, row.family, transport=transport["name"],
                    **row.labels,
                ) == transport[row.field], row
        for row in CACHE_ROWS:
            assert _sample(families, row.family) == document["cache"][row.field]
        tables = DEPLOYMENT_ROWS + LANE_ROWS + WIRE_ROWS + CACHE_ROWS
        assert set(families) == {row.family for row in tables}

    def test_families_are_typed_and_helped(self, model_path):
        with _router(model_path, ServeConfig(workers=0)) as router:
            families = parse_exposition(render_metrics(router))
        for family, entry in families.items():
            assert entry["help"], f"{family} has no HELP"
            assert entry["type"] != "untyped", f"{family} has no TYPE"
        assert families["uhd_requests_total"]["type"] == "counter"
        assert families["uhd_workers"]["type"] == "gauge"
        assert families["uhd_lane_latency_seconds"]["type"] == "histogram"

    def test_cache_gauges_present(self, model_path):
        with _router(model_path, ServeConfig(workers=0)) as router:
            families = parse_exposition(render_metrics(router))
        assert _sample(families, "uhd_cache_encoders") >= 1
        assert _sample(families, "uhd_cache_table_bytes") > 0


class TestMetricsOverHttp:
    def test_endpoint_content_type_and_conformance(
        self, model_path, serve_data
    ):
        config = ServeConfig(workers=0, lanes=TWO_LANES)
        with _router(model_path, config) as router:
            with HttpTransport(router) as transport:
                router.predict("m", serve_data.test_images[:8], lane="interactive")
                status, headers, body = _get(transport.address, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in headers["Content-Type"]
        families = parse_exposition(body.decode("utf-8"))
        assert _sample(families, "uhd_requests_total") == 1
        assert body.endswith(b"\n")

    def test_router_mode_adds_model_labels_and_fleet_gauges(
        self, zoo_model_paths, zoo_data
    ):
        specs = {
            name: DeploymentSpec(path, serve=ServeConfig(workers=0))
            for name, path in zoo_model_paths.items()
        }
        with Router(specs) as router:
            first = next(iter(zoo_data))
            images = zoo_data[first].test_images[:4]
            router.predict(first, images)
            with HttpTransport(router) as transport:
                status, _, body = _get(transport.address, "/metrics")
        assert status == 200
        families = parse_exposition(body.decode("utf-8"))
        for name in specs:
            assert _sample(families, "uhd_deployment_generation", model=name) == 1
        assert _sample(families, "uhd_requests_total", model=first) == 1
        # per-lane histogram rows carry both model and lane labels
        count = _sample(
            families,
            "uhd_lane_latency_seconds",
            name="uhd_lane_latency_seconds_count",
            model=first,
            lane="default",
        )
        assert count >= 1


class TestParserStrictness:
    def test_sample_before_type_rejected(self):
        with pytest.raises(ValueError, match="before its # TYPE"):
            parse_exposition("uhd_thing_total 3\n")

    def test_duplicate_series_rejected(self):
        text = (
            "# HELP x_total things\n# TYPE x_total counter\n"
            'x_total{a="1"} 1\nx_total{a="1"} 2\n'
        )
        with pytest.raises(ValueError, match="duplicate series"):
            parse_exposition(text)

    def test_histogram_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="0.1"} 1\n'
            "h_seconds_sum 0.05\nh_seconds_count 1\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_exposition(text)

    def test_histogram_non_cumulative_rejected(self):
        text = (
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="0.1"} 5\n'
            'h_seconds_bucket{le="1"} 3\n'
            'h_seconds_bucket{le="+Inf"} 5\n'
            "h_seconds_sum 0.5\nh_seconds_count 5\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_exposition(text)

    def test_histogram_count_disagreeing_with_inf_rejected(self):
        text = (
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="+Inf"} 5\n'
            "h_seconds_sum 0.5\nh_seconds_count 4\n"
        )
        with pytest.raises(ValueError, match="disagrees"):
            parse_exposition(text)

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError):
            parse_exposition('# TYPE x gauge\nx{a=unquoted} 1\n')
        with pytest.raises(ValueError):
            parse_exposition('# TYPE x gauge\nx{a="open 1\n')

    def test_escaped_label_values_round_trip(self):
        text = '# TYPE x gauge\nx{a="q\\"uote\\\\slash\\nnl"} 1\n'
        families = parse_exposition(text)
        ((_, labels, _),) = families["x"]["samples"]
        assert labels["a"] == 'q"uote\\slash\nnl'

    def test_renderer_escapes_hostile_lane_names(self, model_path):
        hostile = 'la"ne\\x'
        config = ServeConfig(workers=0, lanes=(LaneConfig(hostile),))
        with _router(model_path, config) as router:
            families = parse_exposition(render_metrics(router))
        assert _sample(families, "uhd_lane_queue_depth", lane=hostile) == 0


class TestExpiryAccountingOverHttp:
    def test_504_increments_exactly_one_lane(
        self, model_path, serve_data, hold_executor
    ):
        """One expired deadline over HTTP: a 504 reply, one ``expired``
        tick on the flooded lane only, mirrored in that lane's
        ``latency.excluded`` — and never a latency observation."""
        config = ServeConfig(
            workers=1,
            max_batch=1,
            max_wait_ms=0.0,
            lanes=(
                LaneConfig("interactive", max_batch=1, max_wait_ms=0.0),
                LaneConfig("bulk", max_batch=1, max_wait_ms=0.0),
            ),
        )
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            with HttpTransport(router) as transport:
                flood = [
                    router.submit("m", serve_data.test_images[i % 8], lane="bulk")
                    for i in range(60)
                ]
                # one flood item held in predict, 59 queued, then the 504
                release = held.release_once_accepted(61)
                request = urllib.request.Request(
                    transport.address + "/predict?lane=bulk&deadline_ms=1",
                    data=np.ascontiguousarray(
                        serve_data.test_images[:1], dtype=np.uint8
                    ).tobytes(),
                    headers={"Content-Type": "application/octet-stream"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=30.0)
                assert excinfo.value.code == 504
                release.join()
                for handle in flood:
                    handle.result(timeout=60.0)
                stats = router.deployment("m").stats()
                status, _, body = _get(transport.address, "/metrics")
        lanes = {lane.name: lane for lane in stats.lanes}
        assert lanes["bulk"].expired == 1
        assert lanes["interactive"].expired == 0
        assert lanes["bulk"].latency.excluded == 1
        assert lanes["interactive"].latency.excluded == 0
        # the expired request never entered the distribution
        assert lanes["bulk"].latency.count == lanes["bulk"].served
        # and /metrics agrees with /stats
        families = parse_exposition(body.decode("utf-8"))
        assert _sample(families, "uhd_lane_expired_total", lane="bulk") == 1
        assert (
            _sample(families, "uhd_lane_expired_total", lane="interactive") == 0
        )
        assert (
            _sample(
                families,
                "uhd_lane_latency_seconds",
                name="uhd_lane_latency_seconds_count",
                lane="bulk",
            )
            == lanes["bulk"].served
        )

    def test_stats_json_carries_the_excluded_count(
        self, model_path, serve_data, hold_executor
    ):
        """The JSON view exposes the same accounting (`/stats` endpoint)."""
        config = ServeConfig(workers=1, max_batch=1, max_wait_ms=0.0)
        with _router(model_path, config) as router:
            held = hold_executor(router.deployment("m"))
            flood = [
                router.submit("m", serve_data.test_images[i % 8])
                for i in range(40)
            ]
            doomed = router.submit(
                "m", serve_data.test_images[0], deadline_ms=1.0
            )
            held.release_once_accepted(41).join()
            with pytest.raises(Exception, match="expired"):
                doomed.result(timeout=30.0)
            for handle in flood:
                handle.result(timeout=60.0)
            payload = router.stats()
        (lane,) = payload["lanes"]
        assert lane["expired"] == 1
        assert lane["latency"]["excluded"] == 1
        assert lane["latency"]["count"] == lane["served"]
        assert sum(lane["latency"]["counts"]) == lane["latency"]["count"]
