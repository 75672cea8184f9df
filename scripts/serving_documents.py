#!/usr/bin/env python
"""Print the observability documents of one fixed serving scenario.

A refactor of the counters, ``/stats`` or ``/metrics`` must leave both
documents as they were.  This script drives the same traffic through a
router every time and prints its ``/metrics`` exposition and each
deployment's ``/stats`` document, with the values that depend on timing
masked: latency ``_bucket`` and ``_sum`` samples, the latency
section's sums, means, quantiles and bucket counts, and the temporary
model directory.  Run it in two
checkouts and diff the output::

    PYTHONPATH=src python scripts/serving_documents.py > after.txt
    (cd ../parent && PYTHONPATH=src python scripts/serving_documents.py) > before.txt
    diff before.txt after.txt

The scenario: two models (``a`` at D=256, ``b`` at D=512), two lanes,
``workers=0``, two HTTP transports and one binary transport on one
router; JSON and octet predicts over HTTP, predicts over the binary
wire, a request split into two parts, a 400 and a 404.  The
documents are read in-process (``router.stats`` and ``render_metrics``)
and then ``/metrics`` once over HTTP.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

_MASKED_LATENCY = ("sum_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "counts")
_MASKED_SAMPLE = re.compile(r"^(uhd_lane_latency_seconds_(?:bucket|sum)\S*) .*$")


def _post(url: str, body: bytes, headers: dict) -> int:
    request = urllib.request.Request(url, data=body, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            response.read()
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


def _masked_stats(document: dict) -> str:
    for lane in document["lanes"]:
        for key in _MASKED_LATENCY:
            lane["latency"][key] = "<masked>"
    return json.dumps(document, indent=1)


def _masked_metrics(text: str) -> str:
    return "\n".join(
        _MASKED_SAMPLE.sub(r"\1 <masked>", line) for line in text.splitlines()
    )


def main() -> int:
    import numpy as np

    from repro import UHDClassifier, UHDConfig, load_dataset
    from repro.serve import (
        BinaryClient,
        DeploymentSpec,
        HttpTransport,
        LaneConfig,
        Router,
        ServeConfig,
        SocketTransport,
        render_metrics,
    )

    data = load_dataset("mnist", n_train=200, n_test=80, seed=3).grayscale()
    images = np.ascontiguousarray(data.test_images, dtype=np.uint8)
    config = ServeConfig(
        workers=0,
        lanes=(LaneConfig("interactive", max_batch=16, weight=4.0),
               LaneConfig("bulk", max_batch=64)),
    )
    with tempfile.TemporaryDirectory() as root:
        specs = {}
        for name, dim in (("a", 256), ("b", 512)):
            model = UHDClassifier(
                data.num_pixels, data.num_classes, UHDConfig(dim=dim)
            )
            model.fit(data.train_images, data.train_labels)
            path = Path(root) / f"{name}.npz"
            model.save(path)
            specs[name] = DeploymentSpec(path, serve=config)
        with Router(specs) as router, HttpTransport(router) as http1, \
                HttpTransport(router) as http2, SocketTransport(router) as wire:
            json_body = json.dumps({"images": images[:3].tolist(),
                                    "lane": "interactive"}).encode()
            statuses = [
                _post(http1.address + "/predict", json_body,
                      {"Content-Type": "application/json"}),
                _post(http2.address + "/models/b/predict?lane=bulk",
                      images[:5].tobytes(),
                      {"Content-Type": "application/octet-stream",
                       "Accept": "application/octet-stream"}),
                _post(http1.address + "/predict", b"not json",
                      {"Content-Type": "application/json"}),
                _post(http2.address + "/models/zz/predict", json_body,
                      {"Content-Type": "application/json"}),
            ]
            assert statuses == [200, 200, 400, 404], statuses
            with BinaryClient(wire.host, wire.port) as client:
                client.predict(images[:2], lane="interactive", model="b")
                client.predict(images[:4], lane="bulk")
            router.predict("a", images[:70], lane="bulk")  # two parts
            time.sleep(0.5)  # let handler threads finish their connections
            sections = [("render_metrics", _masked_metrics(render_metrics(router)))]
            for model_id in specs:
                sections.append(
                    (f"router.stats({model_id!r})",
                     _masked_stats(router.stats(model_id)))
                )
            # one GET only: a reply's size enters the next document's
            # http bytes_out, and a masked value's size varies run to run
            sections.append(
                ("GET /metrics", _masked_metrics(_get(http1.address + "/metrics")))
            )
    for title, text in sections:
        print(f"==== {title}")
        print(text.replace(root, "<tmp>"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
