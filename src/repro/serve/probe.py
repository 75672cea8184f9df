"""Serving-readiness probe — one implementation for CLI and server.

``repro-uhd serve-check`` and every :class:`~repro.serve.server.UHDServer`
run the *same* check before declaring a model servable:

1. warm-load the model (``load_model`` — construction from config plus
   the saved accumulators, never re-fitting or re-encoding data),
2. run one prediction batch to populate the warm state (gather tables,
   packed class words),
3. predict the identical batch again and require **bit-identical**
   labels (catches nondeterministic or stateful backends before any
   traffic reaches them),
4. time repeated predictions and report the median latency.

Keeping it in one function means the CLI probe and the server's
readiness gate can never drift apart: if ``serve-check`` passes on an
operator's machine, the exact same code path gates each server.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..api.estimator import Estimator

__all__ = ["ProbeResult", "readiness_probe"]


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one readiness probe over a warm-loaded model."""

    batch: int  #: images per timed predict call
    repeats: int  #: timed calls (median reported)
    median_s: float  #: median wall time of one predict call
    deterministic: bool  #: always True for a returned result

    @property
    def images_per_s(self) -> float:
        return self.batch / self.median_s if self.median_s > 0 else float("inf")

    @property
    def median_ms(self) -> float:
        return self.median_s * 1e3


def readiness_probe(
    model: "Estimator",
    num_pixels: int,
    batch: int = 64,
    repeats: int = 10,
    seed: int = 0,
) -> ProbeResult:
    """Assert ``model`` is warm and deterministic; measure predict latency.

    ``num_pixels`` sizes the synthetic uint8 query images (callers pass
    ``model.num_pixels``).  Raises ``AssertionError`` if two predictions
    of the same batch differ — a model that fails this must not serve.
    """
    if batch < 1 or repeats < 1:
        raise ValueError("batch and repeats must both be >= 1")
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(batch, num_pixels), dtype=np.uint8)
    first = model.predict(images)  # warms gather tables / packed class words
    if not np.array_equal(first, model.predict(images)):
        raise AssertionError("predictions are not deterministic on repeat calls")
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        model.predict(images)
        timings.append(time.perf_counter() - start)
    return ProbeResult(
        batch=batch,
        repeats=repeats,
        median_s=float(np.median(timings)),
        deterministic=True,
    )
