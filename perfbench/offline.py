"""Offline workload: fit and predict in-process through ``UHDClassifier``.

No serving layer runs.  Encode and classify do nearly all the work, and
synthetic MNIST is sparse (~81% zero pixels), so the pair-table gathers
mostly hit cache.  This is the workload for encode-kernel claims; a
serving change should leave it unchanged.
"""

from __future__ import annotations

import numpy as np

from common import CLASSES, PIXELS, config, dense, now_ns

N_TRAIN = 2048
N_TEST = 1024
CALL_ROWS = 64  #: images per predict call (one "request")
WARMUP_ROWS = 128  #: warm-up encode: builds the codebook and gather tables
SETUP_REPEATS = 15


def setup(train, tracer=None):
    """Codebook plus table build, through a warm-up encode; (model, s)."""
    from repro import UHDClassifier
    import repro.lds.sobol as sobol

    sobol.clear_sobol_cache()  # every repeat pays for the codebook
    t0 = now_ns()
    model = UHDClassifier(PIXELS, CLASSES, config())
    warm = model.encoder.encode_batch
    if tracer is not None:
        warm = tracer.span("warmup", warm)
    warm(train[:WARMUP_ROWS])
    return model, (now_ns() - t0) / 1e9


def gate(model, train, labels, test, seed: int) -> tuple[np.ndarray, list[str]]:
    """Fit, then check encode and predict against the reference backend.

    Returns the expected labels for ``test`` and a list of problems.
    Under ``binarize=True`` the class hypervectors of this MNIST stand-in
    coincide, so every label is class 0; the bit-exact accumulator check
    is what guards the encode arithmetic.
    """
    from repro.api import get_backend

    model.fit(train, labels)
    expected = model.predict(test)
    probe = np.concatenate([test[:32], dense(seed, 32)])
    reference = get_backend("reference").make_encoder(PIXELS, config())
    problems = []
    if not np.array_equal(model.encoder.encode_batch(probe),
                          reference.encode_batch(probe)):
        problems.append("packed encode accumulators differ from the reference")
    if not np.array_equal(model.predict(probe),
                          model.with_backend("reference").predict(probe)):
        problems.append("packed predictions differ from the reference backend")
    return expected, problems


def measure(model, train, labels, test, expected, seconds: float) -> dict:
    """Rounds of fit(train) + predict(test in CALL_ROWS calls) for ``seconds``."""
    end = now_ns() + int(seconds * 1e9)
    fit_rates, predict_rates, call_ms = [], [], []
    calls = wrong = 0
    while now_ns() < end:
        t0 = now_ns()
        model.fit(train, labels)
        fit_rates.append(len(train) / ((now_ns() - t0) / 1e9))
        total = 0
        for start in range(0, len(test), CALL_ROWS):
            t0 = now_ns()
            got = model.predict(test[start:start + CALL_ROWS])
            dt = now_ns() - t0
            total += dt
            call_ms.append(dt / 1e6)
            calls += 1
            wrong += not np.array_equal(got, expected[start:start + CALL_ROWS])
        predict_rates.append(len(test) / (total / 1e9))
    return {
        "fit_rates": fit_rates,
        "predict_rates": predict_rates,
        "call_ms": call_ms,
        "attempted": calls,
        "failed": wrong,
    }
