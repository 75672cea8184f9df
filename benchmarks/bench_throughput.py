"""Micro-benchmarks: software throughput of the reproduction's hot paths.

Not a paper table — these are the timings a downstream user of the library
cares about (encode rate, comparator batch rate, netlist simulation rate),
measured with pytest-benchmark's statistical machinery.
"""

import numpy as np
import pytest

from repro.core import SobolLevelEncoder, UHDConfig
from repro.fastpath import PackedLevelEncoder
from repro.hardware import Simulator
from repro.hardware.circuits import (
    build_unary_comparator,
    random_value_pairs,
    unary_comparator_stimulus,
)
from repro.hdc import BaselineConfig, BaselineHDC
from repro.hdc.classifier import CentroidClassifier
from repro.unary import UnaryStreamTable, unary_ge_batch


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(32, 28, 28), dtype=np.uint8)


@pytest.fixture(scope="module")
def encoded_queries():
    rng = np.random.default_rng(3)
    encoded = rng.integers(-784, 785, size=(512, 1024), dtype=np.int64)
    labels = rng.integers(0, 10, size=512)
    return encoded, labels


def _fitted_classifier(encoded, labels, backend):
    clf = CentroidClassifier(10, 1024, binarize=True, backend=backend)
    return clf.fit(encoded, labels)


def test_uhd_encode_throughput(benchmark, images):
    encoder = SobolLevelEncoder(784, UHDConfig(dim=1024))
    result = benchmark(encoder.encode_batch, images)
    assert result.shape == (32, 1024)


def test_uhd_packed_encode_throughput(benchmark, images):
    """Packed fast path on the exact reference workload (>=10x target)."""
    reference = SobolLevelEncoder(784, UHDConfig(dim=1024))
    encoder = PackedLevelEncoder(784, UHDConfig(dim=1024))
    encoder.encode_batch(images)  # build the gather table
    result = benchmark(encoder.encode_batch, images)
    np.testing.assert_array_equal(result, reference.encode_batch(images))


def test_uhd_predict_binarized_throughput(benchmark, encoded_queries):
    clf = _fitted_classifier(*encoded_queries, backend="reference")
    result = benchmark(clf.predict, encoded_queries[0])
    assert result.shape == (512,)


def test_uhd_packed_predict_throughput(benchmark, encoded_queries):
    reference = _fitted_classifier(*encoded_queries, backend="reference")
    clf = _fitted_classifier(*encoded_queries, backend="packed")
    clf.predict(encoded_queries[0])  # warm the packed class-HV cache
    result = benchmark(clf.predict, encoded_queries[0])
    # exact equality is safe at D=1024 (a power of 4): reference cosines
    # are computed without rounding, so even tied rows break identically
    np.testing.assert_array_equal(result, reference.predict(encoded_queries[0]))


def test_baseline_encode_throughput(benchmark, images):
    model = BaselineHDC(784, 10, BaselineConfig(dim=1024, seed=0))
    levels = np.random.default_rng(1).integers(0, 16, size=(32, 784))
    result = benchmark(model.encoder.encode_batch, levels)
    assert result.shape == (32, 1024)


def test_unary_comparator_batch_throughput(benchmark):
    table = UnaryStreamTable(16)
    rng = np.random.default_rng(2)
    first = table.fetch_batch(rng.integers(0, 16, size=4096))
    second = table.fetch_batch(rng.integers(0, 16, size=4096))
    result = benchmark(unary_ge_batch, first, second)
    assert result.shape == (4096,)


def test_netlist_simulation_rate(benchmark):
    netlist = build_unary_comparator(16)
    stimulus = unary_comparator_stimulus(16, random_value_pairs(16, 100, seed=0))

    def run():
        sim = Simulator(netlist)
        return sim.run(stimulus)

    outputs = benchmark(run)
    assert len(outputs) == 100


def test_sobol_generation_rate(benchmark):
    # benchmark the engine directly: sobol_sequences now memoizes, so the
    # library call would only measure a cache hit after the first round
    from repro.lds import SobolEngine

    def generate():
        return SobolEngine(784, seed=7).random(1024).T

    result = benchmark(generate)
    assert result.shape == (784, 1024)
