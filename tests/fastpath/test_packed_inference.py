"""Packed binarized inference vs the reference cosine classifier."""

import numpy as np
import pytest

from repro.api import get_backend
from repro.core import StreamingUHD, UHDClassifier, UHDConfig
from repro.fastpath.inference import (
    pack_accumulators,
    packed_cosine,
    packed_dot_similarity,
    packed_predict,
)
from repro.hdc.classifier import CentroidClassifier
from repro.hdc.ops import binarize


def _fitted_pair(rng, dim, n=40, classes=4):
    encoded = rng.integers(-100, 101, size=(n, dim), dtype=np.int64)
    labels = rng.integers(0, classes, size=n)
    reference = CentroidClassifier(classes, dim, binarize=True, backend="reference")
    packed = CentroidClassifier(classes, dim, binarize=True, backend="packed")
    return reference.fit(encoded, labels), packed.fit(encoded, labels), encoded


class TestPackedPredict:
    @pytest.mark.parametrize("dim", [37, 64, 100, 1024])  # incl. D % 64 != 0
    def test_predictions_match_reference(self, dim, rng):
        reference, packed, encoded = _fitted_pair(rng, dim)
        queries = rng.integers(-100, 101, size=(25, dim), dtype=np.int64)
        np.testing.assert_array_equal(
            packed.predict(queries), reference.predict(queries)
        )

    def test_tie_handling_contract(self):
        """Exact integer-dot ties go to the lowest class index on both
        backends, so every row agrees.

        D = 128 makes sqrt(D) inexact, so a float-cosine ranking would
        break these ties by rounding noise (batch-shape dependent via BLAS
        blocking); 512 queries reliably produce such ties.
        """
        local = np.random.default_rng(0)
        dim = 128
        encoded = local.integers(-784, 785, size=(512, dim), dtype=np.int64)
        labels = local.integers(0, 10, size=512)
        reference = CentroidClassifier(10, dim, binarize=True, backend="reference")
        packed = CentroidClassifier(10, dim, binarize=True, backend="packed")
        reference.fit(encoded, labels)
        packed.fit(encoded, labels)
        dots = (
            binarize(encoded).astype(np.int64)
            @ binarize(reference.accumulators).astype(np.int64).T
        )
        tied = (dots == dots.max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.any()  # the scenario actually exercises ties
        packed_pred = packed.predict(encoded)
        np.testing.assert_array_equal(packed_pred, reference.predict(encoded))
        np.testing.assert_array_equal(packed_pred, dots.argmax(axis=1))
        # the rule does not depend on the batch: one row at a time agrees
        rows = np.concatenate([reference.predict(row) for row in encoded[tied]])
        np.testing.assert_array_equal(rows, packed_pred[tied])

    def test_dots_match_integer_matmul(self, rng):
        dim = 100
        reference, packed, encoded = _fitted_pair(rng, dim)
        queries = rng.integers(-100, 101, size=(9, dim), dtype=np.int64)
        dots = packed_dot_similarity(
            pack_accumulators(queries), packed._packed_class_words(), dim
        )
        expected = (
            binarize(queries).astype(np.int64)
            @ binarize(reference.accumulators).astype(np.int64).T
        )
        np.testing.assert_array_equal(dots, expected)

    def test_similarities_match_cosine_closely(self, rng):
        reference, packed, encoded = _fitted_pair(rng, 64)
        queries = rng.integers(-100, 101, size=(9, 64), dtype=np.int64)
        np.testing.assert_allclose(
            packed.similarities(queries),
            reference.similarities(queries),
            rtol=0,
            atol=1e-12,
        )

    def test_empty_class_zero_accumulator(self, rng):
        """A class nobody trained stays all-zero: ties-to-+1 on every bit."""
        dim = 70
        encoded = rng.integers(-50, 51, size=(10, dim), dtype=np.int64)
        labels = np.zeros(10, dtype=np.int64)  # class 1 never seen
        reference = CentroidClassifier(2, dim, binarize=True, backend="reference")
        packed = CentroidClassifier(2, dim, binarize=True, backend="packed")
        reference.fit(encoded, labels)
        packed.fit(encoded, labels)
        np.testing.assert_array_equal(
            packed.predict(encoded), reference.predict(encoded)
        )
        # the zero accumulator binarizes to all +1 = all bits set
        words = packed._packed_class_words()
        np.testing.assert_array_equal(
            packed_dot_similarity(words[1:], words[1:], dim), [[dim]]
        )

    def test_zero_query_accumulator(self, rng):
        reference, packed, _ = _fitted_pair(rng, 48)
        queries = np.zeros((2, 48), dtype=np.int64)
        np.testing.assert_array_equal(
            packed.predict(queries), reference.predict(queries)
        )

    def test_packed_cache_invalidated_by_retrain(self, rng):
        dim = 64
        reference, packed, encoded = _fitted_pair(rng, dim)
        labels = rng.integers(0, 4, size=encoded.shape[0])
        packed.predict(encoded)  # build the cache
        reference.retrain(encoded, labels, epochs=2)
        packed.retrain(encoded, labels, epochs=2)
        np.testing.assert_array_equal(
            packed.predict(encoded), reference.predict(encoded)
        )

    def test_packed_predict_function_direct(self, rng):
        dim = 100
        acc = rng.integers(-30, 31, size=(3, dim), dtype=np.int64)
        queries = rng.integers(-30, 31, size=(6, dim), dtype=np.int64)
        words = pack_accumulators(acc)
        expected = (
            binarize(queries).astype(np.int64) @ binarize(acc).astype(np.int64).T
        ).argmax(axis=1)
        np.testing.assert_array_equal(packed_predict(queries, words, dim), expected)
        cos = packed_cosine(pack_accumulators(queries), words, dim)
        assert cos.shape == (6, 3)
        assert np.abs(cos).max() <= 1.0


class TestBackendPolicy:
    def test_non_binarized_stays_on_reference(self):
        assert not get_backend("auto").use_packed_inference(binarize=False)
        assert not get_backend("packed").use_packed_inference(binarize=False)
        assert get_backend("auto").use_packed_inference(binarize=True)
        assert not get_backend("reference").use_packed_inference(binarize=True)

    def test_classifier_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            CentroidClassifier(2, 8, backend="simd")

    def test_non_binarized_predictions_unchanged_by_backend(self, rng):
        dim = 64
        encoded = rng.integers(-50, 51, size=(30, dim), dtype=np.int64)
        labels = rng.integers(0, 3, size=30)
        default = CentroidClassifier(3, dim, backend="auto").fit(encoded, labels)
        reference = CentroidClassifier(3, dim, backend="reference").fit(encoded, labels)
        np.testing.assert_array_equal(
            default.predict(encoded), reference.predict(encoded)
        )


class TestEndToEndBackends:
    def test_uhd_classifier_backends_agree(self, rng):
        images = rng.integers(0, 256, size=(40, 25), dtype=np.uint8)
        labels = rng.integers(0, 3, size=40)
        results = {}
        # dim a power of 4: sqrt(D) and all cosine partial sums are exact
        # in float64, so even tied rows agree deterministically across BLAS
        for backend in ("auto", "packed", "reference"):
            config = UHDConfig(dim=64, binarize=True, backend=backend)
            model = UHDClassifier(25, 3, config).fit(images, labels)
            results[backend] = model.predict(images)
        np.testing.assert_array_equal(results["auto"], results["reference"])
        np.testing.assert_array_equal(results["packed"], results["reference"])

    def test_streaming_backends_agree(self, rng):
        images = rng.integers(0, 256, size=(30, 16), dtype=np.uint8)
        labels = rng.integers(0, 2, size=30)
        scores = {}
        for backend in ("packed", "reference"):
            config = UHDConfig(dim=64, backend=backend)
            stream = StreamingUHD(16, 2, config)
            accs = stream.evaluate_prequential(images, labels, batch_size=10)
            scores[backend] = accs
        assert scores["packed"] == scores["reference"]
