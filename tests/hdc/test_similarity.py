"""Similarity kernels and winner-take-all."""

import numpy as np
import pytest

from repro.hdc import (
    classify,
    cosine_similarity,
    random_hypervectors,
)


class TestCosine:
    def test_self_similarity(self):
        hv = random_hypervectors(1, 256, np.random.default_rng(0))
        assert cosine_similarity(hv, hv)[0, 0] == pytest.approx(1.0)

    def test_opposite(self):
        hv = random_hypervectors(1, 256, np.random.default_rng(1))
        assert cosine_similarity(hv, -hv)[0, 0] == pytest.approx(-1.0)

    def test_orthogonal(self):
        a = np.array([[1, 1, -1, -1]])
        b = np.array([[1, -1, 1, -1]])
        assert cosine_similarity(a, b)[0, 0] == pytest.approx(0.0)

    def test_batched_shape(self):
        rng = np.random.default_rng(2)
        q = random_hypervectors(5, 64, rng)
        r = random_hypervectors(3, 64, rng)
        assert cosine_similarity(q, r).shape == (5, 3)

    def test_vector_promoted(self):
        rng = np.random.default_rng(3)
        q = random_hypervectors(1, 64, rng)[0]
        r = random_hypervectors(3, 64, rng)
        assert cosine_similarity(q, r).shape == (1, 3)

    def test_zero_vector_is_neutral(self):
        zero = np.zeros((1, 8))
        other = np.ones((1, 8))
        assert cosine_similarity(zero, other)[0, 0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones((1, 4)), np.ones((1, 5)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(2, 32))
        r = rng.normal(size=(3, 32))
        np.testing.assert_allclose(
            cosine_similarity(q, r), cosine_similarity(q * 7.5, r * 0.2)
        )

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones((1, 2, 3)), np.ones((1, 3)))


class TestClassify:
    def test_argmax(self):
        sims = np.array([[0.1, 0.9, 0.3], [0.8, 0.2, 0.1]])
        np.testing.assert_array_equal(classify(sims), [1, 0])

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            classify(np.array([0.1, 0.9]))
