"""HDC noise robustness."""

import numpy as np
import pytest

from repro.core import UHDClassifier, UHDConfig


class TestNoiseRobustness:
    """The paper's §III robustness claim: "hypervector generation may
    experience some flipped bits ... the accumulated values yield large
    scalars and the sign of accumulation is not easily affected."  We
    inject bit flips at the *level-bit* stage (noisy comparator outputs)
    and check the accumulation absorbs them."""

    @pytest.fixture(scope="class")
    def fitted(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=1024))
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        return model, tiny_digits.test_images, tiny_digits.test_labels

    def _encode_with_bit_flips(self, model, images, flip_fraction, seed=0):
        """Re-encode images with a fraction of level bits flipped."""
        from repro.lds.quantize import quantize_intensity

        rng = np.random.default_rng(seed)
        enc = model.encoder
        codes = enc.quantized_codes
        flat = images.reshape(images.shape[0], -1)
        pixel_codes = quantize_intensity(flat, model.config.levels)
        out = np.empty((flat.shape[0], enc.dim), dtype=np.int64)
        for index in range(flat.shape[0]):
            ge = pixel_codes[index][:, None] >= codes  # (H, D) level bits
            flips = rng.random(ge.shape) < flip_fraction
            noisy = ge ^ flips
            out[index] = 2 * noisy.sum(axis=0, dtype=np.int64) - flat.shape[1]
        return out

    def _accuracy(self, fitted, flip_fraction):
        model, images, labels = fitted
        encoded = self._encode_with_bit_flips(model, images, flip_fraction)
        return float(np.mean(model.classifier.predict(encoded) == labels))

    def test_clean_matches_normal_path(self, fitted):
        model, images, labels = fitted
        encoded = self._encode_with_bit_flips(model, images, 0.0)
        np.testing.assert_array_equal(encoded,
                                      model.encoder.encode_batch(images))

    def test_graceful_degradation(self, fitted):
        clean = self._accuracy(fitted, 0.0)
        light = self._accuracy(fitted, 0.02)
        moderate = self._accuracy(fitted, 0.10)
        assert light > clean - 0.10   # 2% flipped comparator bits: negligible
        assert moderate > 0.25        # 10%: degraded but far above chance

    def test_symmetric_noise_cancels_in_expectation(self, fitted):
        model, images, _ = fitted
        clean = model.encoder.encode_batch(images[:10]).astype(np.float64)
        noisy = self._encode_with_bit_flips(model, images[:10], 0.05)
        # Flips push each accumulator toward 0 by ~2*eps*|V|; correlation
        # with the clean encoding stays overwhelming.
        for c, n in zip(clean, noisy.astype(np.float64)):
            corr = np.corrcoef(c, n)[0, 1]
            assert corr > 0.9
