"""End-to-end UHDClassifier."""

import numpy as np
import pytest

from repro.core import UHDClassifier, UHDConfig


class TestTraining:
    def test_beats_chance(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=512))
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        acc = model.score(tiny_digits.test_images, tiny_digits.test_labels)
        assert acc > 0.3

    def test_deterministic(self, tiny_digits):
        scores = []
        for _ in range(2):
            model = UHDClassifier(784, 10, UHDConfig(dim=256))
            model.fit(tiny_digits.train_images, tiny_digits.train_labels)
            scores.append(model.score(tiny_digits.test_images,
                                      tiny_digits.test_labels))
        assert scores[0] == scores[1]

    def test_accuracy_grows_with_dim(self, tiny_digits):
        accs = {}
        for dim in (64, 1024):
            model = UHDClassifier(784, 10, UHDConfig(dim=dim))
            model.fit(tiny_digits.train_images, tiny_digits.train_labels)
            accs[dim] = model.score(tiny_digits.test_images,
                                    tiny_digits.test_labels)
        assert accs[1024] >= accs[64] - 0.05  # no collapse at higher D

    def test_predict_shape(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=256))
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        preds = model.predict(tiny_digits.test_images)
        assert preds.shape == (tiny_digits.test_images.shape[0],)
        assert preds.min() >= 0 and preds.max() < 10

    def test_default_config(self):
        model = UHDClassifier(16, 2)
        assert model.config.dim == 1024

    def test_retrain_does_not_hurt_train_accuracy(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=256))
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        before = model.score(tiny_digits.train_images, tiny_digits.train_labels)
        model.retrain(tiny_digits.train_images, tiny_digits.train_labels, epochs=2)
        after = model.score(tiny_digits.train_images, tiny_digits.train_labels)
        assert after >= before - 0.05

    def test_packed_binarized_score_is_predict_accuracy(
        self, tiny_digits, monkeypatch
    ):
        config = UHDConfig(dim=256, binarize=True, backend="packed")
        model = UHDClassifier(784, 10, config)
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        x, y = tiny_digits.test_images, tiny_digits.test_labels
        expected = float(np.mean(model.predict(x) == y))

        def no_encode(*_args, **_kwargs):
            raise AssertionError("score encoded outside predict")

        if model.encoder.kernel == "c":  # the fused predict never encodes
            monkeypatch.setattr(model.encoder, "encode_batch", no_encode)
        assert model.score(x, y) == expected


class TestValidation:
    def test_unfitted(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=256))
        with pytest.raises(RuntimeError):
            model.predict(tiny_digits.test_images)
        with pytest.raises(RuntimeError):
            model.score(tiny_digits.test_images, tiny_digits.test_labels)
        with pytest.raises(RuntimeError):
            model.retrain(tiny_digits.test_images, tiny_digits.test_labels)
        with pytest.raises(RuntimeError):
            _ = model.classifier

    def test_wrong_image_size(self, tiny_digits):
        model = UHDClassifier(100, 10, UHDConfig(dim=256))
        with pytest.raises(ValueError):
            model.fit(tiny_digits.train_images, tiny_digits.train_labels)

    def test_binarized_policy_plumbed(self, tiny_digits):
        model = UHDClassifier(784, 10, UHDConfig(dim=256, binarize=True))
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        assert model.classifier.binarize is True
