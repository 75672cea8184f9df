"""Streaming (online) uHD training."""

import numpy as np
import pytest

from repro.core import StreamingUHD, UHDClassifier, UHDConfig


class TestPartialFit:
    def test_incremental_equals_batch(self, tiny_digits):
        config = UHDConfig(dim=256)
        online = StreamingUHD(784, 10, config)
        half = tiny_digits.train_images.shape[0] // 2
        online.partial_fit(tiny_digits.train_images[:half],
                           tiny_digits.train_labels[:half])
        online.partial_fit(tiny_digits.train_images[half:],
                           tiny_digits.train_labels[half:])

        batch = UHDClassifier(784, 10, config)
        batch.fit(tiny_digits.train_images, tiny_digits.train_labels)

        np.testing.assert_array_equal(
            online.classifier.accumulators, batch.classifier.accumulators
        )
        np.testing.assert_array_equal(
            online.predict(tiny_digits.test_images),
            batch.predict(tiny_digits.test_images),
        )

    def test_samples_seen(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=128))
        model.partial_fit(tiny_digits.train_images[:30],
                          tiny_digits.train_labels[:30])
        assert model.samples_seen == 30

    def test_predict_before_fit_raises(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=128))
        with pytest.raises(RuntimeError):
            model.predict(tiny_digits.test_images)
        with pytest.raises(RuntimeError):
            model.score(tiny_digits.test_images, tiny_digits.test_labels)


class TestInputNormalization:
    """fit / partial_fit / predict / score share one accepted-shapes policy.

    Regression: predict/score used to skip the single-image promotion
    partial_fit performed, so a shape accepted at train time blew up (or
    silently meant something else) at predict time.  The subclass below
    runs the same cases on ``UHDClassifier``.
    """

    model_cls = StreamingUHD

    def _fitted(self, tiny_digits, config=None):
        model = self.model_cls(784, 10, config or UHDConfig(dim=128))
        model.fit(tiny_digits.train_images[:40], tiny_digits.train_labels[:40])
        return model

    def test_flat_single_image_round_trips(self, tiny_digits):
        model = self._fitted(tiny_digits)
        flat = tiny_digits.test_images[0].reshape(-1)  # (784,)
        batch_of_one = model.predict(tiny_digits.test_images[:1])
        assert model.predict(flat).shape == (1,)
        np.testing.assert_array_equal(model.predict(flat), batch_of_one)
        assert model.score(flat, tiny_digits.test_labels[:1]) in (0.0, 1.0)

    def test_square_single_image_round_trips(self, tiny_digits):
        model = self._fitted(tiny_digits)
        square = tiny_digits.test_images[0]  # (28, 28)
        assert square.shape == (28, 28)
        np.testing.assert_array_equal(
            model.predict(square), model.predict(tiny_digits.test_images[:1])
        )

    def test_single_image_partial_fit_counts_one_sample(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=128))
        model.partial_fit(tiny_digits.train_images[0],  # (28, 28) image
                          tiny_digits.train_labels[0])
        assert model.samples_seen == 1
        model.partial_fit(tiny_digits.train_images[1].reshape(-1),  # (784,)
                          tiny_digits.train_labels[1])
        assert model.samples_seen == 2

    def test_fit_and_predict_agree_on_every_shape(self, tiny_digits):
        """The same physical samples, three shapes, identical labels."""
        model = self._fitted(tiny_digits)
        imgs = tiny_digits.test_images[:4]  # (4, 28, 28)
        want = model.predict(imgs)
        np.testing.assert_array_equal(
            model.predict(imgs.reshape(4, -1)), want
        )
        np.testing.assert_array_equal(
            np.concatenate([model.predict(img) for img in imgs]), want
        )

    def test_wrong_pixel_count_rejected_everywhere(self, tiny_digits):
        model = self._fitted(tiny_digits)
        bad = np.zeros((2, 9), dtype=np.uint8)
        with pytest.raises(ValueError, match="pixels"):
            model.fit(bad, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="pixels"):
            model.predict(bad)
        # a non-square 2-D array totalling num_pixels is a malformed
        # batch, not one image
        with pytest.raises(ValueError, match="pixels"):
            model.predict(np.zeros((2, 392), dtype=np.uint8))

    def test_label_count_mismatch_rejected(self, tiny_digits):
        model = self.model_cls(784, 10, UHDConfig(dim=128))
        with pytest.raises(ValueError, match="label"):
            model.fit(tiny_digits.train_images[:3], tiny_digits.train_labels[:2])

    def test_failed_fit_keeps_the_trained_model(self, tiny_digits):
        model = self.model_cls(784, 10, UHDConfig(dim=128)).fit(
            tiny_digits.train_images, tiny_digits.train_labels
        )
        before = model.predict(tiny_digits.test_images)
        accumulators = model.classifier.accumulators.copy()
        with pytest.raises(ValueError, match="label"):
            model.fit(tiny_digits.train_images[:3], tiny_digits.train_labels[:2])
        np.testing.assert_array_equal(model.predict(tiny_digits.test_images), before)
        np.testing.assert_array_equal(model.classifier.accumulators, accumulators)


class TestUHDClassifierInputNormalization(TestInputNormalization):
    """``UHDClassifier`` accepts exactly the shapes ``StreamingUHD`` does."""

    model_cls = UHDClassifier

    def test_single_image_partial_fit_counts_one_sample(self, tiny_digits):
        # no partial_fit here: a single image fits as a batch of one
        image, label = tiny_digits.train_images[0], tiny_digits.train_labels[0]
        for single in (image, image.reshape(-1)):
            model = UHDClassifier(784, 10, UHDConfig(dim=128)).fit(single, label)
            np.testing.assert_array_equal(
                model.classifier.accumulators[label],
                model.encoder.encode_batch(image[None])[0],
            )


class TestPrequential:
    def test_accuracy_improves_along_stream(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=512))
        accuracies = model.evaluate_prequential(
            tiny_digits.train_images, tiny_digits.train_labels, batch_size=25
        )
        assert len(accuracies) == tiny_digits.train_images.shape[0] // 25 - 1
        # Later batches should beat the early ones on average.
        assert np.mean(accuracies[-2:]) >= np.mean(accuracies[:2]) - 0.1

    def test_final_model_beats_chance(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=512))
        model.evaluate_prequential(tiny_digits.train_images,
                                   tiny_digits.train_labels, batch_size=40)
        assert model.score(tiny_digits.test_images,
                           tiny_digits.test_labels) > 0.3

    def test_batch_size_validation(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=128))
        with pytest.raises(ValueError):
            model.evaluate_prequential(tiny_digits.train_images,
                                       tiny_digits.train_labels, batch_size=0)

    def test_count_mismatch(self, tiny_digits):
        model = StreamingUHD(784, 10, UHDConfig(dim=128))
        with pytest.raises(ValueError):
            model.evaluate_prequential(tiny_digits.train_images,
                                       tiny_digits.train_labels[:5])
