"""StreamingUHD is UHDClassifier's online mode: one image-model type."""

import numpy as np
import pytest

from repro.api import load_model
from repro.api.registry import BACKENDS
from repro.core import StreamingUHD, UHDClassifier, UHDConfig


@pytest.fixture()
def stream_file(tiny_digits, tmp_path):
    stream = StreamingUHD(
        tiny_digits.num_pixels,
        tiny_digits.num_classes,
        UHDConfig(dim=128, binarize=True, backend="packed"),
    )
    stream.partial_fit(tiny_digits.train_images[:60], tiny_digits.train_labels[:60])
    stream.partial_fit(tiny_digits.train_images[60:], tiny_digits.train_labels[60:])
    path = tmp_path / "stream.npz"
    stream.save(path)
    return stream, path


def test_a_stream_is_a_uhd_classifier():
    assert issubclass(StreamingUHD, UHDClassifier)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_file_rehomes_onto_every_backend(tiny_digits, stream_file, backend):
    stream, path = stream_file
    rehomed = load_model(path, backend=backend)
    assert type(rehomed) is StreamingUHD
    assert rehomed.config.backend == backend
    assert rehomed.samples_seen == stream.samples_seen
    np.testing.assert_array_equal(
        rehomed.classifier.accumulators, stream.classifier.accumulators
    )
    np.testing.assert_array_equal(
        rehomed.predict(tiny_digits.test_images),
        stream.predict(tiny_digits.test_images),
    )
    # the clone keeps accumulating on its own, leaving the original as is
    rehomed.partial_fit(tiny_digits.train_images[:5], tiny_digits.train_labels[:5])
    assert rehomed.samples_seen == stream.samples_seen + 5


def test_payload_keys_are_the_file_format(tiny_digits, stream_file, tmp_path):
    """Files written before StreamingUHD became a subclass load unchanged:
    the keys each class writes are part of the format."""
    _, stream_path = stream_file
    model = UHDClassifier(
        tiny_digits.num_pixels, tiny_digits.num_classes, UHDConfig(dim=64)
    ).fit(tiny_digits.train_images, tiny_digits.train_labels)
    model_path = tmp_path / "model.npz"
    model.save(model_path)
    header = {"__format__", "__version__", "__model__"}
    base = {"config_json", "num_pixels", "num_classes", "accumulators"}
    with np.load(model_path) as data:
        assert set(data.files) == header | base
        assert str(data["__model__"]) == "UHDClassifier"
    with np.load(stream_path) as data:
        assert set(data.files) == header | base | {"samples_seen"}
        assert str(data["__model__"]) == "StreamingUHD"
