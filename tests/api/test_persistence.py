"""Model persistence: bit-exact round-trips, corruption and version errors."""

import json
import zipfile

import numpy as np
import pytest

from repro.api import ModelFormatError, load_model, save_model
from repro.api.persistence import (
    FORMAT_NAME,
    FORMAT_VERSION,
    config_from_json,
    config_to_json,
)
from repro.core import StreamingUHD, UHDClassifier, UHDConfig
from repro.core.encoder import SobolLevelEncoder
from repro.fastpath.encoder import PackedLevelEncoder
from repro.hdc import BaselineConfig, BaselineHDC, CentroidClassifier

BACKENDS = ("reference", "packed", "auto")


@pytest.fixture()
def rng():
    """Function-scoped stream: leaves the session ``rng`` fixture untouched
    (existing tests assert statistical properties at fixed positions of the
    shared stream)."""
    return np.random.default_rng(31415)


@pytest.mark.parametrize("backend", BACKENDS)
class TestUHDClassifierRoundTrip:
    def test_bit_exact_predictions(self, tiny_digits, tmp_path, backend):
        config = UHDConfig(dim=128, backend=backend)
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, config
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = UHDClassifier.load(path)
        assert loaded.config == config
        np.testing.assert_array_equal(
            loaded.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )
        np.testing.assert_array_equal(
            loaded.classifier.accumulators, model.classifier.accumulators
        )

    def test_binarized_round_trip(self, tiny_digits, tmp_path, backend):
        config = UHDConfig(dim=128, backend=backend, binarize=True)
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, config
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = load_model(path)  # generic entry point, class from header
        assert isinstance(loaded, UHDClassifier)
        np.testing.assert_array_equal(
            loaded.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )


class TestLoadNeverReencodes:
    def test_load_does_not_call_encode_batch(self, tiny_digits, tmp_path,
                                             monkeypatch):
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, UHDConfig(dim=128)
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        path = tmp_path / "model.npz"
        model.save(path)

        def boom(self, images, chunk=32):  # pragma: no cover - must not run
            raise AssertionError("load() re-encoded data")

        monkeypatch.setattr(SobolLevelEncoder, "encode_batch", boom)
        monkeypatch.setattr(PackedLevelEncoder, "encode_batch", boom)
        loaded = UHDClassifier.load(path)  # encoder built, nothing encoded
        np.testing.assert_array_equal(
            loaded.classifier.accumulators, model.classifier.accumulators
        )


class TestStreamingRoundTrip:
    def test_resumable_stream(self, tiny_digits, tmp_path):
        config = UHDConfig(dim=128)
        stream = StreamingUHD(
            tiny_digits.num_pixels, tiny_digits.num_classes, config
        )
        stream.partial_fit(tiny_digits.train_images[:100],
                           tiny_digits.train_labels[:100])
        path = tmp_path / "stream.npz"
        stream.save(path)
        resumed = StreamingUHD.load(path)
        assert resumed.samples_seen == stream.samples_seen
        np.testing.assert_array_equal(
            resumed.predict(tiny_digits.test_images),
            stream.predict(tiny_digits.test_images),
        )
        # accumulation continues seamlessly on both sides
        stream.partial_fit(tiny_digits.train_images[100:],
                           tiny_digits.train_labels[100:])
        resumed.partial_fit(tiny_digits.train_images[100:],
                            tiny_digits.train_labels[100:])
        np.testing.assert_array_equal(
            resumed.predict(tiny_digits.test_images),
            stream.predict(tiny_digits.test_images),
        )


class TestBaselineRoundTrip:
    def test_bit_exact_after_reseed(self, tiny_digits, tmp_path):
        model = BaselineHDC(
            tiny_digits.num_pixels, tiny_digits.num_classes,
            BaselineConfig(dim=128, seed=0),
        )
        model.reseed(3)  # persisted codebooks must be *this* draw, not seed 0
        model.fit(tiny_digits.train_images, tiny_digits.train_labels)
        path = tmp_path / "baseline.npz"
        model.save(path)
        loaded = BaselineHDC.load(path)
        assert loaded.active_seed == 3
        np.testing.assert_array_equal(
            loaded.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )


class TestCentroidRoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        encoded = rng.integers(-50, 51, size=(64, 128)).astype(np.int64)
        labels = rng.integers(0, 4, size=64)
        clf = CentroidClassifier(4, 128, binarize=True, backend="packed").fit(
            encoded, labels
        )
        path = tmp_path / "clf.npz"
        clf.save(path)
        loaded = CentroidClassifier.load(path)
        assert loaded.backend == "packed"
        assert loaded.binarize and loaded.center
        np.testing.assert_array_equal(loaded.predict(encoded), clf.predict(encoded))

    def test_load_onto_its_own_backend(self, rng, tmp_path):
        """Naming the backend a classifier was saved with is a no-op
        re-home; naming another fails (a bare classifier has no
        ``with_backend``)."""
        encoded = rng.integers(-50, 51, size=(64, 128)).astype(np.int64)
        clf = CentroidClassifier(4, 128, binarize=True, backend="packed").fit(
            encoded, rng.integers(0, 4, size=64)
        )
        path = tmp_path / "clf.npz"
        clf.save(path)
        loaded = load_model(path, backend="packed")
        assert isinstance(loaded, CentroidClassifier)
        assert loaded.backend == "packed"
        np.testing.assert_array_equal(loaded.predict(encoded), clf.predict(encoded))
        with pytest.raises(ValueError, match="cannot be re-homed"):
            load_model(path, backend="reference")


class TestErrors:
    def _fitted(self, tiny_digits):
        return UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, UHDConfig(dim=64)
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)

    def test_save_unfitted_raises(self, tiny_digits, tmp_path):
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, UHDConfig(dim=64)
        )
        with pytest.raises(RuntimeError, match="unfitted"):
            model.save(tmp_path / "nope.npz")

    def test_save_unknown_model_raises(self, tmp_path):
        with pytest.raises(TypeError, match="persist"):
            save_model(object(), tmp_path / "nope.npz")

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")

    def test_garbage_bytes_raise_model_format_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ModelFormatError, match="not a readable model file"):
            load_model(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "magic.npz"
        with open(path, "wb") as handle:
            np.savez(
                handle,
                **{
                    "__format__": np.array("other-format"),
                    "__version__": np.array(1),
                    "__model__": np.array("UHDClassifier"),
                },
            )
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.npz"
        with open(path, "wb") as handle:
            np.savez(handle, accumulators=np.zeros((2, 4)))
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_future_version_rejected(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "future.npz"
        model.save(path)
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["__version__"] = np.array(FORMAT_VERSION + 1, dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_truncated_payload_rejected(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "truncated.npz"
        model.save(path)
        arrays = dict(np.load(path, allow_pickle=False))
        del arrays["accumulators"]
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ModelFormatError, match="accumulators"):
            load_model(path)

    def test_wrong_model_class_rejected(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "model.npz"
        model.save(path)
        with pytest.raises(ModelFormatError, match="not a StreamingUHD"):
            StreamingUHD.load(path)

    def test_accumulator_shape_mismatch_rejected(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "shape.npz"
        model.save(path)
        arrays = dict(np.load(path, allow_pickle=False))
        arrays["accumulators"] = np.zeros((2, 2), dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(path)

    def test_corrupted_zip_member_rejected(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "member.npz"
        model.save(path)
        # valid zip, but a payload member holding junk instead of a .npy
        import warnings

        with zipfile.ZipFile(path, "a") as archive:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # duplicate name
                archive.writestr("accumulators.npy", b"not-a-npy")
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestBackendPersistenceEdges:
    @staticmethod
    def _file_naming_backend(tiny_digits, tmp_path, kind, name):
        """Save a fitted ``kind`` model, then rewrite its recorded backend.

        Returns the saved model, the file and the queries it predicts on.
        """
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes,
            UHDConfig(dim=128, backend="packed", binarize=True),
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        if kind == "UHDClassifier":
            saved, queries = model, tiny_digits.test_images
        else:
            saved = model.classifier
            queries = model.encoder.encode_batch(tiny_digits.test_images)
        path = tmp_path / f"{name}.npz"
        saved.save(path)
        arrays = dict(np.load(path, allow_pickle=False))
        if kind == "UHDClassifier":
            config = json.loads(str(arrays["config_json"]))
            config["backend"] = name
            arrays["config_json"] = np.array(json.dumps(config))
        else:
            arrays["backend"] = np.array(name)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        return saved, path, queries

    @pytest.mark.parametrize("kind", ["UHDClassifier", "CentroidClassifier"])
    def test_load_with_unknown_backend_name(self, tiny_digits, tmp_path, kind):
        _, path, _ = self._file_naming_backend(tiny_digits, tmp_path, kind, "gpu")
        with pytest.raises(ModelFormatError, match="'gpu'"):
            load_model(path)

    def test_with_backend_clone_is_bit_exact(self, tiny_digits):
        model = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes,
            UHDConfig(dim=128, backend="reference"),
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)
        clone = model.with_backend("packed")
        assert clone.config.backend == "packed"
        np.testing.assert_array_equal(
            clone.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )
        # the original is untouched and unfitted clones also work
        assert model.config.backend == "reference"
        cold = UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, UHDConfig(dim=128)
        ).with_backend("packed")
        with pytest.raises(RuntimeError):
            cold.predict(tiny_digits.test_images)

    @pytest.mark.parametrize("kind", ["UHDClassifier", "CentroidClassifier"])
    def test_threaded_file_loads_as_packed(self, tiny_digits, tmp_path, kind):
        """Files saved under the retired ``threaded`` backend still load."""
        saved, path, queries = self._file_naming_backend(
            tiny_digits, tmp_path, kind, "threaded"
        )
        loaded = load_model(path)
        backend = loaded.config.backend if kind == "UHDClassifier" else loaded.backend
        assert backend == "packed"
        np.testing.assert_array_equal(loaded.predict(queries), saved.predict(queries))


class TestConfigJson:
    def test_round_trip(self):
        config = UHDConfig(dim=2048, levels=32, backend="packed", seed=7)
        assert config_from_json(config_to_json(config), UHDConfig) == config

    def test_unknown_field_rejected(self):
        payload = json.dumps({"dim": 64, "quantum": True})
        with pytest.raises(ModelFormatError, match="quantum"):
            config_from_json(payload, UHDConfig)

    def test_invalid_json_rejected(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            config_from_json("{not json", UHDConfig)

    def test_missing_fields_take_defaults(self):
        config = config_from_json(json.dumps({"dim": 4096}), UHDConfig)
        assert config.dim == 4096
        assert config.levels == 16


class TestTableSidecar:
    """Gather tables are never stored: a model file is config and
    accumulators only, and ``load_model`` reads nothing else — not even a
    ``<model>.npz.tables`` sidecar that older builds wrote next to it."""

    def _fitted(self, tiny_digits, backend="packed"):
        config = UHDConfig(dim=128, backend=backend, binarize=True)
        return UHDClassifier(
            tiny_digits.num_pixels, tiny_digits.num_classes, config
        ).fit(tiny_digits.train_images, tiny_digits.train_labels)

    def test_missing_sidecar_is_fine(self, tiny_digits, tmp_path):
        model = self._fitted(tiny_digits)
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]
        loaded = load_model(path)
        assert loaded.encoder.table_nbytes == 0  # lazy as always
        np.testing.assert_array_equal(
            loaded.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"not a table file", b"UHDTBL\x00\x02" + bytes(range(256)) * 64],
        ids=["empty", "text", "table-header"],
    )
    def test_garbage_sidecar_is_ignored(self, tiny_digits, tmp_path, garbage):
        model = self._fitted(tiny_digits)
        path = tmp_path / "model.npz"
        save_model(model, path)
        (tmp_path / "model.npz.tables").write_bytes(garbage)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            loaded.predict(tiny_digits.test_images),
            model.predict(tiny_digits.test_images),
        )
        assert loaded.encoder.table_builds == 1  # built, never read
