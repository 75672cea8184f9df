"""Backend table: lookup, config validation, ported shims."""

import pytest

from repro.api import Backend, Estimator, get_backend, list_backends
from repro.core import StreamingUHD, UHDClassifier, UHDConfig
from repro.core.encoder import SobolLevelEncoder
from repro.fastpath.encoder import PackedLevelEncoder
from repro.hdc import BaselineConfig, BaselineHDC, CentroidClassifier


class TestBuiltinRegistry:
    def test_builtins_registered(self):
        assert list_backends() == ("auto", "packed", "reference")
        for name in list_backends():
            assert get_backend(name).name == name

    def test_instances_are_cached(self):
        assert get_backend("packed") is get_backend("packed")

    def test_instances_satisfy_protocol(self):
        for name in list_backends():
            assert isinstance(get_backend(name), Backend)

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="choose one of"):
            get_backend("gpu")

    def test_pixel_limit_falls_back_or_raises(self):
        config = UHDConfig(dim=64)
        too_many = PackedLevelEncoder.MAX_PIXELS + 1
        assert get_backend("auto").encoder_kind(config, too_many) == "reference"
        with pytest.raises(ValueError, match="pixels"):
            get_backend("packed").encoder_kind(config, too_many)

    def test_encoder_construction_per_backend(self):
        config = UHDConfig(dim=64)
        assert isinstance(
            get_backend("reference").make_encoder(16, config), SobolLevelEncoder
        )
        assert isinstance(
            get_backend("packed").make_encoder(16, config), PackedLevelEncoder
        )


class TestConfigValidation:
    def test_retired_threaded_backend_rejected(self):
        # saved files naming it still load (as packed): see test_persistence
        with pytest.raises(ValueError, match="backend must be one of"):
            UHDConfig(backend="threaded")

    def test_unregistered_backend_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            UHDConfig(backend="gpu")


class TestEstimatorProtocol:
    def test_all_models_satisfy_estimator(self, tiny_digits):
        config = UHDConfig(dim=64)
        models = [
            UHDClassifier(tiny_digits.num_pixels, tiny_digits.num_classes, config),
            StreamingUHD(tiny_digits.num_pixels, tiny_digits.num_classes, config),
            BaselineHDC(
                tiny_digits.num_pixels,
                tiny_digits.num_classes,
                BaselineConfig(dim=64),
            ),
            CentroidClassifier(tiny_digits.num_classes, 64),
        ]
        for model in models:
            assert isinstance(model, Estimator), type(model).__name__


class TestDeprecatedSurface:
    """What the removed compatibility helpers answered, via the registry."""

    def test_get_backend_builds_the_config_encoder(self):
        config = UHDConfig(dim=64)
        encoder = get_backend(config.backend).make_encoder(16, config)
        assert isinstance(encoder, PackedLevelEncoder)

    def test_classifier_string_backend_resolves_without_warning(self, recwarn):
        clf = CentroidClassifier(3, 64, backend="packed")
        assert clf.backend == "packed"
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_classifier_default_backend_does_not_warn(self, recwarn):
        CentroidClassifier(3, 64)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_registry_answers_the_backend_policy(self):
        packed = get_backend("packed")
        config = UHDConfig(dim=64, backend="packed")
        assert packed.encoder_kind(config, 16) == "packed"
        assert packed.use_packed_inference(binarize=True)
        assert not get_backend("reference").use_packed_inference(binarize=True)
        with pytest.raises(ValueError):
            get_backend("gpu")
