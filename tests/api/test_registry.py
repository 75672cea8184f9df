"""Backend registry: lookup, registration, config validation, ported shims."""

import numpy as np
import pytest

from repro.api import (
    Backend,
    Estimator,
    get_backend,
    is_registered_backend,
    list_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.core import StreamingUHD, UHDClassifier, UHDConfig
from repro.core.encoder import SobolLevelEncoder
from repro.fastpath.encoder import PackedLevelEncoder
from repro.hdc import BaselineConfig, BaselineHDC, CentroidClassifier


class TestBuiltinRegistry:
    def test_builtins_registered(self):
        assert list_backends() == ("auto", "packed", "reference")
        for name in list_backends():
            assert is_registered_backend(name)

    def test_instances_are_cached(self):
        assert get_backend("packed") is get_backend("packed")

    def test_instances_satisfy_protocol(self):
        for name in list_backends():
            assert isinstance(get_backend(name), Backend)

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="registered backends"):
            get_backend("gpu")

    def test_resolve_passes_instances_through(self):
        backend = get_backend("reference")
        assert resolve_backend(backend) is backend
        assert resolve_backend("reference") is backend
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_encoder_construction_per_backend(self):
        config = UHDConfig(dim=64)
        assert isinstance(
            get_backend("reference").make_encoder(16, config), SobolLevelEncoder
        )
        assert isinstance(
            get_backend("packed").make_encoder(16, config), PackedLevelEncoder
        )


class _ReferenceClone:
    """Minimal third-party backend: delegates everything to reference paths."""

    name = "test-clone"

    def make_encoder(self, num_pixels, config):
        return SobolLevelEncoder(num_pixels, config)

    def encoder_kind(self, config, num_pixels):
        return "reference"

    def use_packed_inference(self, binarize):
        return False

    def packed_predict(self, queries, class_words, dim):  # pragma: no cover
        raise NotImplementedError

    def packed_cosine(self, query_words, class_words, dim):  # pragma: no cover
        raise NotImplementedError


class TestThirdPartyRegistration:
    def test_registered_backend_reaches_config_and_model(self, tiny_digits):
        register_backend("test-clone", _ReferenceClone)
        try:
            config = UHDConfig(dim=128, backend="test-clone")
            model = UHDClassifier(
                tiny_digits.num_pixels, tiny_digits.num_classes, config
            )
            model.fit(tiny_digits.train_images, tiny_digits.train_labels)
            twin = UHDClassifier(
                tiny_digits.num_pixels,
                tiny_digits.num_classes,
                UHDConfig(dim=128, backend="reference"),
            ).fit(tiny_digits.train_images, tiny_digits.train_labels)
            np.testing.assert_array_equal(
                model.predict(tiny_digits.test_images),
                twin.predict(tiny_digits.test_images),
            )
        finally:
            unregister_backend("test-clone")
        with pytest.raises(ValueError):
            UHDConfig(backend="test-clone")

    def test_duplicate_registration_needs_replace(self):
        register_backend("test-dup", _ReferenceClone)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("test-dup", _ReferenceClone)
            register_backend("test-dup", _ReferenceClone, replace=True)
        finally:
            unregister_backend("test-dup")

    def test_factory_result_is_type_checked(self):
        register_backend("test-bad", lambda: object())
        try:
            with pytest.raises(TypeError, match="Backend protocol"):
                get_backend("test-bad")
        finally:
            unregister_backend("test-bad")


class TestConfigValidation:
    def test_retired_threaded_backend_rejected(self):
        # saved files naming it still load (as packed): see test_persistence
        with pytest.raises(ValueError, match="register_backend"):
            UHDConfig(backend="threaded")

    def test_unregistered_backend_rejected(self):
        with pytest.raises(ValueError, match="register_backend"):
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
