"""Cross-module integration tests: the claims that tie the repo together."""

import importlib

import numpy as np
import pytest

import repro
from repro import (
    BaselineConfig,
    BaselineHDC,
    UHDClassifier,
    UHDConfig,
    load_dataset,
)
from repro.core import SobolLevelEncoder, UnaryDomainEncoder
from repro.hardware import Simulator
from repro.hardware.circuits import (
    build_masking_binarizer,
    build_unary_comparator,
    unary_comparator_stimulus,
)
from repro.lds.quantize import quantize_intensity


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    @pytest.mark.parametrize("package", [
        "repro", "repro.api", "repro.core", "repro.hdc", "repro.unary",
        "repro.lds", "repro.fastpath", "repro.serve", "repro.hardware",
        "repro.embedded", "repro.datasets", "repro.eval",
    ])
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None


class TestUnaryArithmeticHardwareAgreement:
    """One (pixel, dimension) comparison traced through all three layers:
    numpy arithmetic, the functional unary model, and the gate netlist."""

    def test_three_way_agreement(self):
        config = UHDConfig(dim=32, levels=16)
        num_pixels = 9
        arithmetic = SobolLevelEncoder(num_pixels, config)
        unary = UnaryDomainEncoder(num_pixels, config)
        comparator = Simulator(build_unary_comparator(16))

        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=num_pixels, dtype=np.uint8)
        data_codes = quantize_intensity(image, 16)

        level_bits = unary.level_bits(image)
        encoded = arithmetic.encode(image)

        for pixel in (0, 4, 8):
            for dim in (0, 13, 31):
                sobol_code = int(unary.sobol_codes[pixel, dim])
                stim = unary_comparator_stimulus(
                    16, [(int(data_codes[pixel]), sobol_code)]
                )[0]
                hw_bit = comparator.step(stim)["ge"]
                assert hw_bit == int(level_bits[pixel, dim])
        # And the accumulators agree in full.
        np.testing.assert_array_equal(encoded, unary.encode(image))


class TestMaskingBinarizerMatchesSoftware:
    def test_netlist_vs_numpy_sign(self):
        h = 32
        rng = np.random.default_rng(1)
        bits = (rng.random(h) < 0.5).astype(int)
        sim = Simulator(build_masking_binarizer(h))
        hw_sign = sim.run([{"bit": int(b)} for b in bits])[-1]["sign"]
        accumulator = 2 * int(bits.sum()) - h
        from repro.core import masking_binarize

        sw_sign = int(masking_binarize(np.array([accumulator]), h)[0] > 0)
        assert hw_sign == sw_sign


class TestEndToEndShapeClaims:
    """The paper's qualitative claims on a small but real workload."""

    @pytest.fixture(scope="class")
    def data(self):
        return load_dataset("mnist", n_train=400, n_test=200, seed=2)

    def test_uhd_is_deterministic_baseline_is_not(self, data):
        uhd_scores = set()
        for _ in range(2):
            model = UHDClassifier(784, 10, UHDConfig(dim=256))
            model.fit(data.train_images, data.train_labels)
            uhd_scores.add(model.score(data.test_images, data.test_labels))
        assert len(uhd_scores) == 1

        base_preds = []
        for seed in range(2):
            model = BaselineHDC(784, 10, BaselineConfig(dim=256, seed=seed))
            model.fit(data.train_images, data.train_labels)
            base_preds.append(model.predict(data.test_images))
        assert not np.array_equal(base_preds[0], base_preds[1])

    def test_both_models_learn(self, data):
        uhd = UHDClassifier(784, 10, UHDConfig(dim=512))
        uhd.fit(data.train_images, data.train_labels)
        base = BaselineHDC(784, 10, BaselineConfig(dim=512, seed=0))
        base.fit(data.train_images, data.train_labels)
        assert uhd.score(data.test_images, data.test_labels) > 0.35
        assert base.score(data.test_images, data.test_labels) > 0.35

    def test_quantization_does_not_collapse_accuracy(self, data):
        # Paper Section III: xi = 16 quantization "does not affect the
        # accuracy of the system" — allow a modest band.
        quantized = UHDClassifier(784, 10, UHDConfig(dim=512, quantized=True))
        quantized.fit(data.train_images, data.train_labels)
        full = UHDClassifier(784, 10, UHDConfig(dim=512, quantized=False))
        full.fit(data.train_images, data.train_labels)
        q_acc = quantized.score(data.test_images, data.test_labels)
        f_acc = full.score(data.test_images, data.test_labels)
        assert abs(q_acc - f_acc) < 0.10

    def test_sobol_beats_halton_or_close(self, data):
        sobol = UHDClassifier(784, 10, UHDConfig(dim=256, lds="sobol"))
        sobol.fit(data.train_images, data.train_labels)
        halton = UHDClassifier(784, 10, UHDConfig(dim=256, lds="halton"))
        halton.fit(data.train_images, data.train_labels)
        s_acc = sobol.score(data.test_images, data.test_labels)
        h_acc = halton.score(data.test_images, data.test_labels)
        assert s_acc > h_acc - 0.15  # both LD families must be usable
