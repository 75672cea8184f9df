"""Record encoder."""

import numpy as np
import pytest

from repro.hdc import (
    LevelItemMemory,
    RandomItemMemory,
    RecordEncoder,
    quantize_levels,
)


@pytest.fixture()
def small_encoder():
    rng = np.random.default_rng(0)
    positions = RandomItemMemory(6, 64, rng)
    levels = LevelItemMemory(4, 64, rng)
    return RecordEncoder(positions, levels)


class TestQuantizeLevels:
    def test_uint8(self):
        out = quantize_levels(np.array([0, 128, 255], dtype=np.uint8), 16)
        np.testing.assert_array_equal(out, [0, 8, 15])

    def test_float_clipped(self):
        out = quantize_levels(np.array([-1.0, 0.5, 3.0]), 4)
        np.testing.assert_array_equal(out, [0, 2, 3])

    def test_preserves_shape(self):
        assert quantize_levels(np.zeros((2, 3, 4), dtype=np.uint8), 8).shape == (2, 3, 4)


class TestRecordEncoder:
    def test_manual_accumulation(self, small_encoder):
        levels = np.array([0, 1, 2, 3, 0, 1])
        expected = np.zeros(64, dtype=np.int64)
        for p, lv in enumerate(levels):
            expected += (small_encoder.positions.vector(p).astype(np.int64)
                         * small_encoder.level_memory.vector(lv))
        np.testing.assert_array_equal(small_encoder.encode(levels), expected)

    def test_batch_matches_single(self, small_encoder):
        rng = np.random.default_rng(1)
        batch = rng.integers(0, 4, size=(9, 6))
        encoded = small_encoder.encode_batch(batch, chunk=4)
        for row, levels in zip(encoded, batch):
            np.testing.assert_array_equal(row, small_encoder.encode(levels))

    def test_binarized(self, small_encoder):
        levels = np.array([0, 1, 2, 3, 0, 1])
        out = small_encoder.encode_binarized(levels)
        assert set(np.unique(out)) <= {-1, 1}

    def test_wrong_pixel_count(self, small_encoder):
        with pytest.raises(ValueError):
            small_encoder.encode(np.array([0, 1]))
        with pytest.raises(ValueError):
            small_encoder.encode_batch(np.zeros((2, 3), dtype=int))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        positions = RandomItemMemory(4, 32, rng)
        levels = LevelItemMemory(4, 64, rng)
        with pytest.raises(ValueError):
            RecordEncoder(positions, levels)

    def test_accumulator_bounded_by_pixels(self, small_encoder):
        levels = np.zeros(6, dtype=int)
        encoded = small_encoder.encode(levels)
        assert np.abs(encoded).max() <= 6
