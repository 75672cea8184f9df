"""Sobol engine: paper-listed sequence, (0,1)-sequence property, API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lds import SobolEngine, sobol_sequences
from repro.lds.discrepancy import is_zero_one_sequence_prefix


class TestFirstDimension:
    def test_matches_paper_listing(self):
        # Fig. 2 lists dimension 0 as 0, 1/2, 1/4, 3/4, 1/8, 5/8, 3/8, ...
        points = SobolEngine(1).random(8)[:, 0]
        expected = [0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        np.testing.assert_allclose(points, expected)


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "shifted"])
def mnist_codebook_integers(request):
    """The first 4096 points of the 784-pixel codebook stream."""
    return SobolEngine(784, digital_shift=request.param).integers(4096)


class TestZeroOneSequenceProperty:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_dyadic_block_stratifies(self, mnist_codebook_integers, k):
        # a (0, 1)-sequence: each aligned block of 2^k points, not only the
        # first, puts exactly one point in every bin of width 2^-k
        points = mnist_codebook_integers
        bins = (points >> np.uint64(32 - k)).reshape(-1, 1 << k, points.shape[1])
        expected = np.arange(1 << k, dtype=np.uint64)[:, None]
        assert (np.sort(bins, axis=1) == expected).all()

    @given(dim=st.integers(1, 64), k=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_dimension_stratifies(self, dim, k):
        engine = SobolEngine(max(dim, 1), seed=99)
        points = engine.random(1 << k)
        assert is_zero_one_sequence_prefix(points[:, dim - 1], k)

    def test_digital_shift_preserves_stratification(self):
        seqs = sobol_sequences(8, 256, seed=5, digital_shift=True)
        for row in seqs:
            assert is_zero_one_sequence_prefix(row, 8)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SobolEngine(10, seed=3).random(100)
        b = SobolEngine(10, seed=3).random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SobolEngine(10, seed=3).random(100)
        b = SobolEngine(10, seed=4).random(100)
        assert not np.array_equal(a, b)

    def test_seed_does_not_change_dimension_zero(self):
        a = SobolEngine(4, seed=1).random(64)[:, 0]
        b = SobolEngine(4, seed=2).random(64)[:, 0]
        np.testing.assert_array_equal(a, b)


class TestFirstPoints:
    def test_every_call_starts_at_the_first_point(self):
        engine = SobolEngine(5, seed=7)
        first = engine.integers(64)
        np.testing.assert_array_equal(engine.integers(64), first)
        np.testing.assert_array_equal(engine.integers(16), first[:16])

    def test_zero_points(self):
        assert SobolEngine(2).random(0).shape == (0, 2)

    def test_integers_in_range(self):
        values = SobolEngine(4).integers(256)
        assert values.min() >= 0
        assert values.max() < (1 << 32)


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SobolEngine(0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            SobolEngine(1).random(-1)

    def test_n_beyond_the_period(self):
        # rejected before any allocation: 2^32 points is the whole period
        with pytest.raises(ValueError, match="2\\*\\*32"):
            SobolEngine(1).integers(2**32 + 1)


class TestSobolSequences:
    def test_shape_and_dtype(self):
        seqs = sobol_sequences(12, 64, dtype=np.float32)
        assert seqs.shape == (12, 64)
        assert seqs.dtype == np.float32
        assert seqs.flags["C_CONTIGUOUS"]

    def test_rows_are_engine_columns(self):
        seqs = sobol_sequences(6, 32, seed=9)
        engine = SobolEngine(6, seed=9)
        np.testing.assert_array_equal(seqs, engine.random(32).T)

    def test_range(self):
        seqs = sobol_sequences(20, 128)
        assert seqs.min() >= 0.0
        assert seqs.max() < 1.0


class TestSequenceMemo:
    """sobol_sequences memoizes generation per (dims, length, seed, shift)."""

    def test_same_key_returns_same_object(self):
        from repro.lds.sobol import clear_sobol_cache

        clear_sobol_cache()
        a = sobol_sequences(8, 32, seed=3)
        b = sobol_sequences(8, 32, seed=3)
        assert a is b

    def test_dtype_variants_share_one_generation(self):
        from repro.lds.sobol import clear_sobol_cache

        clear_sobol_cache()
        master = sobol_sequences(8, 32, seed=3)
        cast = sobol_sequences(8, 32, seed=3, dtype=np.float32)
        assert cast.dtype == np.float32
        np.testing.assert_array_equal(cast, master.astype(np.float32))
        assert sobol_sequences(8, 32, seed=3, dtype=np.float32) is cast

    def test_distinct_keys_distinct_tables(self):
        assert not np.array_equal(
            sobol_sequences(8, 32, seed=3), sobol_sequences(8, 32, seed=4)
        )
        assert not np.array_equal(
            sobol_sequences(8, 32, seed=3),
            sobol_sequences(8, 32, seed=3, digital_shift=True),
        )

    def test_results_are_read_only(self):
        seqs = sobol_sequences(8, 32, seed=3)
        with pytest.raises(ValueError):
            seqs[0, 0] = 0.5
        with pytest.raises(ValueError):
            seqs += 1.0

    def test_cache_is_bounded(self):
        from repro.lds import sobol as sobol_module

        sobol_module.clear_sobol_cache()
        for seed in range(2 * sobol_module._SEQUENCE_CACHE_MAX):
            sobol_sequences(4, 8, seed=seed)
        assert len(sobol_module._SEQUENCE_CACHE) <= sobol_module._SEQUENCE_CACHE_MAX

    def test_encoders_share_generation(self):
        """Arithmetic + unary encoders for one config generate once."""
        from repro.core import SobolLevelEncoder, UnaryDomainEncoder, UHDConfig
        from repro.lds import sobol as sobol_module

        sobol_module.clear_sobol_cache()
        config = UHDConfig(dim=16, seed=77)
        calls = {"n": 0}
        original = sobol_module.SobolEngine

        class CountingEngine(original):
            def __init__(self, *args, **kwargs):
                calls["n"] += 1
                super().__init__(*args, **kwargs)

        sobol_module.SobolEngine = CountingEngine
        try:
            SobolLevelEncoder(6, config)
            UnaryDomainEncoder(6, config)
        finally:
            sobol_module.SobolEngine = original
        assert calls["n"] == 1

    def test_concurrent_callers_build_once(self, monkeypatch):
        """Threads racing one key share one generation and one table."""
        import sys
        import threading
        import time

        from repro.lds import sobol as sobol_module

        sobol_module.clear_sobol_cache()
        calls = {"n": 0}
        original = sobol_module.SobolEngine

        class SlowCountingEngine(original):
            def __init__(self, *args, **kwargs):
                calls["n"] += 1
                time.sleep(0.05)  # hold the build open while the others look
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sobol_module, "SobolEngine", SlowCountingEngine)
        threads_n = 4
        barrier = threading.Barrier(threads_n)
        results = [None] * threads_n

        def call(slot):
            barrier.wait()
            results[slot] = sobol_sequences(16, 64, seed=4242)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls["n"] == 1
        assert all(result is results[0] for result in results)
