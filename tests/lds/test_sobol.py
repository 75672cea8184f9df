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

    def test_gray_order_same_point_set(self):
        natural = SobolEngine(2, order="natural").random(16)
        gray = SobolEngine(2, order="gray").random(16)
        for dim in range(2):
            assert set(natural[:, dim]) == set(gray[:, dim])


class TestZeroOneSequenceProperty:
    @given(dim=st.integers(1, 64), k=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_dimension_stratifies(self, dim, k):
        engine = SobolEngine(max(dim, 1), seed=99)
        points = engine.random(1 << k)
        assert is_zero_one_sequence_prefix(points[:, dim - 1], k)

    def test_recurrence_init_also_stratifies(self):
        seqs = sobol_sequences(16, 256, seed=5, init="recurrence")
        for row in seqs:
            assert is_zero_one_sequence_prefix(row, 8)

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


class TestStatefulApi:
    def test_chunked_equals_bulk(self):
        bulk = SobolEngine(5, seed=7).random(64)
        engine = SobolEngine(5, seed=7)
        chunked = np.vstack([engine.random(16) for _ in range(4)])
        np.testing.assert_array_equal(bulk, chunked)

    def test_fast_forward(self):
        bulk = SobolEngine(3, seed=7).random(64)
        engine = SobolEngine(3, seed=7).fast_forward(32)
        np.testing.assert_array_equal(engine.random(32), bulk[32:])

    def test_reset(self):
        engine = SobolEngine(3, seed=7)
        first = engine.random(16)
        engine.reset()
        np.testing.assert_array_equal(engine.random(16), first)

    def test_index_property(self):
        engine = SobolEngine(2)
        assert engine.index == 0
        engine.random(5)
        assert engine.index == 5

    def test_zero_points(self):
        assert SobolEngine(2).random(0).shape == (0, 2)

    def test_integers_in_range(self):
        values = SobolEngine(4, max_bits=16).integers(256)
        assert values.min() >= 0
        assert values.max() < (1 << 16)


class TestValidation:
    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            SobolEngine(0)

    def test_bad_max_bits(self):
        with pytest.raises(ValueError, match="max_bits"):
            SobolEngine(1, max_bits=63)

    def test_bad_init(self):
        with pytest.raises(ValueError, match="init"):
            SobolEngine(1, init="tables")

    def test_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            SobolEngine(1, order="shuffled")

    def test_negative_n(self):
        with pytest.raises(ValueError):
            SobolEngine(1).random(-1)

    def test_negative_fast_forward(self):
        with pytest.raises(ValueError):
            SobolEngine(1).fast_forward(-1)


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

    def test_mutation_error_points_at_copy_kwarg(self):
        seqs = sobol_sequences(8, 32, seed=3)
        with pytest.raises(ValueError, match="copy=True"):
            seqs[0, 0] = 0.5
        # in-place ufuncs hit NumPy's own read-only guard instead
        with pytest.raises(ValueError):
            seqs += 1.0

    def test_copy_returns_private_writable_array(self):
        shared = sobol_sequences(8, 32, seed=3)
        before = shared.copy()
        private = sobol_sequences(8, 32, seed=3, copy=True)
        assert private.flags.writeable
        assert private is not shared
        np.testing.assert_array_equal(private, shared)
        private[0, 0] = 0.123  # must not corrupt the shared table
        np.testing.assert_array_equal(sobol_sequences(8, 32, seed=3), before)

    def test_copy_with_dtype(self):
        private = sobol_sequences(8, 32, seed=3, dtype=np.float32, copy=True)
        assert private.dtype == np.float32
        assert private.flags.writeable
        private *= 2.0  # writable through ufuncs too

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
