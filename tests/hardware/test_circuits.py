"""The paper's datapath circuits: functional correctness at gate level."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import masking_binarize
from repro.hardware import Simulator
from repro.hardware.circuits import (
    UstFetchModel,
    bit_stream_stimulus,
    build_binary_comparator,
    build_comparator_binarizer,
    build_counter_comparator_generator,
    build_lfsr_hv_generator,
    build_masking_binarizer,
    build_unary_comparator,
    binary_comparator_stimulus,
    counter_generator_stream_energy_fj,
    lfsr_generator_stimulus,
    unary_comparator_stimulus,
)
from repro.hdc.lfsr import LFSR
from repro.hdc.ops import binarize
from repro.unary import compare_values_via_unary


class TestUnaryComparatorCircuit:
    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_matches_functional_model(self, n):
        sim = Simulator(build_unary_comparator(n))
        for a in range(n + 1):
            for b in range(n + 1):
                vec = unary_comparator_stimulus(n, [(a, b)])[0]
                assert sim.step(vec)["ge"] == int(compare_values_via_unary(a, b, n))

    def test_stimulus_validation(self):
        with pytest.raises(ValueError):
            unary_comparator_stimulus(4, [(5, 0)])

    def test_bad_width(self):
        with pytest.raises(ValueError):
            build_unary_comparator(0)


class TestBinaryComparatorCircuit:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_exhaustive(self, m):
        sim = Simulator(build_binary_comparator(m))
        for a in range(1 << m):
            for b in range(1 << m):
                vec = binary_comparator_stimulus(m, [(a, b)])[0]
                assert sim.step(vec)["ge"] == (1 if a >= b else 0)

    def test_stimulus_validation(self):
        with pytest.raises(ValueError):
            binary_comparator_stimulus(3, [(8, 0)])

    def test_bad_width(self):
        with pytest.raises(ValueError):
            build_binary_comparator(0)


class TestCounterComparatorGenerator:
    @pytest.mark.parametrize("value", [0, 5, 9, 15])
    def test_emits_unary_stream(self, value):
        m = 4
        sim = Simulator(build_counter_comparator_generator(m))
        vector = {f"v{i}": (value >> i) & 1 for i in range(m)}
        # Output convention: bit = value > counter, read pre-step.
        bits = []
        for _ in range(1 << m):
            bits.append(sim.evaluate(vector)["bit"])
            sim.step(vector)
        assert sum(bits) == value
        assert bits == sorted(bits, reverse=True)  # leading ones

    def test_stream_energy_positive_and_value_dependent(self):
        low = counter_generator_stream_energy_fj(4, 0)
        high = counter_generator_stream_energy_fj(4, 8)
        assert low > 0
        assert high > 0

    def test_value_validation(self):
        with pytest.raises(ValueError):
            counter_generator_stream_energy_fj(4, 16)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            build_counter_comparator_generator(0)


class TestUstFetchModel:
    def test_memory_bits(self):
        assert UstFetchModel(16).memory_bits == 256

    def test_fetch_energy_positive(self):
        model = UstFetchModel(16)
        assert model.average_fetch_energy_fj(samples=16) > 0

    def test_fetch_cheaper_than_generation(self):
        fetch = UstFetchModel(16).average_fetch_energy_fj(samples=32)
        stream = counter_generator_stream_energy_fj(4, 9)
        assert fetch < stream / 5

    def test_code_validation(self):
        with pytest.raises(ValueError):
            UstFetchModel(16).fetch_sequence_energy_fj([16])

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            UstFetchModel(1)


class TestBinarizers:
    @pytest.mark.parametrize("builder", [build_masking_binarizer,
                                         build_comparator_binarizer])
    @pytest.mark.parametrize("ones_fraction,expected", [(0.8, 1), (0.2, 0)])
    def test_sign_decision(self, builder, ones_fraction, expected):
        h = 64
        sim = Simulator(builder(h))
        out = sim.run(bit_stream_stimulus(h, ones_fraction, seed=3))[-1]
        assert out["sign"] == expected

    def test_exact_threshold_fires(self):
        h = 16
        sim = Simulator(build_masking_binarizer(h))
        stream = [{"bit": 1}] * (h // 2) + [{"bit": 0}] * (h // 2)
        assert sim.run(stream)[-1]["sign"] == 1

    def test_one_below_threshold_does_not_fire(self):
        h = 16
        sim = Simulator(build_masking_binarizer(h))
        stream = [{"bit": 1}] * (h // 2 - 1) + [{"bit": 0}] * (h // 2 + 1)
        assert sim.run(stream)[-1]["sign"] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(2, 80) | st.sampled_from([784, 785]),
        order=st.sampled_from(["ones_first", "ones_last", "shuffled"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_sign_matches_software_rules_at_both_parities(
        self, h, order, seed, data
    ):
        """Both netlists latch ``sign`` exactly when ``2 * count - H >= 0``,
        the rule of ``masking_binarize`` and ``hdc.ops.binarize``; counts
        are often drawn at the threshold, where odd and even H differ."""
        tob = (h + 1) // 2
        near = st.integers(max(0, tob - 2), min(h, tob + 1))
        ones = data.draw(near | st.integers(0, h))
        bits = np.zeros(h, dtype=int)
        if order == "ones_first":
            bits[:ones] = 1
        elif order == "ones_last":
            bits[h - ones:] = 1
        else:
            bits[np.random.default_rng(seed).permutation(h)[:ones]] = 1
        # one idle cycle: the sticky flop latches a count reached on the last bit
        stream = [{"bit": int(b)} for b in bits] + [{"bit": 0}]
        accumulator = np.array([2 * ones - h])
        want = int(masking_binarize(accumulator, h)[0] > 0)
        assert want == int(binarize(accumulator)[0] > 0)
        for builder in (build_masking_binarizer, build_comparator_binarizer):
            assert Simulator(builder(h)).run(stream)[-1]["sign"] == want, builder

    def test_designs_agree_randomly(self):
        h = 96
        for seed in range(4):
            stim = bit_stream_stimulus(h, 0.5, seed=seed)
            masking = Simulator(build_masking_binarizer(h)).run(stim)[-1]["sign"]
            comparator = Simulator(build_comparator_binarizer(h)).run(stim)[-1]["sign"]
            assert masking == comparator

    def test_stimulus_validation(self):
        with pytest.raises(ValueError):
            bit_stream_stimulus(8, 1.5)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            build_masking_binarizer(1)
        with pytest.raises(ValueError):
            build_comparator_binarizer(1)


class TestLfsrHvGenerator:
    def test_state_matches_software(self):
        netlist = build_lfsr_hv_generator(width=8, compare_bits=4)
        sim = Simulator(netlist)
        software = LFSR(8)
        stim = lfsr_generator_stimulus(4, 7, 30)
        for vector in stim:
            sim.step(vector)
            software.next_state()
            hw_state = sum(
                sim.outputs()[f"state{i}"] << i for i in range(8)
            )
            assert hw_state == software.state

    def test_bit_is_threshold_compare(self):
        netlist = build_lfsr_hv_generator(width=8, compare_bits=8)
        sim = Simulator(netlist)
        software = LFSR(8)
        threshold = 100
        for vector in lfsr_generator_stimulus(8, threshold, 20):
            out = sim.step(vector)
            expected = int(software.next_state() >= threshold)
            assert out["bit"] == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            build_lfsr_hv_generator(width=21)
        with pytest.raises(ValueError):
            build_lfsr_hv_generator(width=8, compare_bits=9)
        with pytest.raises(ValueError):
            lfsr_generator_stimulus(4, 16, 5)
