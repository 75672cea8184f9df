"""LFSR software model."""

import pytest

from repro.hdc import LFSR, MAXIMAL_TAPS


class TestPeriod:
    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 7, 8, 10, 12])
    def test_maximal_length(self, width):
        assert LFSR(width).period() == (1 << width) - 1

    def test_visits_all_nonzero_states(self):
        width = 6
        lfsr = LFSR(width)
        seen = {lfsr.state}
        for _ in range((1 << width) - 2):
            seen.add(lfsr.next_state())
        assert len(seen) == (1 << width) - 1
        assert 0 not in seen

    def test_non_maximal_taps_detected(self):
        # taps (4, 2) are not maximal for width 4.
        lfsr = LFSR(4, taps=(4, 2))
        assert lfsr.period() < 15


class TestStep:
    def test_deterministic(self):
        a = LFSR(8, seed=5)
        b = LFSR(8, seed=5)
        assert [a.step() for _ in range(50)] == [b.step() for _ in range(50)]

    def test_output_is_last_stage(self):
        # Stage `width` lives at the MSB and is the output.
        assert LFSR(4, seed=0b1010).step() == 1
        assert LFSR(4, seed=0b0010).step() == 0

    def test_state_stays_nonzero(self):
        lfsr = LFSR(5)
        for _ in range(100):
            lfsr.step()
            assert lfsr.state != 0


class TestUniform:
    def test_range(self):
        lfsr = LFSR(10)
        values = lfsr.sequence(200)
        assert values.min() > 0.0
        assert values.max() < 1.0

    def test_mean_near_half(self):
        values = LFSR(16).sequence(4000)
        assert abs(values.mean() - 0.5) < 0.05

    def test_negative_n(self):
        with pytest.raises(ValueError):
            LFSR(8).sequence(-1)


class TestValidation:
    def test_unknown_width(self):
        with pytest.raises(ValueError, match="taps"):
            LFSR(23)

    def test_zero_seed(self):
        with pytest.raises(ValueError, match="non-zero"):
            LFSR(8, seed=0)

    def test_bad_taps(self):
        with pytest.raises(ValueError):
            LFSR(4, taps=(5,))

    def test_all_tabulated_widths_construct(self):
        for width in MAXIMAL_TAPS:
            LFSR(width).step()
