from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viproplab import (
    L2SeqVector,
    PiecewiseLinearFn,
    derivative,
    gap_negativity_threshold,
    l2_pairing,
    plap_pairing,
    pow_norm,
    sawtooth,
    scaled_hat,
)
from viproplab.families import HAT_PAIRING_SLOPE, SAWTOOTH_ENERGY

from conftest import assert_grid_form

F = Fraction


class TestSawtooth:
    def test_k1_shape(self):
        u = sawtooth(1)
        assert u.breakpoints == (F(0), F(1, 6), F(1, 2), F(1))
        assert u(F(1, 6)) == 1
        assert u(F(0)) == u(F(1, 2)) == u(F(1)) == 0

    def test_peak_positions_and_heights(self):
        k = 7
        u = sawtooth(k)
        for i in range(k):
            assert u(F(3 * i + 1, 6 * k)) == F(1, k)
            assert u(F(i, 2 * k)) == 0

    def test_zero_tail(self):
        u = sawtooth(5)
        for t in (F(1, 2), F(3, 5), F(9, 10), F(1)):
            assert u(t) == 0

    def test_figure_node_set_k4(self):
        # node data of the k=4 plot: peaks 1/4 at 1/24, 4/24, 7/24, 10/24
        u = sawtooth(4)
        expected = {
            F(0): F(0),
            F(1, 24): F(1, 4),
            F(1, 8): F(0),
            F(1, 6): F(1, 4),
            F(1, 4): F(0),
            F(7, 24): F(1, 4),
            F(3, 8): F(0),
            F(5, 12): F(1, 4),
            F(1, 2): F(0),
            F(1): F(0),
        }
        assert dict(zip(u.breakpoints, u.values)) == expected

    def test_slope_pattern_counts(self):
        for k in (1, 3, 10):
            vals = derivative(sawtooth(k)).interval_values
            assert vals.count(F(6)) == k
            assert vals.count(F(-3)) == k
            assert vals.count(F(0)) == 1
            assert len(vals) == 2 * k + 1

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            sawtooth(0)

    @pytest.mark.parametrize("k", [True, False, 2.0, "3", None, -1])
    def test_rejects_a_non_int_index(self, k):
        # True once built k = 1, and 2.0 and "3" raised TypeError
        with pytest.raises(ValueError, match="index k must be an integer >= 1"):
            sawtooth(k)

    @pytest.mark.parametrize("k", range(1, 40))
    def test_energy_constant(self, k):
        assert pow_norm(derivative(sawtooth(k)), 3) == 45


class TestScaledHat:
    def test_midpoint_value(self):
        assert scaled_hat(1)(F(1, 2)) == F(1, 2)
        assert scaled_hat(F(16))(F(1, 2)) == 8

    def test_slopes(self):
        alpha = F(7, 3)
        assert derivative(scaled_hat(alpha)).interval_values == (alpha, -alpha)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_hat(0)
        with pytest.raises(ValueError):
            scaled_hat(F(-1, 2))
        with pytest.raises(ValueError, match="alpha must be > 0"):
            scaled_hat("-3/4")

    # built unchecked on its grid, the hat is the function the checked constructor builds
    @given(st.fractions(min_value=0, max_value=10**9, max_denominator=10**9).filter(bool))
    def test_grid_matches_the_public_constructor(self, alpha):
        hat = scaled_hat(alpha)
        assert_grid_form(hat)
        assert hat == PiecewiseLinearFn((0, F(1, 2), 1), (0, alpha / 2, 0))
        assert hat.values == (0, alpha / 2, 0) and scaled_hat(str(alpha)) == hat

    def test_negativity_threshold_computed(self):
        assert gap_negativity_threshold() == 15 == SAWTOOTH_ENERGY / HAT_PAIRING_SLOPE

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_constants_match_the_calculus(self, k):
        assert pow_norm(derivative(sawtooth(k)), 3) == SAWTOOTH_ENERGY
        assert plap_pairing(sawtooth(k), scaled_hat(7)) == 7 * HAT_PAIRING_SLOPE


class TestL2UnitVectors:
    def test_unit_norm(self):
        assert l2_pairing(L2SeqVector(3), L2SeqVector(3)) == 1

    def test_orthogonality(self):
        assert l2_pairing(L2SeqVector(3), L2SeqVector(5)) == 0

    def test_constant_pairing_sequence(self):
        vals = [l2_pairing(L2SeqVector(k), L2SeqVector(k)) for k in range(1, 101)]
        assert all(v == 1 for v in vals)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            L2SeqVector(0)

    @pytest.mark.parametrize("index", [True, 2.5, 2.0, "3", None])
    def test_rejects_a_non_int_index(self, index):
        # True and 2.5 were once accepted
        with pytest.raises(ValueError, match="index must be an integer >= 1"):
            L2SeqVector(index)

