import math

import pytest

from phasecs import theory

GRID = [round(0.1 * i, 1) for i in range(11)]


class TestGamma:
    def test_unit_weight_collapses(self):
        for rho, alpha in ((0.5, 0.2), (1.0, 0.9), (2.0, 0.0)):
            assert theory.gamma(1.0, rho, alpha) == 1.0

    def test_half_alpha(self):
        assert abs(theory.gamma(0.3, 1.0, 0.5) - 1.0) <= 1e-15

    def test_value(self):
        assert abs(theory.gamma(0.6, 1.0, 0.9) - 0.778885) <= 1e-6


class TestDConst:
    def test_unit_weight(self):
        assert theory.d_const(1.0, 1.0, 0.3) == 1.0

    def test_high_alpha(self):
        assert theory.d_const(0.6, 1.0, 0.9) == 1.0

    def test_low_alpha(self):
        assert theory.d_const(0.0, 1.0, 0.25) == 1.5


class TestDeltaThreshold:
    def test_value(self):
        assert abs(theory.delta_threshold(4.0, 1.0, 1.0) - math.sqrt(0.75)) <= 1e-15

    def test_unweighted_reduction(self):
        for t in (1.5, 2.0, 4.0, 9.0):
            expected = math.sqrt((t - 1.0) / t)
            assert abs(theory.delta_threshold(t, 1.0, 1.0) - expected) <= 1e-15

    def test_vanishes_at_d(self):
        assert theory.delta_threshold(1.0 + 1e-10, 1.0, 1.0) < 1e-4

    def test_rejects_t_below_d(self):
        with pytest.raises(ValueError):
            theory.delta_threshold(1.0, 1.5, 1.0)


class TestTOmega:
    def test_golden_weighted(self):
        assert abs(theory.t_omega(0.6, 1.0, 0.9, 0.5, 1.5) - 1.2022) <= 5e-5

    def test_unit_weight(self):
        assert abs(theory.t_omega(1.0, 1.0, 0.9, 0.5, 1.5) - 4.0 / 3.0) <= 1e-12

    def test_half_alpha(self):
        for omega in (0.0, 0.3, 0.7, 1.0):
            assert abs(theory.t_omega(omega, 1.0, 0.5, 0.5, 1.5) - 4.0 / 3.0) <= 1e-12

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            theory.t_omega(0.5, 1.0, 0.5, 0.0, 1.5)
        with pytest.raises(ValueError):
            theory.t_omega(0.5, 1.0, 0.5, 0.5, 2.0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, -0.5, 3.0])
    @pytest.mark.parametrize("side", ["theta_minus", "theta_plus"])
    def test_rejects_theta_outside_the_open_interval(self, side, theta):
        # at theta = inf, 2 theta - theta^2 is NaN: the theta_plus branch must
        # not vanish from the max, nor a theta_minus one turn the result NaN
        thetas = {"theta_minus": 0.5, "theta_plus": 1.5, side: theta}
        with pytest.raises(ValueError, match=rf"^{side} must lie in \(0, 2\)"):
            theory.t_omega(0.5, 1.0, 0.5, **thetas)

    def test_decreasing_in_alpha(self):
        for omega in GRID[:-1]:  # omega < 1
            vals = [theory.t_omega(omega, 1.0, a, 0.5, 1.5) for a in GRID]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_omega(self):
        for alpha in (0.6, 0.7, 0.8, 0.9, 1.0):
            vals = [theory.t_omega(om, 1.0, alpha, 0.5, 1.5) for om in GRID]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
        for alpha in (0.0, 0.1, 0.2, 0.3, 0.4):
            vals = [theory.t_omega(om, 1.0, alpha, 0.5, 1.5) for om in GRID]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


class TestErrorConstants:
    def test_golden_unit_weight(self):
        c1, c2 = theory.error_constants(4.0, 0.3, 1.0, 1.0, 0.5)
        assert abs(c1 - 2.46707) <= 1e-5
        assert abs(c2 - 1.551397) <= 1e-6

    def test_matches_unweighted_formulas(self):
        for t, delta in ((4.0, 0.3), (2.0, 0.5), (8.0, 0.1)):
            c1, c2 = theory.error_constants(t, delta, 1.0, 1.0, 0.7)
            u1, u2 = theory.error_constants_unweighted(t, delta)
            assert abs(c1 - u1) <= 1e-10
            assert abs((c2 - 1.0) - u2) <= 1e-10

    def test_accurate_prior_shrinks_c1(self):
        c1_half, _ = theory.error_constants(4.0, 0.3, 0.3, 1.0, 0.5)
        c1_good, _ = theory.error_constants(4.0, 0.3, 0.3, 1.0, 0.9)
        assert c1_good < c1_half

    def test_c1_decreasing_in_alpha(self):
        for omega in GRID[:-1]:
            vals = [theory.error_constants(4.0, 0.3, omega, 1.0, a)[0] for a in GRID]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_diverges_at_threshold(self):
        thr = theory.delta_threshold(4.0, 1.0, 1.0)
        deltas = [thr - 10.0 ** (-p) for p in range(1, 8)]
        vals = [theory.error_constants(4.0, d, 1.0, 1.0, 0.5)[0] for d in deltas]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert vals[-1] > 1e5

    def test_rejects_above_threshold(self):
        with pytest.raises(ValueError):
            theory.error_constants(4.0, 0.9, 1.0, 1.0, 0.5)


class TestErrorBound:
    def test_zero_case(self):
        assert theory.error_bound(2.0, 1.5, 0.0, 0.0, 0.0, 4, 0.5, 0.0, 0.0) == 0.0

    def test_unit_weight_reduction(self):
        value = theory.error_bound(2.0, 1.5, 0.1, 0.2, 0.0, 4, 1.0, 0.6, 0.4)
        assert abs(value - (2.0 * 0.3 + 1.5 * 2.0 * 0.6 / 2.0)) <= 1e-12

    def test_slack_term(self):
        value = theory.error_bound(2.0, 1.5, 0.0, 0.0, 0.8, 4, 1.0, 0.0, 0.0)
        assert abs(value - 1.5 * 0.8 / 2.0) <= 1e-12

    def test_general_assembly(self):
        c1, c2, zeta, eps, eta, k, om, t1, t2 = 2.1, 1.4, 0.05, 0.1, 0.3, 9, 0.4, 0.7, 0.2
        expected = c1 * (zeta + eps) + c2 * 2 * (om * t1 + (1 - om) * t2) / 3 + c2 * eta / 3
        assert abs(theory.error_bound(c1, c2, zeta, eps, eta, k, om, t1, t2) - expected) <= 1e-12


class TestConstantsTable:
    def test_golden_row(self):
        rows = theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.3, [0.9], [0.6])
        assert abs(rows[0].t_omega - 1.2022) <= 5e-5

    def test_unit_weight_rows_constant(self):
        rows = theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.3, [0.3, 0.5, 0.7, 0.9], [1.0])
        u1, _ = theory.error_constants_unweighted(4.0, 0.3)
        for row in rows:
            assert abs(row.t_omega - 4.0 / 3.0) <= 1e-12
            assert abs(row.c1 - u1) <= 1e-10

    def test_half_alpha_rows(self):
        rows = theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.3, [0.5], GRID)
        assert all(abs(r.t_omega - 4.0 / 3.0) <= 1e-12 for r in rows)

    @pytest.mark.parametrize("rho", [1e16, 1e17, 1e308])
    def test_half_alpha_rows_at_large_rho(self, rho):
        # gamma = d = 1 at alpha = 0.5 for every rho; written as 1 + rho - 2 alpha
        # rho, they lost the 1 beyond rho = 2**53: t_omega read 1 at 1e16, and
        # d = 0 divided by zero at 1e17
        rows = theory.constants_table(rho, 0.5, 1.5, 4.0, 0.3, [0.5], GRID)
        at_one = theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.3, [0.5], GRID)
        for row, ref in zip(rows, at_one):
            assert abs(row.t_omega - 4.0 / 3.0) <= 1e-12
            assert math.isfinite(row.c1) and math.isfinite(row.c2)
            assert (row.c1, row.c2) == (ref.c1, ref.c2)

    def test_not_applicable_rows_kept(self):
        rows = theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.8, [0.0], [0.0])
        assert len(rows) == 1
        assert not rows[0].applicable
        assert math.isnan(rows[0].c1)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            theory.constants_table(1.0, 0.5, 1.5, 4.0, 0.3, [], [0.5])

    @pytest.mark.parametrize("args, name", [
        ((-1.0, 0.5, 1.5, 4.0, 0.3, [0.5], [0.5]), "rho"),
        ((1.0, 0.5, 1.5, math.inf, 0.3, [0.5], [0.5]), "t"),
        ((1.0, 0.5, 1.5, 4.0, math.nan, [0.5], [0.5]), "delta_tk"),
        ((1.0, 0.5, 1.5, 4.0, 0.3, [0.5, 1.5], [0.5]), "alphas"),
        ((1.0, 0.5, 1.5, 4.0, 0.3, [0.5], [0.5, -1.0]), "omegas"),
        ((1.0, 0.5, 2.0, 4.0, 0.3, [0.5], [0.5]), "theta_plus"),
        ((10.0, 0.5, 1.5, 4.0, 0.3, [1.0], [0.5]), "rho"),
    ])
    def test_refusal_names_the_parameter(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            theory.constants_table(*args)


def test_threshold_applicable_on_default_grid():
    # delta = 0.3 stays below the threshold across the whole default grid
    for alpha in GRID:
        for omega in GRID:
            gam = theory.gamma(omega, 1.0, alpha)
            d = theory.d_const(omega, 1.0, alpha)
            assert theory.delta_threshold(4.0, d, gam) > 0.3


def test_unweighted_rejects_bad_input():
    with pytest.raises(ValueError):
        theory.error_constants_unweighted(1.0, 0.1)
    with pytest.raises(ValueError):
        theory.error_constants_unweighted(4.0, 0.99)


def test_derived_constant_ranges():
    for omega in (0.0, 0.4, 1.0):
        for alpha in (0.0, 0.5, 1.0):
            gam = theory.gamma(omega, 1.0, alpha)
            d = theory.d_const(omega, 1.0, alpha)
            threshold = theory.delta_threshold(4.0, d, gam)
            c1, c2 = theory.error_constants(4.0, 0.3, omega, 1.0, alpha)
            # gamma hits 0 exactly at the fully-trusted perfect prior
            # (omega=0, alpha=1); the threshold then degenerates to 1
            if omega == 0.0 and alpha == 1.0:
                assert gam == 0.0
                assert threshold == 1.0
            else:
                assert gam > 0
                assert 0 < threshold < 1
            assert d >= 1.0
            assert c1 > 0 and math.isfinite(c1)
            assert c2 > 0 and math.isfinite(c2)
