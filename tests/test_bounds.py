from fractions import Fraction

import pytest
from hypothesis import given

import upcube as uc
from upcube import bounds
from upcube.errors import InvalidBias, InvalidParams, InvariantViolation

from cube_strategies import open_biases

GRID = [Fraction(k, 64) for k in range(1, 64)]


class TestFeasibility:
    def test_known_feasible_profiles(self):
        half = Fraction(1, 2)
        assert uc.profile_feasible(uc.optimal_profile(half), half)
        # three identical dictators: s = (1/2, 0, 0, 1/2)
        assert uc.profile_feasible((half, 0, 0, half), half)
        # three independent-ish dictators in Q_3: s = (1/8, 3/8, 3/8, 1/8)
        eighth = Fraction(1, 8)
        assert uc.profile_feasible((eighth, 3 * eighth, 3 * eighth, eighth), half)

    def test_mass_violations(self):
        half = Fraction(1, 2)
        assert not uc.profile_feasible((1, 1, 0, 0), half)  # total mass 2
        assert not uc.profile_feasible((1, 0, 0, 0), half)  # first moment 0 != 3/2

    def test_correlation_violations(self):
        half = Fraction(1, 2)
        # s1 above the bound forces hk_bottom negative once mass balances
        s1 = Fraction(3, 4)
        s3 = (3 * half - s1) / 3
        s0 = 1 - s1 - s3
        assert s0 + s1 + s3 == 1 and s1 + 3 * s3 == 3 * half
        assert not uc.profile_feasible((s0, s1, 0, s3), half)

    def test_wrong_length(self):
        with pytest.raises(InvalidParams):
            uc.profile_feasible((1, 0, 0), Fraction(1, 2))

    @given(open_biases)
    def test_optimal_profile_always_feasible(self, rho):
        assert uc.profile_feasible(uc.optimal_profile(rho), rho)


class TestClosedForm:
    def test_values(self):
        assert uc.s1_upper_bound(Fraction(1, 2)) == Fraction(1, 2)
        assert uc.s1_upper_bound(Fraction(3, 8)) == Fraction(45, 88)
        assert uc.s1_upper_bound(Fraction(1, 3)) == Fraction(1, 2)
        assert uc.s1_upper_bound(0) == 0
        assert uc.s1_upper_bound(1) == 0

    def test_string_rho(self):
        assert uc.s1_upper_bound("3/8") == Fraction(45, 88)

    @given(open_biases)
    def test_dominates_independent_value(self, rho):
        # three mutually independent events of probability rho have
        # s_1 = 3 rho (1-rho)^2; the LP value must weakly dominate it
        indep = 3 * rho * (1 - rho) ** 2
        assert uc.s1_upper_bound(rho) >= indep

    def test_dominance_is_strict_inside(self):
        for rho in GRID:
            assert uc.s1_upper_bound(rho) > 3 * rho * (1 - rho) ** 2


class TestLP:
    @pytest.mark.parametrize("rho", GRID)
    def test_matches_closed_form_on_grid(self, rho):
        sol = uc.lp_max_s1(rho)
        assert sol.objective == uc.s1_upper_bound(rho)
        assert sol.profile == uc.optimal_profile(rho)

    def test_optimum_at_half(self):
        sol = uc.lp_max_s1(Fraction(1, 2))
        assert sol.objective == Fraction(1, 2)
        assert sol.profile == (Fraction(1, 6), Fraction(1, 2), Fraction(0), Fraction(1, 3))
        assert set(sol.tight) == {"s2_nonneg", "hk_bottom"}

    @pytest.mark.parametrize(
        "rho, profile, objective",
        [
            ("1/64", ("3969/4160", "189/4160", "0", "1/2080"), "189/4160"),
            ("1/3", ("1/3", "1/2", "0", "1/6"), "1/2"),
            ("3/8", ("25/88", "45/88", "0", "9/44"), "45/88"),
            ("1/2", ("1/6", "1/2", "0", "1/3"), "1/2"),
            ("2/3", ("1/15", "2/5", "0", "8/15"), "2/5"),
            ("63/64", ("1/8128", "189/8128", "0", "3969/4064"), "189/8128"),
        ],
    )
    def test_pinned_solutions(self, rho, profile, objective):
        # literals printed by the 4x4 Gauss-Jordan solver this LP once used
        sol = uc.lp_max_s1(rho)
        assert sol.profile == tuple(Fraction(v) for v in profile)
        assert sol.objective == Fraction(objective)
        assert sol.tight == ("s2_nonneg", "hk_bottom")

    @given(open_biases)
    def test_tight_constraints(self, rho):
        sol = uc.lp_max_s1(rho)
        assert "s2_nonneg" in sol.tight
        assert "hk_bottom" in sol.tight

    @given(open_biases)
    def test_optimum_is_feasible(self, rho):
        sol = uc.lp_max_s1(rho)
        assert uc.profile_feasible(sol.profile, rho)

    def test_degenerate_rho_rejected(self):
        with pytest.raises(InvalidBias, match="need 0 < rho < 1"):
            uc.lp_max_s1(0)
        with pytest.raises(InvalidBias, match="need 0 < rho < 1"):
            uc.lp_max_s1(1)

    def test_empty_polytope_is_an_invariant_violation(self, monkeypatch):
        # an added row -(s0+s1+s2+s3) >= 0 contradicts total mass 1, so no
        # basic point is feasible; the check must not be a bare assert
        rows = bounds._constraint_rows
        infeasible = ("empty", (Fraction(-1),) * 4)
        monkeypatch.setattr(bounds, "_constraint_rows", lambda rho: rows(rho) + [infeasible])
        with pytest.raises(InvariantViolation, match="polytope is empty"):
            uc.lp_max_s1(Fraction(1, 2))

    def test_profile_sums(self):
        rho = Fraction(2, 7)
        s = uc.optimal_profile(rho)
        assert sum(s) == 1
        assert s[1] + 2 * s[2] + 3 * s[3] == 3 * rho


class TestMaximizer:
    def test_tight_tolerance(self):
        tol = Fraction(1, 10**9)
        rho, value = uc.bound_maximizer(tol)
        # external recheck of both sandwiches, independent of internal asserts
        assert (rho + 1 - tol) ** 2 <= 2 <= (rho + 1 + tol) ** 2
        assert (9 - value - tol) ** 2 <= 72 <= (9 - value + tol) ** 2
        assert value == uc.s1_upper_bound(rho)

    def test_loose_tolerance(self):
        rho, value = uc.bound_maximizer(Fraction(1, 10))
        assert Fraction(3, 10) < rho < Fraction(1, 2)
        assert value > Fraction(1, 2)

    def test_float_comparison(self):
        import math

        rho, value = uc.bound_maximizer(Fraction(1, 10**12))
        assert math.isclose(float(rho), math.sqrt(2) - 1, abs_tol=1e-11)
        assert math.isclose(float(value), 9 - 6 * math.sqrt(2), abs_tol=1e-11)

    def test_value_beats_every_grid_point(self):
        _, value = uc.bound_maximizer(Fraction(1, 10**6))
        assert all(value >= uc.s1_upper_bound(r) - Fraction(1, 10**5) for r in GRID)

    def test_certificate_checked(self, monkeypatch):
        true_bound = uc.s1_upper_bound
        monkeypatch.setattr(bounds, "s1_upper_bound", lambda r: true_bound(r) + Fraction(1, 10))
        with pytest.raises(InvariantViolation, match="off the bound curve"):
            uc.bound_maximizer(Fraction(1, 100))

    @pytest.mark.parametrize("tol", [Fraction(3, 2), 10, 10**6])
    def test_tolerance_wider_than_the_interval(self, tol):
        # the sandwiches' lower ends are negative here, so squaring them
        # must not be taken as a failed certificate
        rho, value = uc.bound_maximizer(tol)
        assert abs(rho - Fraction(41421356, 10**8)) <= tol
        assert abs(value - Fraction(51471862, 10**8)) <= tol

    def test_bad_tolerance(self):
        with pytest.raises(InvalidParams, match="tolerance must be positive"):
            uc.bound_maximizer(0)
        with pytest.raises(InvalidParams, match="tolerance must be positive"):
            uc.bound_maximizer(Fraction(-1, 4))
