"""The exact 4-variable occupancy LP and its closed-form optimum.

For three upward closed families of common density rho, the occupancy
profile (s_0..s_3) obeys two exact linear equalities (total mass, first
moment) and two correlation inequalities; maximizing s_1 over that
polytope gives the closed form 3*rho*(1-rho)/(1+rho).  Everything here
is solved in Fractions by enumerating the vertices of the polytope's 2-D
face — four variables never justify a real LP solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .setcube import check_bias
from .errors import InvalidBias, InvalidParams, InvariantViolation

Profile = tuple[Fraction, Fraction, Fraction, Fraction]


def _constraint_rows(rho: Fraction) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Inequality rows (name, coefficients) with sense row·s >= 0."""
    one = Fraction(1)
    zero = Fraction(0)
    return [
        ("s0_nonneg", (one, zero, zero, zero)),
        ("s1_nonneg", (zero, one, zero, zero)),
        ("s2_nonneg", (zero, zero, one, zero)),
        ("s3_nonneg", (zero, zero, zero, one)),
        ("hk_top", (zero, zero, -rho, 3 * (1 - rho))),
        ("hk_bottom", (3 * rho, -(1 - rho), zero, zero)),
    ]


def profile_feasible(s: Sequence[Fraction | int | str], rho: Fraction | int | str) -> bool:
    """Exact check of all occupancy constraints at common density rho."""
    rho = check_bias(rho)
    s = tuple(Fraction(v) for v in s)
    if len(s) != 4:
        raise InvalidParams("profile must have exactly four entries")
    if sum(s) != 1 or s[1] + 2 * s[2] + 3 * s[3] != 3 * rho:
        return False
    return all(sum(c * v for c, v in zip(row, s)) >= 0 for _, row in _constraint_rows(rho))


def s1_upper_bound(rho: Fraction | int | str) -> Fraction:
    """Closed-form maximum of s_1 at common density rho: 3rho(1-rho)/(1+rho)."""
    rho = check_bias(rho)
    return 3 * rho * (1 - rho) / (1 + rho)


@dataclass(frozen=True)
class LPSolution:
    """Optimal profile, objective value s_1, and the binding constraints."""

    rho: Fraction
    profile: Profile
    objective: Fraction
    tight: tuple[str, ...]


def lp_max_s1(rho: Fraction | int | str) -> LPSolution:
    """Exact maximum of s_1 over feasible profiles at common density rho.

    The two equalities fix s0 = 1 - 3rho + s2 + 2s3 and s1 = 3rho - 2s2 -
    3s3, so the polytope lives on the (s2, s3) plane, where each of the six
    inequalities is a line a*s2 + b*s3 + c >= 0.  Every optimum sits at a
    vertex where two of those lines cross: all C(6,2) pairs are solved by
    Cramer's rule and the feasible best kept.
    """
    rho = check_bias(rho)
    if not 0 < rho < 1:
        raise InvalidBias(f"need 0 < rho < 1, got {rho}")
    ineqs = _constraint_rows(rho)
    lines = [  # row . (1 - 3rho + s2 + 2s3, 3rho - 2s2 - 3s3, s2, s3) = a*s2 + b*s3 + c
        (r0 - 2 * r1 + r2, 2 * r0 - 3 * r1 + r3, r0 * (1 - 3 * rho) + r1 * 3 * rho)
        for _, (r0, r1, r2, r3) in ineqs
    ]
    best: tuple[Fraction, Profile] | None = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        s2, s3 = (b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det
        sol = (1 - 3 * rho + s2 + 2 * s3, 3 * rho - 2 * s2 - 3 * s3, s2, s3)
        if any(sum(c * v for c, v in zip(row, sol)) < 0 for _, row in ineqs):
            continue
        if best is None or sol[1] > best[0]:
            best = (sol[1], sol)
    if best is None:
        raise InvariantViolation(f"no feasible basic point at rho {rho}: the polytope is empty")
    value, profile = best
    tight = tuple(
        name for name, row in ineqs if sum(c * v for c, v in zip(row, profile)) == 0
    )
    return LPSolution(rho=rho, profile=profile, objective=value, tight=tight)


def optimal_profile(rho: Fraction | int | str) -> Profile:
    """The closed-form maximizing profile ((1-r)^2, 3r(1-r), 0, 2r^2) / (1+r)."""
    rho = check_bias(rho)
    d = 1 + rho
    return ((1 - rho) ** 2 / d, 3 * rho * (1 - rho) / d, Fraction(0), 2 * rho**2 / d)


def bound_maximizer(
    tolerance: Fraction | int | str,
) -> tuple[Fraction, Fraction]:
    """Rational (rho*, value*) within `tolerance` of the true maximizer.

    The bound 6 - 3rho - 6/(1+rho) is strictly concave, so exact-rational
    ternary search brackets its argmax (sqrt(2)-1, with value 9-6*sqrt(2));
    the returned point satisfies (1+rho*)*value* = 3*rho*(1-rho*) exactly.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise InvalidParams(f"tolerance must be positive, got {tolerance}")
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > tolerance / 2:
        third = (hi - lo) / 3
        m1, m2 = lo + third, hi - third
        if s1_upper_bound(m1) < s1_upper_bound(m2):
            lo = m1
        else:
            hi = m2
    rho_star = (lo + hi) / 2
    value = s1_upper_bound(rho_star)
    if (1 + rho_star) * value != 3 * rho_star * (1 - rho_star):
        raise InvariantViolation(f"value {value} is off the bound curve at rho {rho_star}")
    # certify |rho* - (sqrt(2)-1)| <= tolerance and |value* - (9-6sqrt(2))| <=
    # tolerance by squaring each sandwich; a lower end below 0 holds as is
    lo_r, lo_v = rho_star + 1 - tolerance, 9 - value - tolerance
    if not (
        (lo_r <= 0 or lo_r**2 <= 2) and 2 <= (rho_star + 1 + tolerance) ** 2
        and (lo_v <= 0 or lo_v**2 <= 72) and 72 <= (9 - value + tolerance) ** 2
    ):
        raise InvariantViolation(f"({rho_star}, {value}) is not {tolerance}-close to the maximizer")
    return rho_star, value
