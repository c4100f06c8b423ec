"""Acceptance criteria, one test per criterion.

Each test prints `[acceptance k] <name>: PASS|FAIL` on the live terminal
regardless of capture settings, then fails normally if any exact check
inside it does not hold.  All verdicts compare Fractions or ints; floats
appear only where a tolerance is itself part of the criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import upcube as uc
from upcube.search import part_measures

from oracles import naive_q


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _criterion(k: int, name: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"[acceptance {k}] {name}: {verdict}")

    return _criterion


@pytest.fixture
def console(capsys):
    def _say(msg: str) -> None:
        with capsys.disabled():
            print(msg)

    return _say


def test_criterion_1_q5_counterexample(announce):
    with announce(1, "Q_5 counterexample (5,13,7,7), 13/32 > 3/8"):
        t0 = time.perf_counter()
        triple = uc.q5_triple()
        prof = uc.occupancy(triple.x, triple.y, triple.z, Fraction(1, 2))
        elapsed = time.perf_counter() - t0
        assert all(uc.is_upward_closed(f) for f in (triple.x, triple.y, triple.z))
        assert (triple.x.count, triple.y.count, triple.z.count) == (16, 16, 16)
        assert prof.counts == (5, 13, 7, 7)
        rho = Fraction(1, 2)
        assert prof.s1 == Fraction(13, 32) > 3 * rho * (1 - rho) ** 2 == Fraction(3, 8)
        assert elapsed < 0.1


def test_criterion_2_q_formula(announce):
    with announce(2, "closed-form q(7,3,·): 4/9 at 1/3, 937950/2^21 at 3/8"):
        assert uc.q_formula(7, 3, Fraction(1, 3)) == Fraction(4, 9)

        value = uc.q_formula(7, 3, Fraction(3, 8))
        assert value == Fraction(937950, 2097152)
        assert value > Fraction(447, 1000)
        # two independent confirmations of the numerator
        assert value == naive_q(7, 3, Fraction(3, 8))
        triple = uc.kahn_triple(7, 3)
        assert value == uc.occupancy(triple.x, triple.y, triple.z, Fraction(3, 8)).s1


def test_criterion_3_q21_counterexample(announce):
    with announce(3, "Q_21 counterexample: S_1 count 937950, 9*937950 > 4*2^21"):
        t0 = time.perf_counter()
        triple, rep = uc.build_q21()
        elapsed = time.perf_counter() - t0
        total = 1 << 21
        assert triple.x.count == triple.y.count == triple.z.count == 786432
        z_pre = Fraction(rep.z_pre_count, total)
        assert z_pre == Fraction(678402, 2097152)
        assert Fraction(323, 1000) <= z_pre < Fraction(324, 1000)
        ceiling = Fraction(rep.z_pre_count + rep.pool_count, total)
        assert ceiling == Fraction(790902, 2097152)
        assert Fraction(377, 1000) <= ceiling < Fraction(378, 1000)
        assert rep.target - rep.z_pre_count == 108030 <= 112500 == rep.pool_count
        s1_count = rep.profile.counts[1]
        assert s1_count == 937950
        assert 9 * s1_count == 8441550 > 8388608 == 4 * total
        assert rep.profile.s1 > Fraction(4, 9)
        assert elapsed < 10.0


def test_criterion_4_lp_bound_and_maximizer(announce):
    with announce(4, "LP optimum 3r(1-r)/(1+r) on k/64 grid; maximizer at sqrt(2)-1"):
        for k in range(1, 64):
            rho = Fraction(k, 64)
            sol = uc.lp_max_s1(rho)
            assert sol.objective == 3 * rho * (1 - rho) / (1 + rho)
            assert sol.objective == uc.s1_upper_bound(rho)
        tol = Fraction(1, 10**9)
        rho_star, value = uc.bound_maximizer(tol)
        # |rho* - (sqrt 2 - 1)| <= tol and |value - (9 - 6 sqrt 2)| <= tol,
        # certified in exact arithmetic by squaring both sandwiches
        assert (rho_star + 1 - tol) ** 2 <= 2 <= (rho_star + 1 + tol) ** 2
        assert (9 - value - tol) ** 2 <= 72 <= (9 - value + tol) ** 2
        assert abs(float(value) - 0.5147186) < 1e-6


def test_criterion_5_diamond_poset(announce):
    with announce(5, "diamond poset: HK holds, LP profile realized exactly"):
        for k in range(1, 32):
            p = Fraction(k, 32)
            poset = uc.diamond_poset(p)
            assert sum(poset.weights) == 1
            min_defect, _ = uc.poset_hk_scan(poset)
            assert min_defect >= 0

            idx = {e: i for i, e in enumerate(poset.elements)}
            u = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p2"]
            v = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p3"]
            assert uc.poset_hk_defect(poset, u, v) == p - 4 * p**2 / (1 + p) ** 2

            lp = uc.optimal_profile(p)
            # the two-element upsets {A, p_i} have weight exactly p each and
            # their triple realizes the LP-optimal profile; the size-three
            # triple realizes the same profile with s_1 and s_2 swapped
            two = [1 << idx["A"] | 1 << idx[f"p{i}"] for i in (1, 2, 3)]
            assert all(poset.weight_of(m) == p for m in two)
            assert uc.poset_occupancy(poset, *two) == lp
            three = [
                (1 << idx["A"]) | sum(1 << idx[f"p{j}"] for j in (1, 2, 3) if j != i)
                for i in (1, 2, 3)
            ]
            assert uc.poset_occupancy(poset, *three) == (lp[0], lp[2], lp[1], lp[3])


def test_criterion_6_property_suites(announce):
    with announce(6, "property suites: HK, lift measure, top-up, round trip, Dedekind"):
        # 1000 seeded random upset pairs, n <= 10, random rational bias
        rng = random.Random(20260814)
        for _ in range(1000):
            n = rng.randrange(1, 11)
            d = rng.randrange(2, 65)
            p = Fraction(rng.randrange(1, d), d)
            x = uc.random_upset(n, rng)
            y = uc.random_upset(n, rng)
            assert uc.hk_defect(x, y, p) >= 0

        # pull_back preserves measure: count = mu(S, k/2^b) * 2^(b m)
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randrange(1, 6)
            b = rng.randrange(1, 4)
            s = uc.random_upset(m, rng)
            k = rng.randrange((1 << b) + 1)
            lifted = uc.pull_back(s, k, b)
            assert lifted.count == uc.measure(s, Fraction(k, 1 << b)) * (1 << lifted.n)
            assert uc.is_upward_closed(lifted)

        # top-up moves pool points from the 2-class to the 3-class only
        x, y = uc.dictator(6, 1), uc.dictator(6, 2)
        z0 = uc.threshold(6, 4)
        pool = (x & y) - z0
        base = uc.occupancy(x, y, z0).counts
        for extra in range(pool.count + 1):
            z = uc.topup_to_count(z0, pool, z0.count + extra)
            counts = uc.occupancy(x, y, z).counts
            assert counts[1] == base[1]
            assert counts[0] == base[0]
            assert counts[3] == base[3] + extra

        # closure idempotent; writer/parser invert each other
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 9)
            raw = uc.Family(n, rng.getrandbits(1 << n))
            closed = uc.up_closure(raw)
            assert uc.up_closure(closed) == closed
            assert uc.parse_upset(uc.format_upset(closed)) == closed

        assert [len(uc.enumerate_upsets_qn(n)) for n in (3, 4, 5)] == [20, 168, 7581]


def test_criterion_7_search_reproduction(announce, console):
    with announce(7, "search: 8 restarts reach 13/32 within 10^6 total iterations"):
        bound = uc.s1_upper_bound(Fraction(1, 2))
        results = [
            uc.local_search(5, Fraction(1, 2), seed=s, max_iters=125_000, stop_at=Fraction(13, 32))
            for s in range(8)
        ]
        for res in results:
            t = res.triple
            assert res.value == uc.occupancy(t.x, t.y, t.z).s1
            assert res.value <= bound
        assert sum(r.iterations for r in results) <= 10**6
        assert max(r.value for r in results) >= Fraction(13, 32)

    # min-part objective: report best-found only, no asserted target
    res = uc.local_search(5, Fraction(1, 2), "min-part", seed=0, max_iters=3000)
    parts = part_measures(res.triple, Fraction(1, 2))
    console(
        f"[acceptance 7] note: min-part best-found = {res.value} "
        f"(parts {', '.join(map(str, parts))}; no target asserted)"
    )
    assert res.value == min(parts)
