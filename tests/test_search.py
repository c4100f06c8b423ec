import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, count as endless
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import upcube as uc
from oracles import naive_local_search, naive_upsets_qn
from upcube import search as search_mod
from upcube.errors import (
    InvalidBias,
    InvalidParams,
    InvariantViolation,
    OutOfRange,
    TooLarge,
)
from upcube.search import DEDEKIND, _Scorer, part_measures
from upcube.setcube import _addable_block, _minimal_block, iter_bits


class TestEnumeration:
    @pytest.mark.parametrize("n", range(6))
    def test_dedekind_counts(self, n):
        assert len(uc.enumerate_upsets_qn(n)) == DEDEKIND[n]

    def test_all_closed_and_distinct(self):
        fams = uc.enumerate_upsets_qn(4)
        assert len({f.bits for f in fams}) == len(fams)
        assert all(uc.is_upward_closed(f) for f in fams)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            uc.enumerate_upsets_qn(6)

    def test_negative_dimension(self):
        with pytest.raises(OutOfRange, match="dimension -1 is negative"):
            uc.enumerate_upsets_qn(-1)

    @pytest.mark.parametrize("n", range(5))
    def test_same_order_as_per_point_backtracking(self, n):
        assert [set(f) for f in uc.enumerate_upsets_qn(n)] == naive_upsets_qn(n)

    def test_count_cross_checked(self, monkeypatch):
        monkeypatch.setattr(search_mod, "DEDEKIND", (2, 3, 6, 21, 168, 7581))
        with pytest.raises(InvariantViolation, match="20 upsets of Q_3, expected 21"):
            uc.enumerate_upsets_qn(3)


class TestObjective:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            uc.SearchObjective(kind="profit")
        with pytest.raises(InvalidBias):
            uc.SearchObjective(bias=Fraction(0))
        with pytest.raises(InvalidBias):
            uc.SearchObjective(bias=Fraction(1))

    # the climb's integer scorer, over its denominator, is the exact value
    def test_s1_value_on_q5(self):
        t = uc.q5_triple()
        scorer = _Scorer(5, uc.SearchObjective())
        assert Fraction(scorer.score(t.x.bits, t.y.bits, t.z.bits), scorer.denom) == Fraction(13, 32)

    def test_min_part_value(self):
        t = uc.q5_triple()
        scorer = _Scorer(5, uc.SearchObjective(kind="min_part_density"))
        parts = part_measures(t, Fraction(1, 2))
        assert Fraction(scorer.score(t.x.bits, t.y.bits, t.z.bits), scorer.denom) == min(parts)
        assert sum(parts) == Fraction(13, 32)

    def test_part_measures_disjoint_parts(self):
        t = uc.q5_triple()
        p = Fraction(1, 2)
        assert part_measures(t, p) == (
            uc.measure(t.x - (t.y | t.z), p),
            uc.measure(t.y - (t.x | t.z), p),
            uc.measure(t.z - (t.x | t.y), p),
        )


class TestExhaustive:
    def test_tiny_optima(self):
        obj = uc.SearchObjective()
        assert uc.exhaustive_best(1, obj).value == 0
        assert uc.exhaustive_best(2, obj).value == Fraction(1, 4)
        assert uc.exhaustive_best(3, obj).value == Fraction(3, 8)

    def test_n4_optimum(self):
        res = uc.exhaustive_best(4, uc.SearchObjective())
        assert res.value == Fraction(3, 8)
        assert res.triple.label == "exhaustive(n=4)"
        assert res.value <= uc.s1_upper_bound(uc.measure(res.triple.x, Fraction(1, 2)))

    def test_min_part_small(self):
        res = uc.exhaustive_best(3, uc.SearchObjective(kind="min_part_density"))
        assert res.value == Fraction(1, 8)

    def test_equal_counts(self):
        res = uc.exhaustive_best(3, uc.SearchObjective())
        t = res.triple
        assert t.x.count == t.y.count == t.z.count

    def test_too_large(self):
        with pytest.raises(TooLarge):
            uc.exhaustive_best(5, uc.SearchObjective())

    @pytest.mark.parametrize("kind", ["s1_density", "min_part_density"])
    def test_first_best_triple_and_triple_count(self, kind):
        # strict scan of the equal-count triples, counts ascending
        obj = uc.SearchObjective(kind=kind)
        value = {
            "s1_density": lambda t: uc.occupancy(*t).s1,
            "min_part_density": lambda t: min(part_measures(uc.TripleSystem(*t), Fraction(1, 2))),
        }[kind]
        by_count: dict[int, list] = {}
        for fam in uc.enumerate_upsets_qn(3):
            by_count.setdefault(fam.count, []).append(fam)
        best, best_value, examined = None, Fraction(-1), 0
        for count in sorted(by_count):
            for t in combinations_with_replacement(by_count[count], 3):
                examined += 1
                v = value(t)
                if v > best_value:
                    best, best_value = t, v
        res = uc.exhaustive_best(3, obj)
        assert (res.triple.x, res.triple.y, res.triple.z) == best
        assert (res.value, res.iterations) == (best_value, examined)


class TestLocalSearch:
    def test_deterministic_per_seed(self):
        a = uc.local_search(4, Fraction(1, 2), uc.SearchObjective(), seed=7, max_iters=500)
        b = uc.local_search(4, Fraction(1, 2), uc.SearchObjective(), seed=7, max_iters=500)
        assert a.triple == b.triple
        assert a.value == b.value
        assert a.iterations == b.iterations

    def test_result_is_valid_triple(self):
        res = uc.local_search(5, Fraction(1, 2), uc.SearchObjective(), seed=3, max_iters=800)
        t = res.triple
        assert t.x.count == t.y.count == t.z.count == 16
        for fam in (t.x, t.y, t.z):
            assert uc.is_upward_closed(fam)
        assert res.value == uc.occupancy(t.x, t.y, t.z).s1
        assert t.label == "local(n=5,seed=3)"

    def test_never_beats_lp_bound(self):
        for seed in range(4):
            res = uc.local_search(
                5, Fraction(1, 2), uc.SearchObjective(), seed=seed, max_iters=1000
            )
            assert res.value <= uc.s1_upper_bound(Fraction(1, 2))

    @pytest.mark.parametrize("n", [3, 4])
    def test_never_beats_exhaustive(self, n):
        obj = uc.SearchObjective()
        exact = uc.exhaustive_best(n, obj).value
        res = uc.local_search(n, Fraction(1, 2), obj, seed=11, max_iters=2000)
        assert res.value <= exact

    def test_min_part_bounded_by_third(self):
        obj = uc.SearchObjective(kind="min_part_density")
        res = uc.local_search(4, Fraction(1, 2), obj, seed=5, max_iters=1500)
        assert res.value <= Fraction(1, 3)

    def test_biased_objective(self):
        obj = uc.SearchObjective(bias=Fraction(3, 8))
        res = uc.local_search(4, Fraction(1, 4), obj, seed=2, max_iters=500)
        assert res.value <= uc.s1_upper_bound(Fraction(3, 8))

    def test_stop_at_halts_early(self):
        target = Fraction(13, 32)
        res = uc.local_search(
            5, Fraction(1, 2), uc.SearchObjective(), seed=5, max_iters=50_000, stop_at=target
        )
        assert res.value >= target
        assert res.iterations < 50_000

    def test_non_dyadic_density_rejected(self):
        with pytest.raises(InvalidParams, match="is not a multiple of 2"):
            uc.local_search(5, Fraction(1, 3), uc.SearchObjective())

    @given(st.integers(0, 30))
    def test_value_always_recomputable(self, seed):
        res = uc.local_search(3, Fraction(1, 2), uc.SearchObjective(), seed=seed, max_iters=60)
        t = res.triple
        assert res.value == uc.occupancy(t.x, t.y, t.z).s1

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, 1 << n))
        ),
        st.sampled_from(["s1_density", "min_part_density"]),
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 8), Fraction(5, 7)]),
        st.integers(0, 10**6),
        st.integers(0, 400),
        st.none() | st.fractions(0, Fraction(1, 2), max_denominator=64),
    )
    def test_matches_full_rescore_oracle(self, n_count, kind, p, seed, max_iters, stop_at):
        n, count = n_count
        rho = Fraction(count, 1 << n)
        res = uc.local_search(
            n, rho, uc.SearchObjective(kind=kind, bias=p),
            seed=seed, max_iters=max_iters, stop_at=stop_at,
        )
        fams, value, iterations = naive_local_search(n, rho, kind, p, seed, max_iters, stop_at)
        assert [set(f) for f in (res.triple.x, res.triple.y, res.triple.z)] == fams
        assert (res.value, res.iterations, res.seed) == (value, iterations, seed)

    # Past n = LIST_MAX_N = 6 a mask spans several 64-bit words (2 at n = 7,
    # 8 at n = 9), and the climb draws through select_bit, not point lists.
    @pytest.mark.parametrize(
        "n, rho, kind, p, seed, stop_at",
        [
            (7, Fraction(1, 2), "s1_density", Fraction(1, 2), 0, None),
            (7, Fraction(3, 8), "min_part_density", Fraction(3, 8), 1, None),
            (9, Fraction(1, 2), "s1_density", Fraction(1, 3), 2, None),
            (9, Fraction(1, 2), "min_part_density", Fraction(1, 2), 3, None),
            (9, Fraction(1, 2), "s1_density", Fraction(1, 2), 2, Fraction(9, 32)),
        ],
    )
    def test_matches_oracle_beyond_one_word(self, n, rho, kind, p, seed, stop_at):
        res = uc.local_search(
            n, rho, uc.SearchObjective(kind=kind, bias=p),
            seed=seed, max_iters=200, stop_at=stop_at,
        )
        fams, value, iterations = naive_local_search(n, rho, kind, p, seed, 200, stop_at)
        assert [set(f) for f in (res.triple.x, res.triple.y, res.triple.z)] == fams
        assert (res.value, res.iterations) == (value, iterations)
        if stop_at is not None:
            assert value >= stop_at and iterations < 200

    def test_size_checked_before_allocation(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"mask table for n={n} requested")

        for mod in (uc.setcube, search_mod):
            for name in ("level_masks", "absent_masks", "full_mask"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        with pytest.raises(TooLarge):
            uc.local_search(30, Fraction(1, 2), uc.SearchObjective())
        with pytest.raises(TooLarge, match="capped at n=16"):
            uc.local_search(17, Fraction(1, 2), uc.SearchObjective())
        with pytest.raises(TooLarge):
            uc.local_search(10**12, Fraction(1, 2), uc.SearchObjective())
        with pytest.raises(OutOfRange):
            uc.local_search(-1, Fraction(1, 2), uc.SearchObjective())

    def test_negative_iterations_rejected_before_start_up(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("start-up ran")

        monkeypatch.setattr(search_mod, "_random_upset_with_count", refuse)
        with pytest.raises(InvalidParams):
            uc.local_search(5, Fraction(1, 2), uc.SearchObjective(), max_iters=-5)
        with pytest.raises(AssertionError):
            uc.local_search(5, Fraction(1, 2), uc.SearchObjective(), max_iters=0)

    def test_running_score_cross_checked(self, monkeypatch):
        monkeypatch.setattr(search_mod._Scorer, "score", lambda self, *fams: -1)
        with pytest.raises(InvariantViolation, match="disagrees with a full rescore"):
            uc.local_search(4, Fraction(1, 2), uc.SearchObjective(), seed=1, max_iters=50)

    def test_cross_check_survives_optimize_flag(self):
        code = (
            "from fractions import Fraction\n"
            "import upcube as uc\n"
            "from upcube import search\n"
            "from upcube.errors import InvariantViolation\n"
            "search._Scorer.score = lambda self, *fams: -1\n"
            "try:\n"
            "    uc.local_search(4, Fraction(1, 2), uc.SearchObjective(), max_iters=50)\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(7)\n"
        )
        src = str(Path(uc.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env={"PYTHONPATH": src}, capture_output=True
        )
        assert proc.returncode == 7, proc.stderr


class TestClimbKernels:
    """The climb's draws and removal masks, against what they replace."""

    KS = [*range(1, 4097), *(2**j + d for j in range(1, 17) for d in (-1, 0, 1))]

    def test_below_draws_as_randrange(self):
        # a CPython change to randrange would move every search digest
        mine, ref = random.Random(2024), random.Random(2024)
        for k in self.KS:
            assert [search_mod._below(mine.getrandbits, k) for _ in range(3)] == [
                ref.randrange(k) for _ in range(3)
            ]
            assert mine.getstate() == ref.getstate()

    @pytest.mark.parametrize("n", range(9))
    def test_removal_mask_is_minimal_mask_of_grown_family(self, n):
        rng = random.Random(n)
        for _ in range(12):
            bits = uc.random_upset(n, rng).bits
            minimal = _minimal_block(bits, n, bits)
            for a in iter_bits(_addable_block(bits, n)):
                assert search_mod._removal_mask(minimal, a, n) == _minimal_block(
                    bits | 1 << a, n, bits
                )


class TestRestarts:
    # At n = 5, rho = 1/2 and 2000 iterations, seeds 5 and 6 are the only
    # ones of 0..7 that reach 13/32, the optimum.
    Q5_ARGS = (5, Fraction(1, 2), uc.SearchObjective())

    def test_picks_best(self):
        obj = uc.SearchObjective()
        seeds = list(range(4))
        best = uc.best_of_restarts(4, Fraction(1, 2), obj, seeds, max_iters=400)
        singles = [
            uc.local_search(4, Fraction(1, 2), obj, seed=s, max_iters=400) for s in seeds
        ]
        assert best.value == max(r.value for r in singles)

    def test_tie_prefers_smallest_seed(self):
        obj = uc.SearchObjective()
        best = uc.best_of_restarts(3, Fraction(1, 2), obj, [9, 1, 4], max_iters=300)
        singles = [
            uc.local_search(3, Fraction(1, 2), obj, seed=s, max_iters=300) for s in [9, 1, 4]
        ]
        top = max(r.value for r in singles)
        assert best.seed == min(r.seed for r in singles if r.value == top)
        # with 2000 iterations, seeds 0, 1, 3 and 4 all stall at 11/32
        best = uc.best_of_restarts(*self.Q5_ARGS, [4, 1, 3, 0], max_iters=2000)
        assert (best.seed, best.value) == (0, Fraction(11, 32))

    def test_empty_seeds(self):
        with pytest.raises(InvalidParams):
            uc.best_of_restarts(3, Fraction(1, 2), uc.SearchObjective(), [])
        with pytest.raises(InvalidParams):
            uc.best_of_restarts(3, Fraction(1, 2), uc.SearchObjective(), range(4, 4))

    def test_stop_at_ends_the_restarts(self, monkeypatch):
        seen = []
        climb = search_mod.local_search

        def counting(*args, seed, **kwargs):
            seen.append(seed)
            return climb(*args, seed=seed, **kwargs)

        monkeypatch.setattr(search_mod, "local_search", counting)
        best = uc.best_of_restarts(
            *self.Q5_ARGS, range(8), max_iters=2000, stop_at=Fraction(13, 32)
        )
        assert best.seed == 5 and seen == [0, 1, 2, 3, 4, 5]
        seen.clear()
        # endless seeds are streamed
        best = uc.best_of_restarts(
            *self.Q5_ARGS, endless(), max_iters=2000, stop_at=Fraction(13, 32)
        )
        assert best.seed == 5 and seen == [0, 1, 2, 3, 4, 5]
        seen.clear()
        uc.best_of_restarts(*self.Q5_ARGS, range(8), max_iters=2000)
        assert seen == list(range(8))

    def test_stop_at_report_matches_max_over_all_seeds(self):
        stop = Fraction(13, 32)
        singles = [
            uc.local_search(*self.Q5_ARGS, seed=s, max_iters=2000, stop_at=stop) for s in range(8)
        ]
        old = max(singles, key=lambda r: (r.value, -r.seed))
        best = uc.best_of_restarts(*self.Q5_ARGS, range(8), max_iters=2000, stop_at=stop)
        assert (best.seed, best.value, best.iterations, best.triple) == (
            old.seed, old.value, old.iterations, old.triple,
        )

    @pytest.mark.parametrize("make", [list, iter, lambda s: (x for x in s)])
    def test_accepts_any_iterable_of_seeds(self, make):
        obj = uc.SearchObjective()
        want = uc.best_of_restarts(3, Fraction(1, 2), obj, range(2, 6), max_iters=200)
        got = uc.best_of_restarts(3, Fraction(1, 2), obj, make(range(2, 6)), max_iters=200)
        assert (got.seed, got.value, got.iterations, got.triple) == (
            want.seed, want.value, want.iterations, want.triple,
        )
