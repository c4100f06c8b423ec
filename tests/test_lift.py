import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import upcube as uc
from upcube.errors import (
    InvalidParams,
    InvariantViolation,
    NotUpwardClosed,
    TooLarge,
)
from upcube import lift, setcube
from upcube.lift import _lift_bits

from cube_strategies import upsets
from oracles import (
    fam_to_set,
    naive_is_upward_closed,
    naive_level_counts,
    naive_pull_back,
    naive_topup,
)


def naive_gadget(k: int, b: int) -> set[int]:
    """The first k points of Q_b by (descending size, ascending mask)."""
    return set(sorted(range(1 << b), key=lambda d: (-d.bit_count(), d))[:k])


class TestGadget:
    def test_three_eighths(self):
        # the points 011, 101 and 111
        assert uc.gadget(3, 3) == 0b10101000

    def test_identity_gadget(self):
        assert uc.gadget(1, 1) == 0b10

    def test_full_selector(self):
        assert uc.gadget(4, 2) == 0b1111
        assert uc.gadget(0, 2) == 0

    def test_width_out_of_range(self):
        with pytest.raises(InvalidParams, match="block width 0 outside 1..4"):
            uc.gadget(0, 0)
        with pytest.raises(InvalidParams, match="block width 5 outside 1..4"):
            uc.gadget(3, 5)

    def test_size_out_of_range(self):
        for b in (1, 2, 3, 4):
            for k in (-1, (1 << b) + 1):
                with pytest.raises(InvalidParams, match=f"gadget size {k} outside 0..{1 << b}"):
                    uc.gadget(k, b)

    def test_every_prefix_matches_naive_and_is_closed(self):
        for b in (1, 2, 3, 4):
            for k in range((1 << b) + 1):
                pts = fam_to_set(uc.Family(b, uc.gadget(k, b)))
                assert pts == naive_gadget(k, b)
                assert naive_is_upward_closed(b, pts)

    def test_gadget_checked_before_dimension(self):
        # as for the selector, a bad (k, b) is named even when b*m > N_MAX
        with pytest.raises(InvalidParams, match="gadget size 9"):
            uc.pull_back(~uc.empty_family(9), 9, 3)
        with pytest.raises(InvalidParams, match="block width 5"):
            uc.pull_back(~uc.empty_family(9), 3, 5)


class TestPullBack:
    def test_identity_width(self):
        # b=1 with I={ {1} } relabels nothing: the lift is the family itself
        fam = uc.threshold(4, 2)
        assert uc.pull_back(fam, 1, 1) == fam

    def test_empty_and_full(self):
        assert uc.pull_back(uc.empty_family(2), 3, 3) == uc.empty_family(6)
        assert uc.pull_back(~uc.empty_family(2), 3, 3) == ~uc.empty_family(6)

    def test_dictator_lift_count(self):
        lifted = uc.pull_back(uc.dictator(7, 1), 3, 3)
        assert lifted.n == 21
        assert lifted.count == 786432  # 3/8 * 2^21

    def test_matches_naive(self):
        fam = uc.up_closure(uc.Family(3, 1 << 0b010))
        got = uc.pull_back(fam, 3, 3)
        want = naive_pull_back(set(fam), fam.n, naive_gadget(3, 3), 3)
        assert set(got) == want

    @given(upsets(max_n=5), st.integers(1, 3), st.data())
    def test_measure_preserving(self, fam, b, data):
        if b * fam.n > 15:
            b = 1
        k = data.draw(st.integers(0, 1 << b))
        p = Fraction(k, 1 << b)
        lifted = uc.pull_back(fam, k, b)
        assert lifted.count == uc.measure(fam, p) * (1 << lifted.n)
        assert uc.is_upward_closed(lifted)

    def test_lift_respects_lattice_ops(self):
        a, b = uc.dictator(4, 1), uc.threshold(4, 3)
        assert uc.pull_back(a, 3, 3) & uc.pull_back(b, 3, 3) == uc.pull_back(a & b, 3, 3)
        assert uc.pull_back(a, 3, 3) | uc.pull_back(b, 3, 3) == uc.pull_back(a | b, 3, 3)

    def test_non_monotone_input_stays_non_monotone(self):
        fam = uc.Family(2, 1 << 0b01)  # single non-top point
        assert not uc.is_upward_closed(uc.pull_back(fam, 3, 3))

    def test_dimension_overflow(self):
        assert uc.pull_back(~uc.empty_family(8), 3, 3).n == 24  # exactly at the cap
        with pytest.raises(TooLarge, match="dimension 27 exceeds N_MAX=24"):
            uc.pull_back(~uc.empty_family(9), 3, 3)

    def test_dimension_checked_before_lifting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lifted vector built")

        monkeypatch.setattr(lift, "_lift_bits", refuse)
        with pytest.raises(TooLarge):
            uc.pull_back(~uc.empty_family(9), 3, 3)

    @pytest.mark.parametrize("block", [3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_blocked_matches_naive(self, monkeypatch, block, b):
        # with BLOCK at 3 or 4, a chunk is smaller than a block for some
        # (b, m), down to a single point (k = 0 at b = 4, BLOCK = 3)
        monkeypatch.setattr(setcube, "BLOCK", block)
        rng = random.Random(1000 * block + b)
        for m in range(12 // b + 1):
            k = rng.randrange((1 << b) + 1)
            s = uc.Family(m, rng.getrandbits(1 << m))
            got = uc.pull_back(s, k, b)
            assert len(got._blocks) == 1 << max(0, b * m - block)
            assert set(got) == naive_pull_back(set(s), m, naive_gadget(k, b), b)
            assert got._upward_closed is None  # never marked closed

    @pytest.mark.parametrize("b, m", [(1, 17), (2, 9), (3, 6), (4, 5), (3, 7), (3, 8), (4, 6)])
    def test_blocked_matches_joined_lift_bits(self, b, m):
        # bm = 17, 18, 18, 20, 21, 24, 24: above BLOCK, against the one-int lift
        rng = random.Random(b * m)
        for k in rng.sample(range((1 << b) + 1), 2):
            s = uc.Family(m, rng.getrandbits(1 << m))
            assert uc.pull_back(s, k, b).bits == _lift_bits(s.bits, m, uc.gadget(k, b), b)

    def test_blocked_lift_never_joins(self, monkeypatch):
        # n = 21 > BLOCK: the pull-backs and the top-up of the Q_21 build
        # work on the 8 KiB blocks and the 2^BLOCK-bit tables only
        base = uc.kahn_triple(7, 3)
        for name in ("_join", "_blocks"):
            monkeypatch.setattr(setcube, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        for name in ("absent_masks", "level_masks"):
            table = getattr(setcube, name)

            def small_only(k, table=table, name=name):
                if k > setcube.BLOCK:
                    raise AssertionError(f"{name}({k}) built above BLOCK")
                return table(k)

            monkeypatch.setattr(setcube, name, small_only)
        monkeypatch.setattr(lift, "level_masks", setcube.level_masks)
        z0 = uc.pull_back(base.z, 3, 3)
        pool = uc.pull_back((base.x & base.y) - base.z, 3, 3)
        z1 = uc.topup_to_count(z0, pool, 786432)
        assert (z0.n, z0.count, pool.count, z1.count) == (21, 678402, 112500, 786432)
        assert z1._upward_closed is True  # checked once, cached for TripleSystem

    def test_lift_bits_small_example(self):
        # m=1, b=1, I={1}: output block c copies hi for c=1, lo for c=0
        assert _lift_bits(0b10, 1, 0b10, 1) == 0b10


class TestTopUp:
    def test_zero_deficit(self):
        z = uc.threshold(4, 2)
        pool = uc.threshold(4, 1) - z
        assert uc.topup_to_count(z, pool, z.count) == z

    def test_take_everything(self):
        z = uc.threshold(4, 3)
        pool = uc.threshold(4, 2) - z
        got = uc.topup_to_count(z, pool, z.count + pool.count)
        assert got == uc.threshold(4, 2)

    def test_partial_level_prefix(self):
        z = uc.threshold(4, 3)
        pool = uc.threshold(4, 2) - z
        got = uc.topup_to_count(z, pool, z.count + 2)
        assert got.count == z.count + 2
        assert uc.is_upward_closed(got)
        # the two smallest level-2 masks are 0b0011 and 0b0101
        assert 0b0011 in got and 0b0101 in got and 0b0110 not in got

    def test_intermediate_prefixes_closed(self):
        z = uc.empty_family(4)
        pool = ~uc.empty_family(4)
        for t in range(17):
            got = uc.topup_to_count(z, pool, t)
            assert got.count == t
            assert uc.is_upward_closed(got)

    def test_larger_cardinality_admitted_first(self):
        z = uc.threshold(5, 5)
        pool = uc.threshold(5, 3) - z
        got = uc.topup_to_count(z, pool, 1 + 5 + 3)
        lev = naive_level_counts(got)
        assert lev[5] == 1 and lev[4] == 5 and lev[3] == 3

    def test_overlap_rejected(self):
        z = uc.threshold(3, 2)
        with pytest.raises(InvalidParams, match="pool overlaps the base family"):
            uc.topup_to_count(z, uc.threshold(3, 2), z.count)

    def test_open_base_rejected(self):
        bad = uc.Family(3, 1 << 0b001)
        with pytest.raises(NotUpwardClosed, match="base family is not upward closed"):
            uc.topup_to_count(bad, uc.empty_family(3), 1)

    def test_escaping_pool_rejected(self):
        # pool point {1} has superset {1,2} outside base ∪ pool
        z = uc.Family(3, 1 << 0b111)
        pool = uc.Family(3, 1 << 0b001)
        with pytest.raises(NotUpwardClosed, match="a pool point has a superset outside"):
            uc.topup_to_count(z, pool, 2)

    def test_unreachable_targets(self):
        z = uc.threshold(3, 2)
        pool = uc.threshold(3, 1) - z
        with pytest.raises(InvalidParams, match="outside"):
            uc.topup_to_count(z, pool, z.count - 1)
        with pytest.raises(InvalidParams, match="outside"):
            uc.topup_to_count(z, pool, z.count + pool.count + 1)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_blocked_matches_naive(self, monkeypatch, n):
        # BLOCK = 3: a partial level may start, end or split inside any block
        monkeypatch.setattr(setcube, "BLOCK", 3)
        rng = random.Random(n)
        for _ in range(3):
            z0 = uc.random_upset(n, rng)
            pool = (z0 | uc.random_upset(n, rng)) - z0
            zs, ps = fam_to_set(z0), fam_to_set(pool)
            for target in range(z0.count, z0.count + pool.count + 1):
                got = uc.topup_to_count(z0, pool, target)
                assert fam_to_set(got) == naive_topup(zs, ps, target)

    def test_only_the_result_must_be_closed(self):
        # z0 = {{1,2}} lacks {1,2,3}; topped up from the pool it is closed
        z0, pool = uc.Family(3, 1 << 0b011), uc.Family(3, 1 << 0b111)
        got = uc.topup_to_count(z0, pool, 2)
        assert set(got) == {0b011, 0b111}
        assert got._upward_closed is True
        assert naive_is_upward_closed(3, set(got))
        with pytest.raises(NotUpwardClosed, match="base family is not upward closed"):
            uc.topup_to_count(z0, pool, 1)


class TestBuildQ21:
    def test_report_numbers(self, q21):
        triple, report = q21
        assert (report.m, report.b, triple.n) == (7, 3, 21)
        assert report.bias == Fraction(3, 8)
        assert triple.x.count == triple.y.count == 786432
        assert report.z_pre_count == 678402
        assert report.pool_count == 112500
        assert report.target == 786432
        assert report.target - report.z_pre_count == 108030
        assert triple.z.count == 786432

    def test_exactly_one_count(self, q21):
        _, report = q21
        prof = report.profile
        assert prof.counts[1] == 937950
        assert sum(prof.counts) == 1 << 21
        assert prof.s1 == Fraction(937950, 1 << 21)
        assert prof.s1 > Fraction(4, 9)

    def test_triple_is_valid(self, q21):
        triple, report = q21
        assert triple.n == 21
        assert triple.label == "q21"
        assert (triple.x.count, triple.y.count, triple.z.count) == (report.target,) * 3

    def test_z_density_is_exact_three_eighths(self, q21):
        triple, _ = q21
        assert uc.measure(triple.z, Fraction(1, 2)) == Fraction(3, 8)

    @pytest.mark.parametrize("name", ["X", "Y", "Z", "pool"])
    def test_base_certificate_checked(self, monkeypatch, name):
        # a pull-back that drops one point of the named family is caught
        # by its base measure, not by an assert
        base = uc.kahn_triple(7, 3)
        bad = {"X": base.x, "Y": base.y, "Z": base.z, "pool": (base.x & base.y) - base.z}[name]
        honest = lift.pull_back

        def lossy(s, k, b):
            out = honest(s, k, b)
            if s == bad:
                return uc.Family(out.n, out.bits & (out.bits - 1))
            return out

        monkeypatch.setattr(lift, "pull_back", lossy)
        with pytest.raises(InvariantViolation, match=f"lifted {name} has"):
            uc.build_q21()

    def test_pool_ceiling(self, q21):
        # even promoting the whole pool stays below the measure needed
        # to reach 4/9 by enlarging Z alone without the top-up ordering
        _, report = q21
        ceiling = Fraction(report.z_pre_count + report.pool_count, 1 << 21)
        assert ceiling == Fraction(790902, 2097152)
        assert ceiling > Fraction(report.target, 1 << 21)
