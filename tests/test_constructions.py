from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import upcube as uc
from upcube import setcube
from upcube.constructions import TripleSystem
from upcube.errors import InvalidParams, NotUpwardClosed, OutOfRange

from cube_strategies import open_biases
from oracles import naive_level_counts, naive_q


class TestBasicFamilies:
    def test_dictator_counts(self):
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert uc.dictator(n, i).count == 1 << (n - 1)

    def test_dictator_membership(self):
        d = uc.dictator(4, 2)
        assert uc.mask_from_elements((2,), 4) in d
        assert uc.mask_from_elements((1, 3, 4), 4) not in d

    def test_dictator_range(self):
        with pytest.raises(OutOfRange):
            uc.dictator(4, 0)
        with pytest.raises(OutOfRange):
            uc.dictator(4, 5)

    def test_threshold_counts(self):
        from math import comb

        for n in range(0, 7):
            for l in range(0, n + 2):
                want = sum(comb(n, k) for k in range(l, n + 1))
                assert uc.threshold(n, l).count == want

    def test_threshold_extremes(self):
        assert uc.threshold(3, 0) == ~uc.empty_family(3)
        assert uc.threshold(3, 4) == uc.empty_family(3)

    def test_threshold_range(self):
        with pytest.raises(OutOfRange):
            uc.threshold(3, -1)
        with pytest.raises(OutOfRange):
            uc.threshold(3, 5)

    @given(st.integers(1, 8), st.data())
    def test_both_are_upward_closed(self, n, data):
        i = data.draw(st.integers(1, n))
        l = data.draw(st.integers(0, n + 1))
        assert uc.is_upward_closed(uc.dictator(n, i))
        assert uc.is_upward_closed(uc.threshold(n, l))

    @pytest.mark.parametrize("n", range(8))
    def test_blocked_match_definitions(self, monkeypatch, n):
        # BLOCK = 3: above n = 3 the constructions are built from the 2^3-bit
        # tables, block by block, and coordinates 4..n pair whole blocks
        monkeypatch.setattr(setcube, "BLOCK", 3)
        cube = range(1 << n)
        for i in range(1, n + 1):
            d = uc.dictator(n, i)
            assert len(d._blocks) == 1 << max(0, n - 3)
            assert set(d) == {m for m in cube if m >> (i - 1) & 1}
        for l in range(n + 2):
            t = uc.threshold(n, l)
            assert len(t._blocks) == 1 << max(0, n - 3)
            assert set(t) == {m for m in cube if m.bit_count() >= l}
        for l in range(1, n - 1):
            z = uc.kahn_triple(n, l).z
            assert set(z) == {
                m for m in cube if m.bit_count() > l or (m.bit_count() == l and not m & 0b11)
            }


class TestTripleSystem:
    def test_rejects_non_monotone_part(self):
        n = 3
        good = uc.threshold(n, 2)
        bad = uc.Family(n, 1 << 0b001)
        with pytest.raises(NotUpwardClosed):
            TripleSystem(good, good, bad)

    def test_rejects_mixed_dimensions(self):
        from upcube.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            TripleSystem(uc.threshold(3, 1), uc.threshold(4, 1), uc.threshold(3, 1))

    def test_params_validation(self):
        for call in (uc.kahn_triple, lambda n, l: uc.q_formula(n, l, Fraction(1, 2))):
            with pytest.raises(InvalidParams, match="need 1 <= l <= n-2, got n=5, l=4"):
                call(5, 4)
            with pytest.raises(InvalidParams, match="need 1 <= l <= n-2, got n=5, l=0"):
                call(5, 0)
        from upcube.errors import InvalidBias

        with pytest.raises(InvalidBias):
            uc.q_formula(7, 3, Fraction(7, 6))
        # the level is checked first, as in qcurve after each bias
        with pytest.raises(InvalidParams):
            uc.q_formula(5, 4, Fraction(7, 6))


class TestQ5:
    def test_counts(self):
        t = uc.q5_triple()
        assert (t.x.count, t.y.count, t.z.count) == (16, 16, 16)

    def test_all_parts_closed(self):
        t = uc.q5_triple()
        for fam in (t.x, t.y, t.z):
            assert uc.is_upward_closed(fam)

    def test_occupancy_counts(self):
        t = uc.q5_triple()
        prof = uc.occupancy(t.x, t.y, t.z)
        assert prof.counts == (5, 13, 7, 7)
        assert prof.s1 == Fraction(13, 32)
        assert prof.s1 > Fraction(3, 8)

    def test_x_only_region(self):
        # the five sets in X but outside Y and Z
        t = uc.q5_triple()
        only_x = t.x.bits & ~t.y.bits & ~t.z.bits
        assert only_x.bit_count() == 5

    def test_z_trades(self):
        t = uc.q5_triple()
        n = 5
        assert uc.mask_from_elements((3, 4), n) in t.z
        assert uc.mask_from_elements((3, 5), n) in t.z
        assert uc.mask_from_elements((1, 4, 5), n) not in t.z
        assert uc.mask_from_elements((2, 4, 5), n) not in t.z


class TestKahnTriple:
    def test_shape_7_3(self):
        t = uc.kahn_triple(7, 3)
        assert t.n == 7
        assert t.label == "kahn(n=7,l=3)"
        assert uc.measure(t.z, Fraction(3, 8)) == Fraction(678402, 2097152)

    def test_z_level_counts_7_3(self):
        from math import comb

        t = uc.kahn_triple(7, 3)
        lev = naive_level_counts(t.z)
        # levels > 3 are full; level 3 keeps only sets avoiding both coords
        assert lev[:3] == (0, 0, 0)
        assert lev[3] == comb(5, 3)
        assert lev[4:] == tuple(comb(7, k) for k in range(4, 8))

    def test_x_only_level_counts(self):
        # sets counted once for the first dictator: contain 1, avoid 2, size-k
        # slice below the patch has C(n-2, k-1) members
        from math import comb

        t = uc.kahn_triple(7, 3)
        only_x = uc.Family(7, t.x.bits & ~t.y.bits & ~t.z.bits)
        lev = naive_level_counts(only_x)
        assert lev[1:4] == tuple(comb(5, k - 1) for k in (1, 2, 3))

    def test_small_instance_exceeds_baseline(self):
        t = uc.kahn_triple(5, 3)
        prof = uc.occupancy(t.x, t.y, t.z)
        assert prof.counts == (7, 15, 6, 4)
        assert prof.s1 == Fraction(15, 32)


class TestQFormula:
    def test_value_at_one_third(self):
        assert uc.q_formula(7, 3, Fraction(1, 3)) == Fraction(4, 9)

    def test_value_at_three_eighths(self):
        got = uc.q_formula(7, 3, Fraction(3, 8))
        assert got == Fraction(937950, 2097152)
        assert got > Fraction(4, 9)

    def test_half_matches_counts(self):
        assert uc.q_formula(5, 3, Fraction(1, 2)) == Fraction(15, 32)

    @given(
        st.integers(4, 9),
        st.data(),
        open_biases,
    )
    def test_matches_occupancy(self, n, data, p):
        l = data.draw(st.integers(1, n - 2))
        t = uc.kahn_triple(n, l)
        prof = uc.occupancy(t.x, t.y, t.z, p=p)
        assert uc.q_formula(n, l, p) == prof.s1

    @pytest.mark.parametrize("n,l", [(5, 2), (6, 3), (7, 3), (8, 4)])
    def test_matches_naive_oracle(self, n, l):
        p = Fraction(2, 7)
        assert uc.q_formula(n, l, p) == naive_q(n, l, p)

    def test_small_bias_limit(self):
        # as p -> 0 every term carries a positive power of p
        got = uc.q_formula(7, 3, Fraction(1, 10**6))
        assert 0 < got < Fraction(1, 10**5)


class TestQCurve:
    def test_grid_shape_and_members(self):
        grid = [Fraction(k, 8) for k in range(1, 8)]
        pts = uc.qcurve(7, 3, grid)
        assert [p for p, _ in pts] == grid
        assert dict(pts)[Fraction(3, 8)] == Fraction(937950, 2097152)

    def test_vanishes_at_endpoints(self):
        pts = dict(uc.qcurve(7, 3, [Fraction(0), Fraction(1)]))
        assert pts[Fraction(0)] == 0
        assert pts[Fraction(1)] == 0

    def test_rejects_bias_outside_unit_interval(self):
        from upcube.errors import InvalidBias

        with pytest.raises(InvalidBias):
            uc.qcurve(7, 3, [Fraction(3, 2)])
