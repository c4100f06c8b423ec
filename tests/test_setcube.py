import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import upcube as uc
from upcube import setcube
from upcube.errors import (
    DimensionMismatch,
    InvalidBias,
    InvariantViolation,
    NotUpwardClosed,
    OutOfRange,
    TooLarge,
)
from upcube.setcube import (
    N_MAX,
    absent_masks,
    check_bias,
    check_dim,
    full_mask,
    iter_bits,
    level_counts,
    level_masks,
    level_weights,
    mask_from_elements,
    select_bit,
)

from cube_strategies import biases, families, upset_pairs, upsets
from oracles import (
    fam_to_set,
    is_superset_point,
    naive_elements,
    naive_addable,
    naive_is_upward_closed,
    naive_iter_bits,
    naive_level_counts,
    naive_measure,
    naive_minimal,
    naive_no_member_below,
    naive_occupancy_counts,
    naive_up_closure,
    popcount_numpy,
)

HALF = Fraction(1, 2)

# `biases` with the three special cases of the measure kernel always in reach.
edge_biases = st.one_of(st.sampled_from((Fraction(0), HALF, Fraction(1))), biases)

# Masks around the 64-bit word edges of iter_bits, up to 2^12 bits wide.
WORD_EDGES = (0, 1, 1 << 63, (1 << 64) - 1, 1 << 64, 1 << 65, (1 << 128) + 1)
wide_masks = st.one_of(
    st.sampled_from(WORD_EDGES),
    st.builds(lambda e, k: e << k, st.sampled_from(WORD_EDGES), st.integers(0, 4096 - 130)),
    st.builds(lambda e, x: e ^ x, st.sampled_from(WORD_EDGES), st.integers(0, (1 << 4096) - 1)),
)


class TestFamilyBasics:
    def test_point_round_trip(self):
        assert mask_from_elements((1, 3), 3) == 0b101
        assert naive_elements(mask_from_elements((1, 3), 3)) == (1, 3)
        assert mask_from_elements((), 3) == 0
        with pytest.raises(OutOfRange):
            mask_from_elements((4,), 3)
        with pytest.raises(OutOfRange):
            mask_from_elements((0,), 3)

    def test_dimension_limits(self):
        with pytest.raises(TooLarge, match="exceeds N_MAX"):
            uc.Family(25, 0)
        with pytest.raises(OutOfRange):
            uc.Family(-1, 0)
        with pytest.raises(OutOfRange):
            uc.Family(2, 1 << 16)  # vector too wide for Q_2
        for bad in (1 << 4, -1):  # the first point past Q_2, a negative vector
            with pytest.raises(OutOfRange):
                uc.Family(2, bad)
        assert uc.Family(2, (1 << 4) - 1) == ~uc.empty_family(2)

    def test_container_protocol(self):
        fam = uc.family_from_points(3, [0b101, 0b111])
        assert len(fam) == 2
        assert 0b101 in fam and 0b011 not in fam
        assert sorted(fam) == [0b101, 0b111]

    @given(st.data())
    def test_family_from_points_matches_set(self, data):
        n = data.draw(st.integers(0, 6))
        pts = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=1 << (n + 1)))
        fam = uc.family_from_points(n, pts)
        assert fam.n == n
        assert fam.bits == sum(1 << p for p in set(pts))

    @pytest.mark.parametrize("n", range(7))
    def test_family_from_points_rejects_outside_points(self, n):
        for bad in (-1, 1 << n, 1 << (n + 3)):
            with pytest.raises(OutOfRange):
                uc.family_from_points(n, [0, bad])

    @pytest.mark.parametrize("n", [0, 3, 14, 24])
    def test_repr_evaluates_back(self, n):
        # decimal bits would pass the 4300-digit int-to-str limit from n = 14
        for fam in (~uc.empty_family(n), uc.Family(n, 0)):
            assert eval(repr(fam), {"Family": uc.Family}) == fam

    def test_binary_ops_require_equal_dim(self):
        with pytest.raises(DimensionMismatch):
            ~uc.empty_family(3) | ~uc.empty_family(4)

    def test_check_bias(self):
        assert check_bias("3/8") == Fraction(3, 8)
        with pytest.raises(InvalidBias):
            check_bias(Fraction(9, 8))
        with pytest.raises(InvalidBias):
            check_bias(-1)


class TestClosure:
    def test_closure_of_singleton(self):
        fam = uc.up_closure(uc.family_from_points(3, [mask_from_elements((1,), 3)]))
        want = {
            mask_from_elements(s, 3)
            for s in [(1,), (1, 2), (1, 3), (1, 2, 3)]
        }
        assert fam_to_set(fam) == want

    def test_closure_of_empty_and_bottom(self):
        assert uc.up_closure(uc.empty_family(2)).count == 0
        assert uc.up_closure(uc.family_from_points(4, [0])).count == 16

    def test_is_upward_closed_examples(self):
        assert uc.is_upward_closed(~uc.empty_family(3))
        assert not uc.is_upward_closed(uc.family_from_points(3, [0b011]))

    @given(families())
    def test_closure_matches_naive(self, fam):
        closed = uc.up_closure(fam)
        want = naive_up_closure(fam.n, fam_to_set(fam)) if fam.count else set()
        assert fam_to_set(closed) == want
        assert uc.is_upward_closed(closed)

    @given(families())
    def test_closure_idempotent(self, fam):
        once = uc.up_closure(fam)
        assert uc.up_closure(once) == once

    @given(families())
    def test_is_upward_closed_matches_naive(self, fam):
        assert uc.is_upward_closed(fam) == naive_is_upward_closed(fam.n, fam_to_set(fam))

    def test_is_upward_closed_checks_each_family_once(self, monkeypatch):
        closed = uc.up_closure(uc.family_from_points(4, [0b0011]))
        open_ = uc.family_from_points(4, [0b0011])
        assert uc.is_upward_closed(closed) and not uc.is_upward_closed(open_)

        def refuse(n):
            raise AssertionError("closedness recomputed")

        monkeypatch.setattr(setcube, "absent_masks", refuse)
        assert uc.is_upward_closed(closed) and not uc.is_upward_closed(open_)

    @given(families())
    def test_closure_result_carries_closedness(self, fam):
        closed = uc.up_closure(fam)

        def refuse(n):
            raise AssertionError("closedness of a closure result recomputed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setcube, "absent_masks", refuse)
            assert uc.is_upward_closed(closed)
        assert naive_is_upward_closed(closed.n, fam_to_set(closed))


class TestMinimalAndAddable:
    def test_minimal_examples(self):
        from upcube.constructions import dictator, threshold

        triples = uc.minimal_elements(threshold(5, 3))
        assert len(triples) == 10
        assert all(m.bit_count() == 3 for m in triples)
        assert uc.minimal_elements(dictator(4, 2)) == [0b0010]
        assert uc.minimal_elements(uc.empty_family(3)) == []

    def test_minimal_requires_upset(self):
        with pytest.raises(NotUpwardClosed):
            uc.minimal_elements(uc.family_from_points(3, [0b011]))

    @given(upsets())
    def test_generator_round_trip(self, fam):
        gens = uc.minimal_elements(fam)
        assert uc.up_closure(uc.family_from_points(fam.n, gens)) == fam
        assert gens == sorted(gens, key=lambda m: (m.bit_count(), m))

    @given(upsets())
    def test_minimal_matches_naive(self, fam):
        got = set(uc.minimal_elements(fam))
        assert got == naive_minimal(fam_to_set(fam))

    @given(st.data())
    def test_minimal_block_call_shapes(self, data):
        # bits and out are drawn independently; the kernel is called as the
        # hill climb calls it, (bits | 1 << a, n, bits): out inside the
        # vector searched one element below it
        n = data.draw(st.integers(0, 10))
        bits, out = (data.draw(st.integers(0, (1 << (1 << n)) - 1)) for _ in range(2))
        have = bits | out
        below_free = naive_no_member_below(n, set(naive_iter_bits(have)))
        assert setcube._minimal_block(have, n, out) == out & sum(1 << m for m in below_free)

    @given(upsets(max_n=5))
    def test_addable_matches_naive(self, fam):
        got = {m for m in range(1 << fam.n) if uc.addable_mask(fam) >> m & 1}
        assert got == naive_addable(fam.n, fam_to_set(fam))


class TestCombine:
    def test_intersect_dictators(self):
        from upcube.constructions import dictator

        both = dictator(5, 1) & dictator(5, 2)
        assert both.count == 8

    def test_union_example(self):
        from upcube.constructions import dictator, threshold

        assert (threshold(5, 3) | dictator(5, 1)).count == 21

    def test_complement(self):
        assert (~uc.empty_family(3)).count == 8 and ~~uc.empty_family(3) == uc.empty_family(3)

    def test_difference(self):
        from upcube.constructions import dictator

        assert (~uc.empty_family(5) - dictator(5, 1)).count == 16

    @given(upset_pairs())
    def test_de_morgan(self, pair):
        a, b = pair
        assert ~(a | b) == (~a) & (~b)

    @given(upset_pairs())
    def test_upset_intersection_closed(self, pair):
        a, b = pair
        assert uc.is_upward_closed(a & b)
        assert uc.is_upward_closed(a | b)


class TestMeasure:
    def test_examples(self):
        from upcube.constructions import dictator

        assert uc.measure(dictator(7, 1), Fraction(3, 8)) == Fraction(3, 8)
        assert uc.measure(~uc.empty_family(4), Fraction(2, 7)) == 1
        assert uc.measure(uc.empty_family(4), Fraction(2, 7)) == 0

    @given(families(), biases)
    def test_measure_matches_naive(self, fam, p):
        assert uc.measure(fam, p) == naive_measure(fam.n, fam_to_set(fam), p)

    @given(families())
    def test_uniform_consistency(self, fam):
        assert uc.measure(fam, HALF) == Fraction(fam.count, 1 << fam.n)

    @given(upsets(), biases, biases)
    def test_monotone_in_bias_for_upsets(self, fam, p, q):
        lo, hi = min(p, q), max(p, q)
        assert uc.measure(fam, lo) <= uc.measure(fam, hi)

    def test_level_counts(self):
        from upcube.constructions import threshold

        assert level_counts(threshold(4, 2)) == (0, 0, 6, 4, 1)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize(
        "p", [Fraction(0), Fraction(1), HALF, Fraction(1, 3), Fraction(3, 8), Fraction(5, 7)]
    )
    def test_level_weights_match_fraction_formula(self, n, p):
        weights, denom = level_weights(n, p)
        assert denom == p.denominator**n
        assert len(weights) == n + 1
        assert all(isinstance(w, int) for w in weights)
        assert [Fraction(w, denom) for w in weights] == [
            p**k * (1 - p) ** (n - k) for k in range(n + 1)
        ]
        assert sum(comb(n, k) * w for k, w in enumerate(weights)) == denom

    def test_level_weights_reject_bad_bias(self):
        with pytest.raises(InvalidBias):
            level_weights(3, Fraction(3, 2))

    @given(families())
    def test_half_is_one_popcount(self, fam):
        def refuse(n):
            raise AssertionError("level pass at p = 1/2")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setcube, "level_masks", refuse)
            assert uc.measure(fam, HALF) == Fraction(fam.count, 1 << fam.n)
            uc.occupancy(fam, fam, fam, HALF)


def block3(mp: pytest.MonkeyPatch, fam: uc.Family) -> uc.Family:
    """fam rebuilt as blocks of 2^3 points, with BLOCK patched to 3 on mp:
    a family keeps the blocks it was built with."""
    mp.setattr(setcube, "BLOCK", 3)
    return uc.Family(fam.n, fam.bits)


class TestBlockedKernels:
    """The kernels work on blocks of 2^min(n, BLOCK) bits.  With BLOCK
    patched to 3, the oracle properties reach 2^(n-3) blocks at n = 4..8,
    one block at n = 3 and, below it, one block of less than a byte."""

    blocked = st.integers(0, 8).flatmap(lambda n: families(n=n))
    blocked_upsets = st.integers(0, 8).flatmap(lambda n: upsets(n=n))

    @given(blocked)
    def test_closure_matches_naive(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            closed = uc.up_closure(block3(mp, fam))
        want = naive_up_closure(fam.n, fam_to_set(fam)) if fam.count else set()
        assert fam_to_set(closed) == want

    @given(blocked)
    def test_is_upward_closed_matches_naive(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            got = uc.is_upward_closed(block3(mp, fam))
        assert got == naive_is_upward_closed(fam.n, fam_to_set(fam))

    @pytest.mark.parametrize(
        "blocks, closed",
        [
            # every block closed, but block 0 is not inside block 1
            ([0b11111110, 0b11101000] * 2, False),
            # blocks 2, 3 hold {1} without {1,2}; every pair is nested
            ([0b10000000] * 2 + [0b10000010] * 2, False),
            ([0b11101000, 0b11111110] * 2, True),
        ],
        ids=["cross-pair fails", "one block open", "closed"],
    )
    def test_is_upward_closed_checks_each_distinct_block_once(self, monkeypatch, blocks, closed):
        monkeypatch.setattr(setcube, "BLOCK", 3)
        checked = []
        leaf = setcube._close_block
        monkeypatch.setattr(
            setcube, "_close_block", lambda bits, n: checked.append(bits) or leaf(bits, n)
        )
        fam = setcube.Family._of_blocks(5, blocks)
        pts = {c << 3 | i for c, blk in enumerate(blocks) for i in range(8) if blk >> i & 1}
        assert uc.is_upward_closed(fam) is closed is naive_is_upward_closed(5, pts)
        assert len(checked) == len(set(checked)) <= 2

    @given(blocked_upsets)
    def test_minimal_matches_naive(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            got = set(iter_bits(uc.minimal_mask(block3(mp, fam))))
        assert got == naive_minimal(fam_to_set(fam))

    @given(blocked)
    def test_minimal_mask_of_any_family(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            got = set(iter_bits(uc.minimal_mask(block3(mp, fam))))
        assert got == naive_no_member_below(fam.n, fam_to_set(fam))

    def test_minimal_mask_reads_the_input_below(self, monkeypatch):
        # 0, 8, 24 sit in blocks 0, 1, 3 of Q_5: 24 has 8 one element below
        # it, although 8 itself has a member below it
        monkeypatch.setattr(setcube, "BLOCK", 3)
        assert uc.minimal_mask(uc.family_from_points(5, [0, 8, 24])) == 1

    @given(blocked_upsets)
    def test_addable_matches_naive(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            got = set(iter_bits(uc.addable_mask(block3(mp, fam))))
        assert got == naive_addable(fam.n, fam_to_set(fam))

    @given(blocked, edge_biases)
    def test_measure_matches_naive(self, fam, p):
        with pytest.MonkeyPatch.context() as mp:
            got = uc.measure(block3(mp, fam), p)
        assert got == naive_measure(fam.n, fam_to_set(fam), p)

    @given(blocked)
    def test_level_counts_match_naive(self, fam):
        with pytest.MonkeyPatch.context() as mp:
            got = level_counts(block3(mp, fam))
        assert got == tuple(sum(m.bit_count() == k for m in fam) for k in range(fam.n + 1))

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(*[families(n=n)] * 3)), edge_biases)
    def test_occupancy_matches_naive(self, xyz, p):
        with pytest.MonkeyPatch.context() as mp:
            prof = uc.occupancy(*(block3(mp, f) for f in xyz), p)
        n, sets = xyz[0].n, [fam_to_set(f) for f in xyz]
        for i in range(4):
            cls = {m for m in range(1 << n) if sum(m in s for s in sets) == i}
            assert (prof.counts[i], prof.densities[i]) == (len(cls), naive_measure(n, cls, p))

    @pytest.mark.parametrize("n, block", [(5, 3), (17, 16)])
    def test_violation_only_across_blocks(self, monkeypatch, n, block):
        # Block 0 without its bottom point, every other block empty: each
        # block is closed on its own, but adding element block+1 to a
        # member of block 0 lands in block 1, outside the family.
        monkeypatch.setattr(setcube, "BLOCK", block)
        fam = uc.Family(n, full_mask(block) ^ 1)
        block_bottoms = sum(1 << (c << block) for c in range(1 << (n - block)))
        assert not uc.is_upward_closed(fam)
        closed = uc.up_closure(fam)
        assert closed.bits == full_mask(n) ^ block_bottoms
        assert uc.minimal_mask(fam) == sum(1 << (1 << i) for i in range(block))
        # the bottom point of block 0 is addable inside its block, not across
        assert uc.addable_mask(fam) == 1 << full_mask(n).bit_length() - 1
        p = Fraction(1, 3)
        assert uc.measure(fam, p) == (1 - p) ** (n - block) * (1 - (1 - p) ** block)
        assert uc.measure(closed, p) == 1 - (1 - p) ** block

    @pytest.mark.parametrize("n", [17, 18])
    def test_level_counts_at_block_match_naive(self, n):
        # random bits put 2^(n - BLOCK) distinct blocks on the top levels
        fam = uc.Family(n, random.Random(n).getrandbits(1 << n))
        assert setcube.BLOCK < n
        assert level_counts(fam) == naive_level_counts(fam)

    def test_n17_matches_leaves_on_whole_vector(self):
        n = 17
        assert setcube.BLOCK < n
        rng = random.Random(17)
        sparse = uc.family_from_points(n, [rng.randrange(1 << n) for _ in range(40)]).bits
        closed = setcube._close_block(sparse, n)
        broken = closed ^ 1 << (1 << n) - 1  # drop the top point
        for bits in (0, rng.getrandbits(1 << n), sparse, closed, broken, full_mask(n)):
            fam = uc.Family(n, bits)
            assert uc.up_closure(fam).bits == setcube._close_block(bits, n)
            assert uc.is_upward_closed(fam) == (setcube._close_block(bits, n) == bits)
            assert uc.minimal_mask(fam) == setcube._minimal_block(bits, n, bits)
            assert uc.addable_mask(fam) == setcube._addable_block(bits, n)
            for p in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 8)):
                weights, denom = level_weights(n, p)
                mass = sum(w * (bits & lm).bit_count() for w, lm in zip(weights, level_masks(n)))
                assert uc.measure(fam, p) == Fraction(mass, denom)


@st.composite
def point_lists(draw, n: int) -> list[int]:
    """Point masks of Q_n that put 0, 1, a few, SPARSE, or more than SPARSE
    points in one block (at the current BLOCK and SPARSE), with repeats, the
    point {} (mask 0), and points containing another through a low or a top
    coordinate; the empty list is in reach."""
    w = min(n, setcube.BLOCK)
    sizes = (0, 1, 3, setcube.SPARSE, setcube.SPARSE + 1, 3 * setcube.SPARSE)
    blocks = draw(st.lists(st.integers(0, (1 << (n - w)) - 1), max_size=4, unique=True))
    pts = []
    for c in blocks:
        k = draw(st.sampled_from(sizes))
        pts += [c << w | i for i in draw(st.lists(st.integers(0, (1 << w) - 1), min_size=k, max_size=k))]
    if pts and n:  # supersets one element up, repeats, and {}
        for p in draw(st.lists(st.sampled_from(pts), max_size=4)):
            pts.append(p | 1 << draw(st.integers(0, n - 1)))
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.booleans()):
        pts.append(0)
    return draw(st.permutations(pts))


class TestPointKernels:
    """close_points and minimal_points work from the listed points, block by
    block: a block with at most SPARSE points point by point, a fuller one
    by the coordinate loop."""

    @given(st.data())
    def test_match_family_kernels(self, data):
        n = data.draw(st.sampled_from((3, 16, 17, 21, 24)))
        pts = data.draw(point_lists(n))
        closed = uc.close_points(n, pts)
        want = uc.up_closure(uc.family_from_points(n, pts))
        assert closed == want and closed.count == want.count
        minimal = uc.minimal_points(closed, pts)
        assert minimal == uc.minimal_elements(want)
        assert minimal == sorted(naive_minimal(set(pts)), key=lambda m: (m.bit_count(), m))
        # membership by the subset rule: at each point, one element below
        # it, and at random points (the whole cube is too large above n = 3)
        probes = set(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20)))
        probes.update(p ^ 1 << j for p in pts for j in range(n) if p >> j & 1)
        for x in probes | set(pts):
            assert (x in closed) == any(is_superset_point(x, q) for q in pts)

    @given(st.data())
    def test_blocked_match_naive(self, data):
        # BLOCK = 3 and SPARSE = 2: both paths, in blocks of 8 points, at
        # sizes the naive oracles cover
        n = data.draw(st.integers(0, 8))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setcube, "BLOCK", 3)
            mp.setattr(setcube, "SPARSE", 2)
            pts = data.draw(point_lists(n))
            closed = uc.close_points(n, pts)
            minimal = uc.minimal_points(closed, pts)
            assert closed == uc.up_closure(uc.family_from_points(n, pts))
        assert fam_to_set(closed) == naive_up_closure(n, set(pts))
        assert minimal == sorted(naive_minimal(set(pts)), key=lambda m: (m.bit_count(), m))

    @given(st.data())
    def test_single_block_matches_naive(self, data):
        # n <= BLOCK: one block, its points unsorted, repeated, and on either
        # side of SPARSE
        n = data.draw(st.integers(0, 9))
        pts = data.draw(point_lists(n))
        closed = uc.close_points(n, pts)
        assert fam_to_set(closed) == naive_up_closure(n, set(pts))
        minimal = uc.minimal_points(closed, pts)
        assert minimal == sorted(naive_minimal(set(pts)), key=lambda m: (m.bit_count(), m))

    def test_full_single_block_matches_naive(self):
        n, rng = setcube.BLOCK, random.Random(16)
        pts = [rng.randrange(1 << n) for _ in range(setcube.SPARSE + 4)]
        pts += pts[::3]
        rng.shuffle(pts)
        closed = uc.close_points(n, pts)
        assert fam_to_set(closed) == naive_up_closure(n, set(pts))
        minimal = uc.minimal_points(closed, pts)
        assert minimal == sorted(naive_minimal(set(pts)), key=lambda m: (m.bit_count(), m))

    @pytest.mark.parametrize("n", [3, 16, 17, 24])
    def test_rejects_outside_points(self, n):
        for bad in (-1, 1 << n, 1 << (n + 3)):
            with pytest.raises(OutOfRange, match=f"point mask {bad} outside"):
                uc.close_points(n, iter([0, bad, -2]))


class TestBlockStorage:
    """A family is stored as its blocks only.  With BLOCK patched to 3, a
    family at n = 4..8 is 2^(n-3) blocks, and it must behave exactly like
    its twin's membership vector, the int oracle (the twin is drawn at the
    real BLOCK, where it is a single block)."""

    @given(st.integers(4, 8).flatmap(lambda n: families(n=n)), st.data())
    def test_block_backed_matches_bits_backed(self, twin, data):
        n, pts, bits = twin.n, fam_to_set(twin), twin.bits
        other_bits = data.draw(families(n=n)).bits
        p = data.draw(edge_biases)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(setcube, "BLOCK", 3)
            fam, other = uc.family_from_points(n, pts), uc.Family(n, other_bits)
            assert len(fam._blocks) == len(other._blocks) == 1 << (n - 3)
            assert fam == uc.Family(n, bits) and uc.Family(n, bits) == fam
            assert fam == uc.family_from_points(n, pts)
            assert (fam == other) == (bits == other_bits)
            assert fam.count == len(fam) == len(pts)
            assert list(fam) == sorted(pts)
            closed = uc.up_closure(fam)
            assert len(closed._blocks) == 1 << (n - 3)
            assert uc.is_upward_closed(fam) == naive_is_upward_closed(n, pts)
            assert uc.measure(fam, p) == naive_measure(n, pts, p)
            assert uc.measure(closed, p) == naive_measure(n, fam_to_set(closed), p)
            assert fam_to_set(closed) == (naive_up_closure(n, pts) if pts else set())
            want = naive_minimal(fam_to_set(closed))
            assert uc.minimal_elements(closed) == sorted(want, key=lambda m: (m.bit_count(), m))
            assert uc.minimal_mask(closed) == sum(1 << m for m in want)
            assert (fam | other).bits == bits | other_bits
            assert (fam & other).bits == bits & other_bits
            assert (fam ^ other).bits == bits ^ other_bits
            assert (fam - other).bits == bits & ~other_bits
            assert (~fam).bits == full_mask(n) ^ bits
            assert hash(fam) == hash(uc.Family(n, bits)) == hash(uc.family_from_points(n, pts))
            assert all((m in fam) == (m in pts) for m in range(-1, (1 << n) + 1))
            assert fam.bits == bits
        # joined blocks stay right once BLOCK is back to its value
        assert uc.Family(n, closed.bits) == uc.up_closure(twin)

    def test_bits_split_once_when_built(self, monkeypatch):
        # Family(n, bits) splits its vector when it is built; no kernel
        # splits or joins after that
        n = 17
        bits = random.Random(5).getrandbits(1 << n)
        split, splits = setcube._blocks, []
        monkeypatch.setattr(setcube, "_blocks", lambda n, bits: splits.append(n) or split(n, bits))
        fam = uc.Family(n, bits)
        assert splits == [n] and len(fam._blocks) == 2
        for name in ("_join", "_blocks"):
            monkeypatch.setattr(setcube, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        closed = uc.up_closure(fam)
        uc.is_upward_closed(fam)
        uc.minimal_elements(closed)
        uc.measure(fam, Fraction(1, 3))
        level_counts(fam)
        uc.occupancy(fam, closed, ~fam, Fraction(1, 3))
        uc.hk_defect(fam, closed, Fraction(1, 3))
        assert (fam | closed) - (fam ^ closed) == fam & closed
        assert hash(fam) == hash(fam) and fam == fam and fam.count == len(fam)
        assert (5 in fam) == bool(bits >> 5 & 1)
        assert next(iter(fam)) == (bits & -bits).bit_length() - 1
        monkeypatch.undo()
        assert fam.bits == bits and fam == uc.Family(n, bits)


class TestOccupancy:
    def test_triple_of_equal_upsets(self):
        from upcube.constructions import threshold

        z = threshold(4, 2)
        prof = uc.occupancy(z, z, z, HALF)
        assert prof.counts[1] == prof.counts[2] == 0

    @given(st.data())
    def test_counts_match_naive(self, data):
        n = data.draw(st.integers(0, 5))
        x, y, z = (data.draw(upsets(n=n)) for _ in range(3))
        prof = uc.occupancy(x, y, z, HALF)
        assert prof.counts == naive_occupancy_counts(
            n, fam_to_set(x), fam_to_set(y), fam_to_set(z)
        )

    @given(st.data())
    def test_profile_normalized(self, data):
        n = data.draw(st.integers(0, 5))
        x, y, z = (data.draw(upsets(n=n)) for _ in range(3))
        p = data.draw(biases)
        prof = uc.occupancy(x, y, z, p)
        assert sum(prof.densities) == 1
        assert sum(prof.counts) == 1 << n

    @given(st.data())
    def test_densities_match_naive_measure(self, data):
        n = data.draw(st.integers(0, 5))
        x, y, z = (data.draw(families(n=n)) for _ in range(3))
        p = data.draw(edge_biases)
        prof = uc.occupancy(x, y, z, p)
        sets = [fam_to_set(f) for f in (x, y, z)]
        for i in range(4):
            cls = {m for m in range(1 << n) if sum(m in s for s in sets) == i}
            assert prof.densities[i] == naive_measure(n, cls, p)
            assert prof.counts[i] == len(cls)

    @pytest.mark.parametrize("p", [HALF, Fraction(1, 3)])
    def test_normalization_checked(self, monkeypatch, p):
        monkeypatch.setattr(setcube, "_occupancy_block", lambda a, b, c, full: (0, 0, 0, 0))
        with pytest.raises(InvariantViolation):
            uc.occupancy(~uc.empty_family(3), ~uc.empty_family(3), ~uc.empty_family(3), p)

    def test_mass_normalization_checked(self, monkeypatch):
        monkeypatch.setattr(setcube, "_mass", lambda n, blocks, p: sum(map(int.bit_count, blocks)))
        with pytest.raises(InvariantViolation):
            uc.occupancy(~uc.empty_family(3), uc.empty_family(3), uc.empty_family(3), Fraction(1, 3))

    def test_normalization_check_survives_optimize_flag(self):
        code = (
            "from fractions import Fraction\n"
            "import upcube as uc\n"
            "from upcube import setcube\n"
            "from upcube.errors import InvariantViolation\n"
            "setcube._occupancy_block = lambda a, b, c, full: (0, 0, 0, 0)\n"
            "f = ~uc.empty_family(3)\n"
            "try:\n"
            "    uc.occupancy(f, f, f, Fraction(1, 3))\n"
            "except InvariantViolation:\n"
            "    raise SystemExit(7)\n"
        )
        src = str(Path(uc.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env={"PYTHONPATH": src}, capture_output=True
        )
        assert proc.returncode == 7, proc.stderr

    def test_occupancy_block_partition(self):
        from upcube.constructions import dictator, threshold

        x, y, z = dictator(4, 1), dictator(4, 2), threshold(4, 2)
        classes = setcube._occupancy_block(x.bits, y.bits, z.bits, full_mask(4))
        acc = 0
        for bits in classes:
            assert acc & bits == 0
            acc |= bits
        assert acc == (~uc.empty_family(4)).bits

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            uc.occupancy(~uc.empty_family(3), ~uc.empty_family(3), ~uc.empty_family(4))


class TestHKDefect:
    def test_self_pair(self):
        from upcube.constructions import dictator

        p = Fraction(2, 7)
        d = dictator(6, 1)
        assert uc.hk_defect(d, d, p) == p * (1 - p)

    def test_independent_dictators(self):
        from upcube.constructions import dictator

        assert uc.hk_defect(dictator(5, 1), dictator(5, 2), HALF) == 0

    def test_threshold_vs_dictator(self):
        from upcube.constructions import dictator, threshold

        assert uc.hk_defect(threshold(3, 2), dictator(3, 1), HALF) == Fraction(1, 8)

    @given(upset_pairs(), biases)
    def test_nonneg_for_upsets(self, pair, p):
        assert uc.hk_defect(*pair, p) >= 0

    def test_can_be_negative_without_monotonicity(self):
        a = uc.family_from_points(2, [0b01])
        b = uc.family_from_points(2, [0b10])
        assert uc.hk_defect(a, b, HALF) < 0


class TestTwoSetExactlyOne:
    def test_examples(self):
        from upcube.constructions import dictator

        x = dictator(5, 1)
        assert uc.measure(x ^ x, HALF) == 0
        assert uc.measure(dictator(5, 1) ^ dictator(5, 2), HALF) == HALF
        assert uc.measure(~uc.empty_family(3) ^ uc.empty_family(3), HALF) == 1

    @given(upset_pairs(), biases)
    def test_two_set_corollary(self, pair, p):
        x, y = pair
        a, b = uc.measure(x, p), uc.measure(y, p)
        assert uc.measure(x ^ y, p) <= a + b - 2 * a * b


class TestBitHelpers:
    @given(st.integers(0, (1 << 300) - 1))
    def test_bit_count_matches_numpy(self, x):
        assert x.bit_count() == popcount_numpy(x)

    @given(wide_masks)
    def test_select_bit(self, x):
        positions = naive_iter_bits(x)
        assert [select_bit(x, idx) for idx in range(len(positions))] == positions
        with pytest.raises(OutOfRange):
            select_bit(x, len(positions))

    def test_select_bit_rejects_out_of_range_index(self):
        # A negative index used to walk the mask forever, so the cases run in
        # a child process whose hang fails the test instead of the suite.
        code = (
            "from upcube.errors import OutOfRange\n"
            "from upcube.setcube import select_bit\n"
            "cases = [(0b1011, -1), (1 << 8, -1), (1 << 8, -10**9), (1 << 4096, 1), (-5, 0)]\n"
            "for mask, idx in cases:\n"
            "    try:\n"
            "        select_bit(mask, idx)\n"
            "    except OutOfRange:\n"
            "        continue\n"
            "    raise SystemExit(f'select_bit({mask}, {idx}) did not raise')\n"
        )
        src = str(Path(uc.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


class TestIterBits:
    @given(wide_masks)
    def test_matches_naive(self, x):
        assert list(iter_bits(x)) == naive_iter_bits(x)

    def test_rejects_negative_at_once(self):
        with pytest.raises(OutOfRange):
            next(iter_bits(-1))


class TestMaskTables:
    @pytest.mark.parametrize("n", [*range(13), 16])
    def test_absent_masks_match_naive(self, n):
        masks = absent_masks(n)
        assert len(masks) == n
        for i, mask in enumerate(masks):
            assert mask == sum(1 << m for m in range(1 << n) if not m >> i & 1)


class TestDimensionChecks:
    def test_check_dim(self):
        check_dim(0)
        check_dim(N_MAX)
        for n in (N_MAX + 1, 30, 10**12):
            with pytest.raises(TooLarge):
                check_dim(n)
        with pytest.raises(OutOfRange):
            check_dim(-1)

    @pytest.mark.parametrize(
        "build",
        [full_mask, absent_masks, level_masks, lambda n: uc.family_from_points(n, [])],
    )
    def test_tables_check_before_allocating(self, monkeypatch, build):
        # Under a lowered limit a function that skipped the check would
        # build a small table and return, failing the test instead of
        # allocating the 2^n-bit ints of a real oversized n.
        monkeypatch.setattr(setcube, "N_MAX", 3)
        for cached in (full_mask, absent_masks, level_masks):
            cached.cache_clear()
        with pytest.raises(TooLarge):
            build(4)
        with pytest.raises(OutOfRange):
            build(-1)


class TestRandomUpset:
    def test_seeded_and_closed(self):
        rng1, rng2 = random.Random(11), random.Random(11)
        a = uc.random_upset(8, rng1)
        b = uc.random_upset(8, rng2)
        assert a == b
        assert uc.is_upward_closed(a)

    def test_explicit_point_count(self):
        fam = uc.random_upset(4, random.Random(0), points=1)
        assert uc.is_upward_closed(fam)
        assert len(uc.minimal_elements(fam)) == 1
