import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import upcube as uc
from upcube.errors import (
    InvalidBias,
    InvalidParams,
    InvariantViolation,
    NotUpwardClosed,
    TooLarge,
)
from upcube.posets import (
    WeightedPoset,
    load_poset,
    poset_from_json,
)

from cube_strategies import open_biases
from oracles import naive_reachable

GRID = [Fraction(k, 32) for k in range(1, 32)]


def antichain(k: int) -> WeightedPoset:
    return WeightedPoset(
        elements=tuple(f"x{i}" for i in range(k)),
        covers=(),
        weights=(Fraction(1, k),) * k,
    )


def chain(k: int) -> WeightedPoset:
    return WeightedPoset(
        elements=tuple(f"c{i}" for i in range(k)),
        covers=tuple((f"c{i}", f"c{i+1}") for i in range(k - 1)),
        weights=(Fraction(1, k),) * k,
    )


class TestWeightedPoset:
    def test_transitive_closure(self):
        poset = chain(4)
        assert poset.above == (0b1110, 0b1100, 0b1000, 0)

    def test_transitive_closure_against_label_order(self):
        # c0 < c2 < c1 < c3: a single pass over i in label order misses c0 < c3
        covers = (("c0", "c2"), ("c2", "c1"), ("c1", "c3"))
        poset = WeightedPoset(("c0", "c1", "c2", "c3"), covers, (Fraction(1, 4),) * 4)
        assert poset.above == (0b1110, 0b1000, 0b1010, 0)

    @settings(max_examples=200)
    @given(st.data())
    def test_order_matches_naive_reachability(self, data):
        k = data.draw(st.integers(1, 8))
        index = st.integers(0, k - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=2 * k))
        if data.draw(st.booleans()):
            # acyclic: each pair runs up a shuffled order, often against label order
            perm = data.draw(st.permutations(range(k)))
            pairs = [(perm[min(a, b)], perm[max(a, b)]) for a, b in pairs if a != b]
        labels = tuple(f"e{i}" for i in range(k))
        covers = tuple((labels[a], labels[b]) for a, b in pairs)
        reach = naive_reachable(k, pairs)
        on_cycle = [i for i in range(k) if i in reach[i]]
        if on_cycle:
            with pytest.raises(InvalidParams, match=f"cycle through 'e{on_cycle[0]}'"):
                WeightedPoset(labels, covers, (Fraction(1, k),) * k)
            return
        poset = WeightedPoset(labels, covers, (Fraction(1, k),) * k)
        assert poset.above == tuple(sum(1 << j for j in r) for r in reach)
        upsets = [m for m in range(1 << k) if all(m >> b & 1 for a, b in pairs if m >> a & 1)]
        assert uc.enumerate_upsets(poset) == sorted(upsets, key=lambda m: (m.bit_count(), m))

    def test_cycle_rejected(self):
        with pytest.raises(InvalidParams, match="cycle through 'a'"):
            WeightedPoset(("x", "a", "b"), (("a", "b"), ("b", "a")), (Fraction(1, 3),) * 3)

    def test_weight_validation(self):
        with pytest.raises(InvalidParams):
            WeightedPoset(("a", "b"), (), (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(InvalidParams):
            WeightedPoset(("a", "b"), (), (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(InvalidParams):
            WeightedPoset(("a", "a"), (), (Fraction(1, 2),) * 2)
        with pytest.raises(InvalidParams):
            WeightedPoset(("a", "b"), (("a", "zzz"),), (Fraction(1, 2),) * 2)

    def test_json_round_trip(self, tmp_path):
        poset = uc.diamond_poset(Fraction(3, 8))
        data = {
            "elements": list(poset.elements),
            "covers": [list(c) for c in poset.covers],
            "weights": [str(w) for w in poset.weights],
        }
        assert poset_from_json(data) == poset
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        assert load_poset(path) == poset

    def test_bad_json(self):
        with pytest.raises(InvalidParams):
            poset_from_json({"elements": ["a"]})


class TestEnumerateUpsets:
    def test_small_shapes(self):
        assert len(uc.enumerate_upsets(antichain(3))) == 8
        assert len(uc.enumerate_upsets(chain(3))) == 4

    def test_diamond_has_ten(self):
        ups = uc.enumerate_upsets(uc.diamond_poset(Fraction(1, 2)))
        assert len(ups) == 10

    def test_each_is_upset_and_distinct(self):
        poset = uc.diamond_poset(Fraction(1, 3))
        ups = uc.enumerate_upsets(poset)
        assert len(set(ups)) == len(ups)
        assert all(poset.is_upset(m) for m in ups)

    def test_closed_under_intersection(self):
        poset = uc.diamond_poset(Fraction(2, 5))
        ups = set(uc.enumerate_upsets(poset))
        assert all(u & v in ups for u in ups for v in ups)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            uc.enumerate_upsets(antichain(21))

    @pytest.mark.parametrize("poset", [antichain(6), chain(6), uc.diamond_poset(Fraction(1, 3))])
    def test_most_stops_one_past(self, poset):
        ups = uc.enumerate_upsets(poset)
        for most in (0, 1, len(ups) // 2, len(ups) - 1, len(ups), len(ups) + 5):
            head = uc.enumerate_upsets(poset, most)
            assert len(head) == min(most + 1, len(ups))
            assert set(head) <= set(ups) and head == sorted(head, key=lambda m: (m.bit_count(), m))
        assert uc.enumerate_upsets(poset, len(ups)) == ups


class TestDiamondPoset:
    def test_weights_at_half(self):
        poset = uc.diamond_poset(Fraction(1, 2))
        assert poset.weights == (
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 3),
        )

    def test_weight_a_at_third(self):
        assert uc.diamond_poset(Fraction(1, 3)).weights[4] == Fraction(1, 6)

    @given(open_biases)
    def test_normalization(self, p):
        assert sum(uc.diamond_poset(p).weights) == 1

    def test_degenerate_bias_rejected(self):
        for p in (0, 1, Fraction(5, 4)):
            with pytest.raises(InvalidBias):
                uc.diamond_poset(p)

    @given(open_biases)
    def test_two_element_upsets_have_weight_p(self, p):
        poset = uc.diamond_poset(p)
        idx = {e: i for i, e in enumerate(poset.elements)}
        for i in (1, 2, 3):
            mask = 1 << idx["A"] | 1 << idx[f"p{i}"]
            assert poset.is_upset(mask)
            assert poset.weight_of(mask) == p


class TestHKScan:
    @pytest.mark.parametrize("p", GRID)
    def test_min_defect_nonneg_on_grid(self, p):
        md, _ = uc.poset_hk_scan(uc.diamond_poset(p))
        assert md >= 0

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 8), Fraction(5, 7)])
    def test_size_three_pair_defect_formula(self, p):
        poset = uc.diamond_poset(p)
        idx = {e: i for i, e in enumerate(poset.elements)}
        u = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p2"]
        v = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p3"]
        d = uc.poset_hk_defect(poset, u, v)
        assert d == p - (2 * p / (1 + p)) ** 2
        assert d == p * (1 - p) ** 2 / (1 + p) ** 2

    def test_pair_defect_at_half_is_1_18(self):
        poset = uc.diamond_poset(Fraction(1, 2))
        idx = {e: i for i, e in enumerate(poset.elements)}
        u = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p2"]
        v = 1 << idx["A"] | 1 << idx["p1"] | 1 << idx["p3"]
        assert uc.poset_hk_defect(poset, u, v) == Fraction(1, 18)

    def test_full_vs_any_is_zero(self):
        poset = uc.diamond_poset(Fraction(2, 5))
        full = (1 << 5) - 1
        for v in uc.enumerate_upsets(poset):
            assert uc.poset_hk_defect(poset, full, v) == 0

    def test_antichain_scan_goes_negative(self):
        md, (u, v) = uc.poset_hk_scan(antichain(2))
        assert md == Fraction(-1, 4)
        assert u != v

    @pytest.mark.parametrize("poset", [antichain(2), antichain(3), uc.diamond_poset(Fraction(1, 3))])
    def test_scan_witness_is_first_least_pair(self, poset):
        ups = uc.enumerate_upsets(poset)
        defects = [(uc.poset_hk_defect(poset, u, v), (u, v)) for u in ups for v in ups]
        least = min(d for d, _ in defects)
        assert uc.poset_hk_scan(poset) == next(pair for pair in defects if pair[0] == least)
        assert uc.poset_hk_scan(poset, ups) == uc.poset_hk_scan(poset)

    def test_non_upset_rejected(self):
        poset = uc.diamond_poset(Fraction(1, 2))
        with pytest.raises(NotUpwardClosed):
            uc.poset_hk_defect(poset, 0b00001, 0b11111)  # {a} alone is not an upset


class TestPosetOccupancy:
    def test_trivial_triples(self):
        poset = uc.diamond_poset(Fraction(1, 2))
        full = (1 << 5) - 1
        assert uc.poset_occupancy(poset, 0, 0, 0) == (1, 0, 0, 0)
        assert uc.poset_occupancy(poset, full, full, full) == (0, 0, 0, 1)

    @given(open_biases)
    def test_two_element_triple_realizes_lp_profile(self, p):
        poset = uc.diamond_poset(p)
        idx = {e: i for i, e in enumerate(poset.elements)}
        masks = [1 << idx["A"] | 1 << idx[f"p{i}"] for i in (1, 2, 3)]
        assert uc.poset_occupancy(poset, *masks) == uc.optimal_profile(p)

    @given(open_biases)
    def test_three_element_triple_gives_transposed_profile(self, p):
        poset = uc.diamond_poset(p)
        idx = {e: i for i, e in enumerate(poset.elements)}
        masks = [
            (1 << idx["A"]) | sum(1 << idx[f"p{j}"] for j in (1, 2, 3) if j != i)
            for i in (1, 2, 3)
        ]
        s = uc.poset_occupancy(poset, *masks)
        opt = uc.optimal_profile(p)
        assert s == (opt[0], opt[2], opt[1], opt[3])

    def test_rejects_non_upset(self):
        poset = uc.diamond_poset(Fraction(1, 2))
        with pytest.raises(NotUpwardClosed):
            uc.poset_occupancy(poset, 0b00001, 0, 0)

    def test_normalization_checked(self):
        poset = antichain(2)
        object.__setattr__(poset, "weights", (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(InvariantViolation):
            uc.poset_occupancy(poset, 0, 0, 0)
