"""Finite weighted posets: upset enumeration, correlation scans, occupancy.

Elements are labeled; the strict order is stored transitively closed as
one bitmask per element, of the elements above it.  Upsets are bitmasks
over element indices, so the same bit-twiddling style as the cube module
applies at miniature scale.
Weights are exact rationals summing to 1 — a probability measure on the
poset's points.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from .setcube import check_bias, iter_bits
from .errors import InvalidBias, InvalidParams, InvariantViolation, NotUpwardClosed, TooLarge

MAX_POSET = 20


@dataclass(frozen=True)
class WeightedPoset:
    """Labeled poset with a rational weight per element.

    `covers` may be any generating set of relations; the constructor
    closes them in one Warshall pass into `above`, where `above[i]` masks
    the elements strictly above element i, and rejects cycles.
    """

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    weights: tuple[Fraction, ...]
    above: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        idx = {e: i for i, e in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise InvalidParams("duplicate element labels")
        if len(self.weights) != len(self.elements):
            raise InvalidParams("need exactly one weight per element")
        if any(w < 0 for w in self.weights):
            raise InvalidParams("weights must be nonnegative")
        if sum(self.weights) != 1:
            raise InvalidParams("weights must sum to 1 exactly")
        k = len(self.elements)
        above = [0] * k
        for x, y in self.covers:
            if x not in idx or y not in idx:
                raise InvalidParams(f"cover ({x!r}, {y!r}) names unknown element")
            above[idx[x]] |= 1 << idx[y]
        for j in range(k):  # Warshall: step j adds the paths through j
            for i in range(k):
                if above[i] >> j & 1:
                    above[i] |= above[j]
        for i in range(k):
            if above[i] >> i & 1:
                raise InvalidParams(f"order relation has a cycle through {self.elements[i]!r}")
        object.__setattr__(self, "above", tuple(above))

    def __len__(self) -> int:
        return len(self.elements)

    def is_upset(self, mask: int) -> bool:
        return not any(mask >> i & 1 and up & ~mask for i, up in enumerate(self.above))

    def weight_of(self, mask: int) -> Fraction:
        return sum((self.weights[i] for i in iter_bits(mask)), Fraction(0))

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in iter_bits(mask))


def _grow_upsets(order: list[int], above: Sequence[int], stop: float = math.inf) -> list[int]:
    """The first `stop` upsets (all, if fewer) as bitmasks over element
    indices, in backtracking order.

    `order` lists the elements top-down (each after everything above it)
    and `above[i]` masks the elements above i.  An element may join only
    once `above[i]` is in, so no branch dead-ends and every leaf of the
    decision tree is a distinct upset.
    """
    found: list[int] = []

    def grow(pos: int, mask: int) -> None:
        if pos == len(order):
            found.append(mask)
            return
        i = order[pos]
        grow(pos + 1, mask)
        if above[i] & ~mask == 0 and len(found) < stop:
            grow(pos + 1, mask | 1 << i)

    grow(0, 0)
    return found


def enumerate_upsets(poset: WeightedPoset, most: int | None = None) -> list[int]:
    """All upward closed subsets as bitmasks, sorted by (size, mask).  If
    there are more than `most`, only most + 1 of them are built and
    returned, so a caller can refuse a count without listing it.

    Backtracks over the elements in ascending order of how many lie above
    them: a top-down order, since everything above i has fewer above it.
    """
    k = len(poset)
    if k > MAX_POSET:
        raise TooLarge(f"poset has {k} elements, limit {MAX_POSET}")
    above = poset.above
    order = sorted(range(k), key=lambda i: above[i].bit_count())
    stop = math.inf if most is None else most + 1
    return sorted(_grow_upsets(order, above, stop), key=lambda m: (m.bit_count(), m))


def diamond_poset(p: Fraction | int | str) -> WeightedPoset:
    """The five-point diamond a < p_1,p_2,p_3 < A with cube-matched weights.

    The weights ((1-p)^2/(1+p), p(1-p)/(1+p) each, 2p^2/(1+p)) make every
    upset's weight a plausible biased-cube density while the three
    two-element upsets {A, p_i} overlap pairwise only in A.
    """
    p = check_bias(p)
    if p == 0 or p == 1:
        raise InvalidBias("diamond poset needs 0 < p < 1")
    d = 1 + p
    w_a = (1 - p) ** 2 / d
    w_p = p * (1 - p) / d
    w_A = 2 * p**2 / d
    return WeightedPoset(
        elements=("a", "p1", "p2", "p3", "A"),
        covers=(("a", "p1"), ("a", "p2"), ("a", "p3"), ("p1", "A"), ("p2", "A"), ("p3", "A")),
        weights=(w_a, w_p, w_p, w_p, w_A),
    )


def poset_hk_defect(poset: WeightedPoset, u: int, v: int) -> Fraction:
    """w(U∩V) − w(U)w(V) for two upsets given as element bitmasks."""
    for m in (u, v):
        if not poset.is_upset(m):
            raise NotUpwardClosed(f"{poset.labels_of(m)} is not an upset")
    return poset.weight_of(u & v) - poset.weight_of(u) * poset.weight_of(v)


def poset_hk_scan(
    poset: WeightedPoset, upsets: Sequence[int] | None = None
) -> tuple[Fraction, tuple[int, int]]:
    """Minimum correlation defect over all ordered pairs of upsets, with witness.

    `upsets` defaults to `enumerate_upsets(poset)`, and must hold them all:
    the weight of U∩V is read from their table.  The defect is symmetric,
    so only pairs (u, v) with v at or after u are scanned.
    """
    weight = {u: poset.weight_of(u) for u in upsets or enumerate_upsets(poset)}
    pairs = combinations_with_replacement(weight.items(), 2)
    # min keeps the first pair with the least defect, which has u at or before v
    return min(
        ((weight[u & v] - wu * wv, (u, v)) for (u, wu), (v, wv) in pairs),
        key=lambda pair: pair[0],
    )


def poset_occupancy(
    poset: WeightedPoset, x: int, y: int, z: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Weighted (s_0, s_1, s_2, s_3): mass lying in exactly i of three upsets."""
    for m in (x, y, z):
        if not poset.is_upset(m):
            raise NotUpwardClosed(f"{poset.labels_of(m)} is not an upset")
    s = [Fraction(0)] * 4
    for i, w in enumerate(poset.weights):
        hits = (x >> i & 1) + (y >> i & 1) + (z >> i & 1)
        s[hits] += w
    if sum(s) != 1:
        raise InvariantViolation(f"occupancy classes carry total weight {sum(s)}, not 1")
    return tuple(s)


def poset_from_json(data: dict) -> WeightedPoset:
    try:
        elements = tuple(data["elements"])
        if len(elements) > MAX_POSET:  # before the order closure
            raise TooLarge(f"poset has {len(elements)} elements, limit {MAX_POSET}")
        return WeightedPoset(
            elements=elements,
            covers=tuple((x, y) for x, y in data["covers"]),
            weights=tuple(Fraction(w) for w in data["weights"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"bad poset description: {exc}") from None


def load_poset(path: str | Path) -> WeightedPoset:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise InvalidParams(f"bad poset file {path}: {exc}") from None
    return poset_from_json(data)
