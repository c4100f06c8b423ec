"""Exhaustive and heuristic search over triples of equal-count upsets.

The exhaustive path enumerates every upward closed family of Q_n (the
Dedekind-number-many monotone families, so n <= 5 for listing and n <= 4
for triples) and scans triples class-by-class.  The heuristic path
hill-climbs with count-preserving swap moves: insert a point whose
supersets are all present, delete a minimal point, accept on ties so
plateaus can be crossed.  An objective is a name in `OBJECTIVES` and a
bias p = a/b in (0, 1), checked by `_check_objective`.  Its comparisons
happen on integer numerators over b^n, so the climb never touches floats
or allocates Fractions in the hot loop; `stop_at` becomes an integer
ceiling before the loop starts.

A swap changes the occupancy of exactly two points, so the climb scores
it in O(1): the change follows from how many of the other two families
hold each point and from its level weight.  The climb keeps the running
score (and, for the min-part objective, the three part masses) and
rescores only the final best triple in full, as an explicit cross-check.
Until a move on a family is accepted, the climb reuses its addable mask,
its minimal mask and the removal mask of each point drawn from it, so the
many rejected moves run no mask kernel.  A removal mask is the minimal
mask with the drawn point's upper covers cleared (`_removal_mask`), so a
family runs `_minimal_block` at most once per accepted move, not once per
drawn point.  The climb is capped at n = 16, where a family is a single
block (see `setcube`), so it keeps each family as raw bits and calls the
whole-vector leaves `_addable_block` and `_minimal_block` directly.
`select_bit` is linear in the mask size, so up to n = `LIST_MAX_N` a
cached mask also lists its points and a draw indexes that list.  The
three draws per iteration are `getrandbits` calls made exactly as
`random.Random.randrange` makes them (`_below`, inlined), so a seed gives
the same climb as through `randrange`.  With `stop_at`, the search,
restarts included, ends at the first restart that reaches the value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Iterable

from .setcube import (
    Family,
    _addable_block,
    _mass,
    _minimal_block,
    check_bias,
    check_dim,
    iter_bits,
    level_weights,
    measure,
    random_upset,
    select_bit,
)
from .constructions import TripleSystem
from .errors import InvalidBias, InvalidParams, InvariantViolation, TooLarge
from .posets import _grow_upsets

DEDEKIND = (2, 3, 6, 20, 168, 7581)
ENUM_MAX_N = len(DEDEKIND) - 1
EXHAUSTIVE_MAX_N = 4
# One restart's start-up (three random upsets trimmed to the count) took
# 1.39 s, 5.14 s and 28.8 s at n = 15, 16, 17, about 5x per dimension.
SEARCH_MAX_N = 16
# Up to n = 6 a mask is one 64-bit word.  There the climb draws about 25
# times from each cached mask before its family moves, so listing the mask's
# points pays: at n = 5, four 2000-iteration climbs took 7.4 ms instead of
# 11.0 ms (2 CPUs, CPython 3.11).  At n = 9 a mask serves 2 to 5 draws, and
# listing each one made a 2000-iteration climb take 25.7 ms instead of 12.7.
LIST_MAX_N = 6

# What a search maximizes over a triple: "s1", the exactly-one density, or
# "min-part", the smallest of the three single-family parts.
OBJECTIVES = ("s1", "min-part")


def _check_objective(objective: str, p: Fraction) -> Fraction:
    """Reject an objective not in OBJECTIVES or a bias outside (0, 1);
    return the bias as a Fraction."""
    if objective not in OBJECTIVES:
        raise InvalidParams(f"unknown objective {objective!r}")
    p = check_bias(p)
    if not 0 < p < 1:
        raise InvalidBias("search bias must lie strictly inside (0, 1)")
    return p


def part_measures(triple: TripleSystem, p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Biased measures of the three exactly-one parts X\\(Y∪Z), Y\\(X∪Z), Z\\(X∪Y)."""
    x, y, z = triple.x, triple.y, triple.z
    return (measure(x - (y | z), p), measure(y - (x | z), p), measure(z - (x | y), p))


def _parts(n: int, p: Fraction, bx: int, by: int, bz: int) -> list[int]:
    """The three exactly-one parts' masses scaled by b^n at p = a/b: ints
    that an objective compares (`sum` for "s1", `min` for "min-part")."""
    return [_mass(n, [b], p) for b in (bx & ~by & ~bz, by & ~bx & ~bz, bz & ~bx & ~by)]


@dataclass(frozen=True)
class SearchResult:
    triple: TripleSystem
    value: Fraction
    iterations: int
    seed: int


def enumerate_upsets_qn(n: int) -> list[Family]:
    """Every upward closed family of Q_n exactly once (Dedekind many).

    Points are decided in descending-cardinality order; a point may join
    only once all its one-larger supersets are in.
    """
    check_dim(n)
    if n > ENUM_MAX_N:
        raise TooLarge(f"upset enumeration capped at n={ENUM_MAX_N}, got {n}")
    order = sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))
    above = [sum(1 << (m | 1 << j) for j in range(n) if not m >> j & 1) for m in range(1 << n)]
    out = [Family(n, bits) for bits in _grow_upsets(order, above)]
    if len(out) != DEDEKIND[n]:
        raise InvariantViolation(f"{len(out)} upsets of Q_{n}, expected {DEDEKIND[n]}")
    return out


def exhaustive_best(n: int, objective: str = "s1", p: Fraction = Fraction(1, 2)) -> SearchResult:
    """Exact maximum of the objective over all equal-count upset triples.

    Both objectives are symmetric in (X, Y, Z), so unordered triples with
    repetition suffice.
    """
    p = _check_objective(objective, p)
    if n > EXHAUSTIVE_MAX_N:
        raise TooLarge(f"exhaustive triple scan capped at n={EXHAUSTIVE_MAX_N}, got {n}")
    score = sum if objective == "s1" else min
    by_count: dict[int, list[Family]] = {}
    for fam in enumerate_upsets_qn(n):
        by_count.setdefault(fam.count, []).append(fam)
    triples = (
        t for count in sorted(by_count) for t in combinations_with_replacement(by_count[count], 3)
    )
    # max keeps the first triple with the best score
    scored = ((score(_parts(n, p, x.bits, y.bits, z.bits)), (x, y, z)) for x, y, z in triples)
    best_score, best_triple = max(scored, key=lambda pair: pair[0])
    triple = TripleSystem(*best_triple, label=f"exhaustive(n={n})")
    return SearchResult(
        triple=triple,
        value=Fraction(best_score, p.denominator**n),
        iterations=sum(comb(len(fams) + 2, 3) for fams in by_count.values()),  # 3-multisets
        seed=0,
    )


def check_search_dim(n: int) -> None:
    """Reject a dimension outside 0..SEARCH_MAX_N before anything 2^n-sized exists."""
    check_dim(n)
    if n > SEARCH_MAX_N:
        raise TooLarge(f"local search capped at n={SEARCH_MAX_N}, got {n}")


def _below(getrandbits, k: int) -> int:
    """rng.randrange(k) for an int k > 0, from rng.getrandbits: CPython draws
    getrandbits(k.bit_length()) until the value is below k, so this makes
    the same draws and leaves the generator in the same state."""
    width = k.bit_length()
    i = getrandbits(width)
    while i >= k:
        i = getrandbits(width)
    return i


def _removal_mask(minimal: int, a: int, n: int) -> int:
    """The minimal points of bits | a other than a, from minimal = the
    minimal mask of bits and an addable point a.  All upper covers of a are
    members, so a member is minimal in bits | a iff it is minimal in bits
    and no upper cover of a: at most n single-bit clears."""
    absent = ~a & ((1 << n) - 1)
    while absent:
        low = absent & -absent
        cover = a | low
        if minimal >> cover & 1:
            minimal ^= 1 << cover
        absent ^= low
    return minimal


# (mask, its count, its points in ascending order or None)
DrawTable = tuple[int, int, list[int] | None]


def _draw_table(mask: int, n: int) -> DrawTable:
    """A cached mask to draw points from.  At n <= LIST_MAX_N it also lists
    the mask's points, so each draw from it is an index, not a select_bit."""
    return mask, mask.bit_count(), list(iter_bits(mask)) if n <= LIST_MAX_N else None


def _random_upset_with_count(n: int, count: int, rng: random.Random) -> int:
    """Membership bits of a seeded random upset with exactly `count` members."""
    bits = random_upset(n, rng).bits
    getrandbits = rng.getrandbits
    while bits.bit_count() > count:
        mm = _minimal_block(bits, n, bits)
        bits &= ~(1 << select_bit(mm, _below(getrandbits, mm.bit_count())))
    while bits.bit_count() < count:
        am = _addable_block(bits, n)
        bits |= 1 << select_bit(am, _below(getrandbits, am.bit_count()))
    return bits


def local_search(
    n: int,
    rho_target: Fraction | int | str,
    objective: str = "s1",
    p: Fraction = Fraction(1, 2),
    seed: int = 0,
    max_iters: int = 100_000,
    stop_at: Fraction | None = None,
) -> SearchResult:
    """Seeded hill-climb over equal-count triples with swap moves.

    One move adds an insertable point and deletes a different minimal
    point of one family, preserving count and upward closure; moves that
    do not lower the score are accepted.  Deterministic per seed; returns
    the best triple seen (no optimality claim).  `stop_at` ends the climb
    early once the exact objective reaches the given value.

    The score is a running integer (see the module docstring); the best
    triple is rescored in full before returning, and a disagreement
    raises InvariantViolation.  The objective and n (against SEARCH_MAX_N)
    are checked before any mask table is built.
    """
    p = _check_objective(objective, p)
    check_search_dim(n)
    if max_iters < 0:
        raise InvalidParams(f"max_iters must be nonnegative, got {max_iters}")
    rho_target = check_bias(rho_target)
    count_f = rho_target * (1 << n)
    if count_f.denominator != 1:
        raise InvalidParams(f"rho={rho_target} is not a multiple of 2^-{n}")
    count = count_f.numerator
    rng = random.Random(seed)
    weights, denom = level_weights(n, p)
    s1 = objective == "s1"
    score = sum if s1 else min
    fams = [_random_upset_with_count(n, count, rng) for _ in range(3)]
    # Per family until it moves: the _draw_table of its addable mask, its
    # minimal mask, and per drawn point a the _draw_table of a's removal mask.
    addable: list[DrawTable | None] = [None, None, None]
    minimal: list[int | None] = [None, None, None]
    removable: list[dict[int, DrawTable]] = [{}, {}, {}]
    parts = _parts(n, p, *fams)
    cur = score(parts)
    best_score, best_fams = cur, tuple(fams)
    # No score exceeds the total mass b^n, so denom + 1 means "never stop".
    if stop_at is None:
        stop_score = denom + 1
    else:
        stop_frac = Fraction(stop_at) * denom
        stop_score = -(-stop_frac.numerator // stop_frac.denominator)
    # The three draws per iteration are _below(getrandbits, k), inlined.
    getrandbits = rng.getrandbits
    it = 0
    while it < max_iters and best_score < stop_score:
        it += 1
        f = getrandbits(2)
        while f == 3:
            f = getrandbits(2)
        bits = fams[f]
        add = addable[f]
        if add is None:
            add = addable[f] = _draw_table(_addable_block(bits, n), n)
        am, k, pts = add
        if not k:
            continue
        i = getrandbits(k.bit_length())
        while i >= k:
            i = getrandbits(k.bit_length())
        a = pts[i] if pts else select_bit(am, i)
        rem = removable[f].get(a)
        if rem is None:
            mm = minimal[f]
            if mm is None:
                mm = minimal[f] = _minimal_block(bits, n, bits)
            rem = removable[f][a] = _draw_table(_removal_mask(mm, a, n), n)
        mm, k, pts = rem
        if not k:
            continue
        i = getrandbits(k.bit_length())
        while i >= k:
            i = getrandbits(k.bit_length())
        r = pts[i] if pts else select_bit(mm, i)
        # a joins family f and r leaves it; g = fams[f - 2] and h = fams[f - 1]
        # are the other two (negative indices wrap).
        g, h = fams[f - 2], fams[f - 1]
        ga, ha, gr, hr = g >> a & 1, h >> a & 1, g >> r & 1, h >> r & 1
        ca, cr = ga + ha, gr + hr
        wa, wr = weights[a.bit_count()], weights[r.bit_count()]
        if s1:
            s = cur + wa * ((ca == 0) - (ca == 1)) + wr * ((cr == 1) - (cr == 0))
        else:
            new = parts.copy()
            if ca == 0:
                new[f] += wa
            elif ca == 1:
                new[f - 2 if ga else f - 1] -= wa
            if cr == 0:
                new[f] -= wr
            elif cr == 1:
                new[f - 2 if gr else f - 1] += wr
            s = min(new)
        if s >= cur:
            fams[f] = (bits | 1 << a) & ~(1 << r)
            addable[f] = minimal[f] = None
            removable[f] = {}
            cur = s
            if not s1:
                parts = new
            if s > best_score:
                best_score, best_fams = s, tuple(fams)
    if score(_parts(n, p, *best_fams)) != best_score:
        raise InvariantViolation(
            f"running score {best_score} disagrees with a full rescore (n={n}, seed={seed})"
        )
    triple = TripleSystem(
        *(Family(n, b) for b in best_fams), label=f"local(n={n},seed={seed})"
    )
    return SearchResult(
        triple=triple,
        value=Fraction(best_score, denom),
        iterations=it,
        seed=seed,
    )


def best_of_restarts(
    n: int,
    rho_target: Fraction | int | str,
    seeds: Iterable[int],
    objective: str = "s1",
    p: Fraction = Fraction(1, 2),
    max_iters: int = 100_000,
    stop_at: Fraction | None = None,
) -> SearchResult:
    """Best local_search outcome over the seeds, run in order (ties: smallest seed).

    Keeps only the best so far, so seeds may be any iterable; with `stop_at`,
    no further seed runs once the best value reaches it.
    """
    best: SearchResult | None = None
    for s in seeds:
        res = local_search(
            n, rho_target, objective, p, seed=s, max_iters=max_iters, stop_at=stop_at
        )
        if best is None or (res.value, -res.seed) > (best.value, -best.seed):
            best = res
        if stop_at is not None and best.value >= stop_at:
            break
    if best is None:
        raise InvalidParams("need at least one seed")
    return best
