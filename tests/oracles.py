"""Deliberately naive reference implementations.

Everything here works point-by-point on explicit mask sets with per-point
subset tests — no word-parallel tricks, no shared code with the library —
so agreement is meaningful.  Families cross the boundary as plain sets of
point masks.
"""

import random
import re
from fractions import Fraction

import numpy as np

from upcube.errors import OutOfRange, UpsetFormatError
from upcube.setcube import N_MAX, family_from_points, mask_from_elements, up_closure


def naive_iter_bits(mask: int) -> list[int]:
    """Set bit positions of a nonnegative int, by testing every position."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_elements(mask: int) -> tuple[int, ...]:
    """Ascending 1-based elements of the subset a point mask encodes."""
    return tuple(i + 1 for i in naive_iter_bits(mask))


def naive_level_counts(fam) -> tuple[int, ...]:
    """Number of members of each cardinality 0..n, point by point."""
    counts = [0] * (fam.n + 1)
    for m in naive_iter_bits(fam.bits):
        counts[m.bit_count()] += 1
    return tuple(counts)


def fam_to_set(fam) -> set[int]:
    return set(naive_iter_bits(fam.bits))


def is_superset_point(big: int, small: int) -> bool:
    return big & small == small


def naive_up_closure(n: int, pts: set[int]) -> set[int]:
    return {x for x in range(1 << n) if any(is_superset_point(x, m) for m in pts)}


def naive_is_upward_closed(n: int, pts: set[int]) -> bool:
    return all(
        x | 1 << j in pts for x in pts for j in range(n) if not x >> j & 1
    )


def naive_upsets_qn(n: int) -> list[set[int]]:
    """Every upset of Q_n as a set of point masks, in the order of a per-point
    backtracking: points decided by descending size (ties by mask), each
    joining only once all its one-larger supersets are in; leaves in
    depth-first order, the "leave out" branch first."""
    pts = sorted(range(1 << n), key=lambda m: (-m.bit_count(), m))
    out = []

    def grow(pos: int, bits: int) -> None:
        if pos == len(pts):
            out.append({m for m in pts if bits >> m & 1})
            return
        m = pts[pos]
        grow(pos + 1, bits)
        if all(bits >> (m | 1 << j) & 1 for j in range(n) if not m >> j & 1):
            grow(pos + 1, bits | 1 << m)

    grow(0, 0)
    return out


def naive_reachable(k: int, covers: list[tuple[int, int]]) -> list[set[int]]:
    """For each element i of 0..k-1, every j reached from i by one or more
    cover steps (i, j), found by a depth-first walk from i."""
    out = []
    for i in range(k):
        seen: set[int] = set()
        todo = [j for x, j in covers if x == i]
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(y for x, y in covers if x == j)
        out.append(seen)
    return out


def naive_no_member_below(n: int, pts: set[int]) -> set[int]:
    """Members with no member one element below them (any family)."""
    return {m for m in pts if not any(m >> j & 1 and m ^ 1 << j in pts for j in range(n))}


def naive_minimal(pts: set[int]) -> set[int]:
    return {
        m
        for m in pts
        if not any(o != m and is_superset_point(m, o) for o in pts)
    }


def naive_addable(n: int, pts: set[int]) -> set[int]:
    """Non-members whose insertion keeps the family upward closed."""
    return {
        x
        for x in range(1 << n)
        if x not in pts and naive_is_upward_closed(n, pts | {x})
    }


def naive_measure(n: int, pts: set[int], p: Fraction) -> Fraction:
    q = 1 - p
    return sum(
        (p ** m.bit_count() * q ** (n - m.bit_count()) for m in pts), Fraction(0)
    )


def naive_occupancy_counts(n: int, xs: set[int], ys: set[int], zs: set[int]):
    counts = [0, 0, 0, 0]
    for m in range(1 << n):
        counts[(m in xs) + (m in ys) + (m in zs)] += 1
    return tuple(counts)


def naive_pull_back(s_pts: set[int], m: int, i_pts: set[int], b: int) -> set[int]:
    out = set()
    block = (1 << b) - 1
    for x in range(1 << (b * m)):
        y = 0
        for j in range(m):
            if (x >> (j * b)) & block in i_pts:
                y |= 1 << j
        if y in s_pts:
            out.add(x)
    return out


def naive_topup(z_pts: set[int], pool_pts: set[int], target: int) -> set[int]:
    """z plus the first target - |z| pool points by (descending size, mask)."""
    order = sorted(pool_pts, key=lambda m: (-m.bit_count(), m))
    return z_pts | set(order[: target - len(z_pts)])


def naive_q(n: int, l: int, p: Fraction) -> Fraction:
    """Exactly-one density of the two-dictators-plus-patched-threshold triple,
    by brute-force occupancy over all 2^n points."""
    xs = {m for m in range(1 << n) if m & 1}
    ys = {m for m in range(1 << n) if m & 2}
    zs = {
        m
        for m in range(1 << n)
        if m.bit_count() > l or (m.bit_count() == l and not m & 3)
    }
    q = 1 - p
    total = Fraction(0)
    for m in range(1 << n):
        if (m in xs) + (m in ys) + (m in zs) == 1:
            total += p ** m.bit_count() * q ** (n - m.bit_count())
    return total


def popcount_numpy(x: int) -> int:
    """Foreign popcount: bytes -> numpy unpackbits -> sum."""
    if x == 0:
        return 0
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return int(np.unpackbits(raw).sum())


def naive_local_search(n, rho, kind, p, seed, max_iters, stop_at=None):
    """Reference hill climb: rescores the whole triple after every move.

    Makes the same seeded draws in the same order as `local_search`, but
    on plain point sets, with minimal/addable points found by one-step
    subset tests (exact for upsets) and each score summed point by point.
    kind is an objective name, "s1" or "min-part".  Returns (three point
    sets, exact value, iterations).
    """
    rng = random.Random(seed)
    count = rho * (1 << n)
    assert count.denominator == 1
    a, b = p.numerator, p.denominator
    weight = [a**k * (b - a) ** (n - k) for k in range(n + 1)]

    def minimal(pts):
        return sorted(
            m for m in pts if not any(m & ~(1 << j) in pts for j in range(n) if m >> j & 1)
        )

    def addable(pts):
        return sorted(
            x
            for x in range(1 << n)
            if x not in pts and all(x | 1 << j in pts for j in range(n) if not x >> j & 1)
        )

    def random_upset_with_count():
        gens = rng.randint(1, max(1, 1 << max(n - 1, 0)))
        pts = naive_up_closure(n, {rng.randrange(1 << n) for _ in range(gens)})
        while len(pts) > count:
            mins = minimal(pts)
            pts.remove(mins[rng.randrange(len(mins))])
        while len(pts) < count:
            adds = addable(pts)
            pts.add(adds[rng.randrange(len(adds))])
        return pts

    def score(fams):
        parts = [0, 0, 0]
        for m in range(1 << n):
            holders = [i for i in range(3) if m in fams[i]]
            if len(holders) == 1:
                parts[holders[0]] += weight[m.bit_count()]
        return sum(parts) if kind == "s1" else min(parts)

    fams = [random_upset_with_count() for _ in range(3)]
    cur = score(fams)
    best, best_fams = cur, fams
    it = 0
    while it < max_iters and not (stop_at is not None and Fraction(best, b**n) >= stop_at):
        it += 1
        f = rng.randrange(3)
        adds = addable(fams[f])
        if not adds:
            continue
        x = adds[rng.randrange(len(adds))]
        grown = fams[f] | {x}
        mins = [m for m in minimal(grown) if m != x]
        if not mins:
            continue
        r = mins[rng.randrange(len(mins))]
        trial = list(fams)
        trial[f] = grown - {r}
        s = score(trial)
        if s >= cur:
            fams, cur = trial, s
            if s > best:
                best, best_fams = s, trial
    return best_fams, Fraction(best, b**n), it


_HEADER = re.compile(r"^n\s*=\s*(\d+)$")


def naive_parse_upset(text: str, close: bool = True):
    """The .upset reader as it was before the label table: every line goes
    through int() token by token.  It is the reference for what the reader
    accepts and for every error message (it shares the library's mask and
    closure kernels, which have oracles of their own above)."""
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln]
    if not body:
        raise UpsetFormatError("missing 'n=<int>' header line")
    m = _HEADER.match(body[0])
    if not m:
        raise UpsetFormatError(f"bad header line {body[0]!r}, expected 'n=<int>'")
    n = int(m.group(1))
    if n > N_MAX:
        raise UpsetFormatError(f"n={n} exceeds N_MAX={N_MAX}")

    points = []
    for ln in body[1:]:
        if ln == "{}":
            points.append(0)
            continue
        try:
            elems = [int(tok) for tok in ln.split(",")]
        except ValueError:
            raise UpsetFormatError(f"unparseable generator line {ln!r}") from None
        if len(set(elems)) != len(elems):
            raise UpsetFormatError(f"duplicate element in generator line {ln!r}")
        try:
            points.append(mask_from_elements(elems, n))
        except OutOfRange as exc:
            raise UpsetFormatError(f"{exc} in generator line {ln!r}") from None
    raw = family_from_points(n, points)
    return up_closure(raw) if close else raw
