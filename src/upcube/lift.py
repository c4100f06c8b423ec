"""Block lifts between cubes and the exact-count greedy top-up.

A gadget (k, b) selects the first k points I of Q_b in descending size,
ties by ascending mask, and turns each width-b block of a Q_{bm} point
into one biased coordinate: the derived Q_m point has coordinate j set
iff block j (bits jb..jb+b-1) lies in I.  Pulling a family back through
this map multiplies its biased measure at p = k/2^b into a uniform
density, which is how a Q_7 triple at bias 3/8 becomes a Q_21 triple at
bias 1/2.

The lift is built in the storage blocks of setcube, never as one 2^n-bit
int.  I is upward closed by construction: every proper superset of a
point is larger, so it comes earlier in the order.  Closedness is checked
in one place only: `topup_to_count` checks its result once and caches the
verdict.  The pull-backs themselves are not checked (a preimage of an
upset under this map is an upset, but `pull_back` accepts any family),
and `build_q21` checks their counts against the base measures instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .setcube import (
    Family,
    OccupancyProfile,
    _width,
    check_dim,
    is_upward_closed,
    level_masks,
    measure,
    occupancy,
    select_bit,
)
from .constructions import TripleSystem, kahn_triple
from .errors import InvalidParams, InvariantViolation, NotUpwardClosed


def gadget(k: int, b: int) -> int:
    """Selector bits of the gadget (k, b): the first k points of Q_b in
    descending size, ties by ascending mask.  Each such prefix is upward
    closed, and the lift realizes the bias k/2^b."""
    if not 1 <= b <= 4:
        raise InvalidParams(f"block width {b} outside 1..4")
    if not 0 <= k <= 1 << b:
        raise InvalidParams(f"gadget size {k} outside 0..{1 << b}")
    order = sorted(range(1 << b), key=lambda d: (-d.bit_count(), d))
    return sum(1 << d for d in order[:k])


def _lift_bits(s_bits: int, m: int, i_bits: int, b: int) -> int:
    """Membership vector of the pull-back, by recursive halving on the top
    coordinate: chunk c of the output (top block = c) is the lift of S's
    upper or lower half according to whether c is in I."""
    if m == 0:
        return s_bits
    half = 1 << ((m - 1) * b)
    lo = _lift_bits(s_bits & ((1 << (1 << (m - 1))) - 1), m - 1, i_bits, b)
    hi = _lift_bits(s_bits >> (1 << (m - 1)), m - 1, i_bits, b)
    out = 0
    for c in range(1 << b):
        piece = hi if i_bits >> c & 1 else lo
        out |= piece << (c * half)
    return out


def pull_back(s: Family, k: int, b: int) -> Family:
    """Preimage of S under the block map Q_{b * S.n} -> Q_{S.n} of the gadget
    (k, b), as blocks.

    The low q = min(m, w // b) coordinates of S (w the block width) lift
    within one chunk of 2^(qb) points.  So the sub-vectors of S over them,
    one per setting t of its top coordinates, lift by `_lift_bits` to the
    only 2^(m-q) chunks there are.  The chunk at top gadget blocks H is the
    lift at t = h(H), where bit j of h(H) says whether gadget block j of H
    lies in the gadget's selector I.  Each storage block joins the 2^(w-qb)
    chunks it holds, and blocks made of the same chunks share one int.

    Exactly measure-preserving: count(result) = measure(S, k/2^b) * 2^(bm).
    The result is upward closed when S is, because I is upward closed, but
    it is not marked closed: S is not checked here.
    """
    i_bits = gadget(k, b)
    m = s.n
    n = b * m
    check_dim(n)
    w = _width(n)
    q = min(m, w // b)
    span = q * b  # a chunk covers the low `span` coordinates
    sub = (1 << (1 << q)) - 1
    # q is at most S's own block width, so each sub-vector lies in one block
    per_s = 1 << (_width(m) - q)
    vals = [blk >> (r << q) & sub for blk in s._blocks for r in range(per_s)]
    lifted = {v: _lift_bits(v, q, i_bits, b) for v in set(vals)}
    subs = [lifted[v] for v in vals]
    h = [0]  # h[H] for H over the top gadget blocks, ascending
    for j in range(m - q):
        h = [t | (i_bits >> d & 1) << j for d in range(1 << b) for t in h]
    per = 1 << (w - span)  # chunks per block
    joined: dict[tuple[int, ...], int] = {}
    blocks = []
    for c in range(0, len(h), per):
        key = tuple(h[c : c + per])
        if key not in joined:
            joined[key] = sum(subs[t] << (r << span) for r, t in enumerate(key))
        blocks.append(joined[key])
    return Family._of_blocks(n, blocks)


def topup_to_count(z0: Family, pool: Family, target: int) -> Family:
    """Grow z0 to exactly `target` points using pool points, largest first.

    Pool points are admitted in descending cardinality, ties by ascending
    mask; since every proper superset of a pool point is already in
    z0 ∪ pool, each prefix of this order is again upward closed.  The work
    runs per storage block: level k of block c is level k - popcount(c) of
    the block, and ascending masks are ascending blocks, then ascending
    positions inside one.

    Closedness is checked once, on the result, and the verdict is cached
    on it.  Only when it fails are the inputs checked, to name the cause:
    by the argument above, an open result means z0 or z0 ∪ pool is open.
    """
    z0._check_dim(pool)
    n, w = z0.n, _width(z0.n)
    base, extra = z0._blocks, pool._blocks
    if any(a & p for a, p in zip(base, extra)):
        raise InvalidParams("pool overlaps the base family")
    need = target - z0.count
    if not 0 <= need <= pool.count:
        raise InvalidParams(f"target {target} outside [{z0.count}, {z0.count + pool.count}]")
    out = list(base)
    masks = level_masks(w)
    # a lifted pool repeats a few blocks many times: each distinct block
    # meets each low level once
    ids: dict[int, int] = {}
    keys = [ids.setdefault(blk, len(ids)) for blk in extra]
    levels: dict[tuple[int, int], tuple[int, int]] = {}
    for k in range(n, -1, -1):
        for c, blk in enumerate(extra):
            if not need:
                break
            low = k - c.bit_count()
            if not blk or not 0 <= low <= w:
                continue
            key = keys[c], low
            if key not in levels:
                avail = blk & masks[low]
                levels[key] = avail, avail.bit_count()
            avail, got = levels[key]
            if got > need:  # partial level: the `need` smallest masks of this block
                avail &= (2 << select_bit(avail, need - 1)) - 1
                got = need
            out[c] |= avail
            need -= got
    z1 = Family._of_blocks(n, out)
    if not is_upward_closed(z1):
        if not is_upward_closed(z0):
            raise NotUpwardClosed("base family is not upward closed")
        raise NotUpwardClosed("a pool point has a superset outside base ∪ pool")
    return z1


@dataclass(frozen=True)
class LiftReport:
    """What a lift-and-top-up build knows beyond its triple: the base
    dimension, gadget width and bias, Z's count before the top-up, the
    pool it drew from, the target count and the occupancy profile."""

    m: int
    b: int
    bias: Fraction
    z_pre_count: int
    pool_count: int
    target: int
    profile: OccupancyProfile


def build_q21() -> tuple[TripleSystem, LiftReport]:
    """Lift the (n=7, l=3) triple at bias 3/8 into Q_21 and top Z up to
    density 3/8 exactly; the resulting uniform triple has exactly-one
    occupancy 937950/2^21 > 4/9."""
    k, b = 3, 3
    bias = Fraction(k, 1 << b)
    base = kahn_triple(7, 3)
    # a preimage commutes with ∩ and ∖, so the pool is one pull-back
    pool_base = (base.x & base.y) - base.z
    x, y, z0, pool = (pull_back(f, k, b) for f in (base.x, base.y, base.z, pool_base))
    # base certificate: each lifted count is its base mass at the bias
    lifts = (("X", base.x, x), ("Y", base.y, y), ("Z", base.z, z0), ("pool", pool_base, pool))
    for name, fam, lifted in lifts:
        predicted = measure(fam, bias) * (1 << lifted.n)
        if lifted.count != predicted:
            raise InvariantViolation(
                f"lifted {name} has {lifted.count} points, its base measure predicts {predicted}"
            )
    target = k << b * (base.n - 1)  # bias * 2^(bm)
    z1 = topup_to_count(z0, pool, target)
    profile = occupancy(x, y, z1, Fraction(1, 2))
    report = LiftReport(base.n, b, bias, z0.count, pool.count, target, profile)
    return TripleSystem(x, y, z1, label="q21"), report
