"""Block lifts between cubes and the exact-count greedy top-up.

A gadget (b, I) with I upward closed in Q_b turns each width-b block of
a Q_{bm} point into one biased coordinate: the derived Q_m point has
coordinate j set iff block j (bits jb..jb+b-1) lies in I.  Pulling a
family back through this map multiplies its biased measure at
p = |I|/2^b into a uniform density, which is how a Q_7 triple at bias
3/8 becomes a Q_21 triple at bias 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .setcube import (
    Family,
    OccupancyProfile,
    check_dim,
    is_upward_closed,
    level_masks,
    occupancy,
    up_closure,
)
from .constructions import ConstructionParams, TripleSystem, kahn_triple
from .errors import InvalidParams, InvariantViolation, NotUpwardClosed


@dataclass(frozen=True)
class LiftGadget:
    """Block width b and an upward closed selector family I over Q_b."""

    b: int
    i_fam: Family

    def __post_init__(self) -> None:
        if not 1 <= self.b <= 4:
            raise InvalidParams(f"block width {self.b} outside 1..4")
        if self.i_fam.n != self.b:
            raise InvalidParams(f"selector lives in Q_{self.i_fam.n}, expected Q_{self.b}")
        if not is_upward_closed(self.i_fam):
            raise NotUpwardClosed("gadget selector must be upward closed")


def gadget_bias(g: LiftGadget) -> Fraction:
    """The bias the lift realizes: |I| / 2^b exactly."""
    return Fraction(g.i_fam.count, 1 << g.b)


def three_eighths_gadget() -> LiftGadget:
    """b=3 selector {{1,2},{1,3},{1,2,3}}: the smallest gadget of bias 3/8."""
    return LiftGadget(3, up_closure(Family(3, (1 << 0b011) | (1 << 0b101))))


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


def pull_back(s: Family, g: LiftGadget) -> Family:
    """Preimage of S under the block map Q_{g.b * S.n} -> Q_{S.n}.

    Exactly measure-preserving: count(result) = measure(S, gadget_bias) * 2^(bm).
    Upward closedness of S transports to the result because I is upward closed.
    """
    n = g.b * s.n
    check_dim(n)
    return Family(n, _lift_bits(s.bits, s.n, g.i_fam.bits, g.b))


def topup_to_count(z0: Family, pool: Family, target: int) -> Family:
    """Grow z0 to exactly `target` points using pool points, largest first.

    Pool points are admitted in descending cardinality, ties by ascending
    mask; since every proper superset of a pool point is already in
    z0 ∪ pool, each prefix of this order is again upward closed.
    """
    z0._check_dim(pool)
    n = z0.n
    if z0.bits & pool.bits:
        raise InvalidParams("pool overlaps the base family")
    if not is_upward_closed(z0):
        raise NotUpwardClosed("base family is not upward closed")
    if not is_upward_closed(z0 | pool):
        raise NotUpwardClosed("a pool point has a superset outside base ∪ pool")
    need = target - z0.count
    if not 0 <= need <= pool.count:
        raise InvalidParams(f"target {target} outside [{z0.count}, {z0.count + pool.count}]")
    taken = 0
    for k in range(n, -1, -1):
        if not need:
            break
        avail = pool.bits & level_masks(n)[k]
        c = avail.bit_count()
        if c <= need:
            taken |= avail
            need -= c
            continue
        # partial level: the `need` smallest masks form a prefix of the
        # bit vector; binary-search the shortest prefix holding them.
        lo, hi = 0, 1 << n
        while lo < hi:
            mid = (lo + hi) // 2
            if (avail & ((1 << mid) - 1)).bit_count() >= need:
                hi = mid
            else:
                lo = mid + 1
        taken |= avail & ((1 << lo) - 1)
        need = 0
    return Family(n, z0.bits | taken)


@dataclass(frozen=True)
class LiftReport:
    """Exact bookkeeping of a lift-and-top-up build."""

    m: int
    b: int
    n: int
    bias: Fraction
    x_count: int
    y_count: int
    z_pre_count: int
    pool_count: int
    target: int
    deficit: int
    z_post_count: int
    profile: OccupancyProfile

    def __post_init__(self) -> None:
        if self.n != self.b * self.m:
            raise InvariantViolation(f"lifted dimension {self.n} != {self.b} * {self.m}")
        if not self.deficit == self.target - self.z_pre_count >= 0:
            raise InvariantViolation(
                f"deficit {self.deficit} != target {self.target} - z_pre {self.z_pre_count} >= 0"
            )
        if self.pool_count < self.deficit:
            raise InvariantViolation(f"pool {self.pool_count} cannot cover deficit {self.deficit}")


def build_q21() -> tuple[TripleSystem, LiftReport]:
    """Lift the (n=7, l=3) triple at bias 3/8 into Q_21 and top Z up to
    density 3/8 exactly; the resulting uniform triple has exactly-one
    occupancy 937950/2^21 > 4/9."""
    g = three_eighths_gadget()
    base = kahn_triple(ConstructionParams(7, 3, gadget_bias(g)))
    x = pull_back(base.x, g)
    y = pull_back(base.y, g)
    z0 = pull_back(base.z, g)
    pool = pull_back(base.x & base.y, g) - z0
    target_density = gadget_bias(g) * (1 << x.n)
    if target_density.denominator != 1:
        raise InvariantViolation(f"target count {target_density} is not an integer")
    target = target_density.numerator
    z1 = topup_to_count(z0, pool, target)
    triple = TripleSystem(x, y, z1, label="q21")
    profile = occupancy(x, y, z1, Fraction(1, 2))
    report = LiftReport(
        m=base.n,
        b=g.b,
        n=x.n,
        bias=gadget_bias(g),
        x_count=x.count,
        y_count=y.count,
        z_pre_count=z0.count,
        pool_count=pool.count,
        target=target,
        deficit=target - z0.count,
        z_post_count=z1.count,
        profile=profile,
    )
    return triple, report
