"""Named explicit families: dictators, thresholds, and the two hand-built
triples (the Q_5 counterexample and the two-dictators-plus-shifted-threshold
template), plus the closed-form occupancy value q(n, l, p) of the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .setcube import (
    Family,
    _width,
    check_bias,
    check_dim,
    family_from_points,
    is_upward_closed,
    level_masks,
    mask_from_elements,
    up_closure,
)
from .errors import InvalidParams, NotUpwardClosed, OutOfRange


@dataclass(frozen=True)
class TripleSystem:
    """Three upward closed families over the same cube."""

    x: Family
    y: Family
    z: Family
    label: str = ""

    def __post_init__(self) -> None:
        self.x._check_dim(self.y)
        self.x._check_dim(self.z)
        for name, fam in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if not is_upward_closed(fam):
                raise NotUpwardClosed(f"{name} of triple {self.label!r} is not upward closed")

    @property
    def n(self) -> int:
        return self.x.n


def _check_level(n: int, l: int) -> None:
    """The patch level of the parametric triple lies in 1..n-2."""
    if not 1 <= l <= n - 2:
        raise InvalidParams(f"need 1 <= l <= n-2, got n={n}, l={l}")


def dictator(n: int, i: int) -> Family:
    """All subsets containing element i; count 2^(n-1)."""
    if not 1 <= i <= n:
        raise OutOfRange(f"dictator coordinate {i} outside 1..{n}")
    return up_closure(family_from_points(n, [1 << (i - 1)]))


def threshold(n: int, l: int) -> Family:
    """All subsets of size at least l (l=0 full cube, l=n+1 empty)."""
    if not 0 <= l <= n + 1:
        raise OutOfRange(f"threshold level {l} outside 0..{n + 1}")
    check_dim(n)
    w = _width(n)
    masks = level_masks(w)
    # block c holds its points of level l - c.bit_count() and above
    tails = [sum(masks[max(l - top, 0) :]) for top in range(n - w + 1)]
    return Family._of_blocks(n, [tails[c.bit_count()] for c in range(1 << (n - w))])


def q5_triple() -> TripleSystem:
    """The modified-threshold triple in Q_5.

    X, Y are the dictators on elements 1 and 2; Z starts from the
    majority family (size >= 3), gains {3,4} and {3,5}, and loses
    {1,4,5} and {2,4,5}.  The trades keep Z upward closed with count 16
    and push the exactly-one occupancy count to 13 of 32.
    """
    n = 5
    add = family_from_points(n, [mask_from_elements(s, n) for s in ((3, 4), (3, 5))])
    drop = family_from_points(n, [mask_from_elements(s, n) for s in ((1, 4, 5), (2, 4, 5))])
    z = (threshold(n, 3) | add) - drop
    return TripleSystem(dictator(n, 1), dictator(n, 2), z, label="q5")


def kahn_triple(n: int, l: int) -> TripleSystem:
    """Two dictators plus a threshold family patched at level l.

    Z holds every set of size > l together with the size-l sets avoiding
    both dictator coordinates; adding those keeps Z upward closed while
    shifting mass into the exactly-one class.
    """
    _check_level(n, l)
    x, y = dictator(n, 1), dictator(n, 2)
    z = threshold(n, l + 1) | (threshold(n, l) - (x | y))
    return TripleSystem(x, y, z, label=f"kahn(n={n},l={l})")


def q_formula(n: int, l: int, p: Fraction) -> Fraction:
    """Closed form for the exactly-one density of kahn_triple at bias p.

    q = 2 sum_{k=1}^{l} C(n-2, k-1) p^k (1-p)^(n-k)
          + sum_{k=l}^{n-2} C(n-2, k) p^k (1-p)^(n-k)
    """
    _check_level(n, l)
    p = check_bias(p)
    q = 1 - p
    dict_part = sum(
        (comb(n - 2, k - 1) * p**k * q ** (n - k) for k in range(1, l + 1)), Fraction(0)
    )
    z_part = sum((comb(n - 2, k) * p**k * q ** (n - k) for k in range(l, n - 1)), Fraction(0))
    return 2 * dict_part + z_part


def qcurve(n: int, l: int, p_grid: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """q_formula sampled along a grid of biases."""
    return [(p, q_formula(n, l, p)) for p in map(check_bias, p_grid)]
