"""Dense bit-vector engine for set systems on the subset cube Q_n.

A family over Q_n (all subsets of {1..n}) is a vector of 2^n membership
bits: bit m is set iff the subset with characteristic mask m belongs to
the family.  Element i of the ground set is mask bit i-1, so adding
element i to a subset moves its membership bit up by 2^(i-1).
This makes every structural operation (closure, minimality, boolean
algebra) a handful of word-parallel shift/and/or passes instead of a
per-point scan.

A family is stored only as 2^(n-w) blocks of 2^w bits, w = min(n, BLOCK)
and BLOCK = 16 (8 KiB), so a cube of n <= BLOCK is a single block, the
whole vector.  Block c holds the points whose top n - w coordinates spell
c.  The boolean operators, counts and occupancy classes pair the blocks of
their operands; the coordinate-loop kernels (closure, closedness, minimal
and addable masks, biased measure) run the low w coordinates inside each
block, and each top coordinate pairs whole blocks (block c, block c plus
that coordinate).  `Family(n, bits)` splits its vector once, when built,
and `Family.bits` joins the blocks on each read; no kernel does either,
but `minimal_mask` and `addable_mask` return their result joined, as an int.
The point-list kernels (`close_points`, `minimal_points`, and
`family_from_points` above BLOCK) build only the blocks that hold a point.

Measures and biases are `fractions.Fraction` values throughout; floats
never enter any computation here.  A measure at bias a/b is one exact
integer sum of level weights a^k (b-a)^(n-k) over member popcounts,
divided by b^n once at the end.
"""

from __future__ import annotations

import operator
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

from .errors import (
    DimensionMismatch,
    InvalidBias,
    InvariantViolation,
    NotUpwardClosed,
    OutOfRange,
    TooLarge,
)

N_MAX = 24

# The widest block: 2^BLOCK bits (8 KiB, cache resident); see the module
# docstring and _width.
BLOCK = 16

HALF = Fraction(1, 2)

PointMask = int


def check_dim(n: int) -> None:
    """Reject a cube dimension outside 0..N_MAX before anything 2^n-sized exists."""
    if n > N_MAX:
        raise TooLarge(f"dimension {n} exceeds N_MAX={N_MAX}")
    if n < 0:
        raise OutOfRange(f"dimension {n} is negative")


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    """Membership vector of the family containing every subset of [n]."""
    check_dim(n)
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def absent_masks(n: int) -> tuple[int, ...]:
    """absent_masks(n)[i] marks the points whose mask has bit i clear.

    Built from absent_masks(n - 1) as level_masks is: each mask repeats
    once above the half 2^(n-1), and the new coordinate's mask is that
    half.  (A closed form, full_mask(n) // ((1 << (1 << i)) + 1), is one
    division per mask but quadratic in 2^n on CPython: 6 ms at n = 16.)
    """
    check_dim(n)
    if n == 0:
        return ()
    shift = 1 << (n - 1)
    return (*(m | m << shift for m in absent_masks(n - 1)), full_mask(n - 1))


@lru_cache(maxsize=None)
def level_masks(n: int) -> tuple[int, ...]:
    """level_masks(n)[k] marks the points whose mask has exactly k set bits."""
    check_dim(n)
    if n == 0:
        return (1,)
    prev = level_masks(n - 1)
    shift = 1 << (n - 1)
    out = [prev[0]]
    for k in range(1, n):
        out.append(prev[k] | (prev[k - 1] << shift))
    out.append(prev[n - 1] << shift)
    return tuple(out)


def check_bias(p: Fraction | int | str) -> Fraction:
    """Validate and normalize a bias to a Fraction in [0, 1]."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InvalidBias(f"bias {p} outside [0, 1]")
    return p


def mask_from_elements(elements: Iterable[int], n: int) -> PointMask:
    """Bitmask of a subset given by its elements (1-based, within [n])."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise OutOfRange(f"element {e} outside 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a nonnegative int, ascending.

    One pass over the 64-bit words of mask, so each set bit costs O(1)
    instead of a rewrite of the whole int.
    """
    if mask < 0:
        raise OutOfRange("iter_bits needs a nonnegative mask")
    data = mask.to_bytes(-(-mask.bit_length() // 64) * 8, sys.byteorder)
    words = memoryview(data).cast("Q")  # native-endian words
    if sys.byteorder == "big":
        words = words[::-1]
    base = 0
    for word in words:
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        base += 64


def select_bit(mask: int, idx: int) -> int:
    """Position of the idx-th (ascending, 0-based) set bit of mask.

    Halves the mask by popcount down to one 64-bit word, then clears its
    lowest set bit idx times: linear in the size of the mask.
    """
    if mask < 0 or not 0 <= idx < mask.bit_count():
        raise OutOfRange(f"bit index {idx} outside the population of mask")
    base = 0
    while mask.bit_length() > 64:
        half = mask.bit_length() >> 1
        low = mask & ((1 << half) - 1)
        c = low.bit_count()
        if idx < c:
            mask = low
        else:
            idx -= c
            mask >>= half
            base += half
    while idx:
        mask &= mask - 1
        idx -= 1
    return base + (mask & -mask).bit_length() - 1


class Family:
    """A set system over Q_n, held as the blocks of its 2^n-bit membership
    vector (see the module docstring).

    Immutable.  `bits` joins the blocks on each read and is not cached; the
    count and the closedness verdict are cached on the family.
    """

    __slots__ = ("_n", "_blocks", "_count", "_upward_closed")

    def __init__(self, n: int, bits: int) -> None:
        check_dim(n)  # before anything 2^n-sized exists
        if bits < 0 or bits.bit_length() > 1 << n:
            raise OutOfRange(f"membership vector does not fit in Q_{n}")
        self._n, self._blocks = n, _blocks(n, bits)
        self._count = self._upward_closed = None

    @classmethod
    def _of_blocks(cls, n: int, blocks: list[int]) -> "Family":
        """The family of a block list; the kernels build blocks in range."""
        fam = cls.__new__(cls)
        fam._n, fam._blocks = n, blocks
        fam._count = fam._upward_closed = None
        return fam

    @property
    def n(self) -> int:
        return self._n

    @property
    def bits(self) -> int:
        return _join(self._n, self._blocks)

    @property
    def count(self) -> int:
        if self._count is None:
            self._count = sum(blk.bit_count() for blk in self._blocks)
        return self._count

    def __repr__(self) -> str:
        return f"Family(n={self._n}, bits={self.bits:#x})"  # hex has no digit limit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self._n == other._n and self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash((self._n, *self._blocks))

    def __contains__(self, point: PointMask) -> bool:
        c, i = divmod(point, 1 << _width(self._n))  # block c, position i
        return 0 <= point < 1 << self._n and bool(self._blocks[c] >> i & 1)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[PointMask]:
        return _iter_blocks(self._n, self._blocks)

    def _check_dim(self, other: "Family") -> None:
        if self._n != other._n:
            raise DimensionMismatch(f"Q_{self._n} vs Q_{other._n}")

    def _zip(self, other: "Family", op) -> "Family":
        """The family whose blocks are op of the two families' blocks, pairwise."""
        self._check_dim(other)
        return Family._of_blocks(self._n, list(map(op, self._blocks, other._blocks)))

    def __or__(self, other: "Family") -> "Family":
        return self._zip(other, operator.or_)

    def __and__(self, other: "Family") -> "Family":
        return self._zip(other, operator.and_)

    def __xor__(self, other: "Family") -> "Family":
        return self._zip(other, operator.xor)

    def __sub__(self, other: "Family") -> "Family":
        return self._zip(other, lambda a, b: a & ~b)

    def __invert__(self) -> "Family":
        full = full_mask(_width(self._n))
        return Family._of_blocks(self._n, [full ^ blk for blk in self._blocks])


def empty_family(n: int) -> Family:
    check_dim(n)
    return Family._of_blocks(n, [0] * (1 << (n - _width(n))))


def family_from_points(n: int, points: Iterable[PointMask]) -> Family:
    """Family containing exactly the given point masks (no closure taken).

    Above BLOCK only the blocks that hold a point are built.
    """
    check_dim(n)
    w = _width(n)
    if w < n:
        blocks = [0] * (1 << (n - w))
        for c, pts in _point_blocks(n, list(points)):
            blocks[c] = _block_of(pts, w)
        return Family._of_blocks(n, blocks)
    size = 1 << n
    buf = bytearray(max(1, size >> 3))
    for p in points:
        if not 0 <= p < size:
            raise OutOfRange(f"point mask {p} outside Q_{n}")
        buf[p >> 3] |= 1 << (p & 7)
    return Family._of_blocks(n, _split(n, buf))


# A block with at most SPARSE listed points is closed, and its minimal points
# found, point by point; a fuller block runs the coordinate loop.  Counted in
# ANDs of two 2^w-bit blocks (w = BLOCK = 16, 8 KiB): the loop is w passes of
# an AND, a shift and an OR, and a shift copies the whole block, so a pass
# costs about 8 ANDs and the loop about 8w = 128.  A point's principal upset
# is one AND per element among its low w coordinates, w/2 = 8 for a typical
# point, plus one OR into the block: about 9.  The loop wins past 128/9, about
# 14 points.  The point path's minimality check (the block's other points,
# then one AND per top coordinate) costs less than its closure, so one cut
# at 16 serves both.
SPARSE = 16


def _point_blocks(n: int, points: list[PointMask]) -> list[tuple[int, list[PointMask]]]:
    """The point masks grouped by storage block: (block c, its points) for
    each block holding one, c ascending, repeats kept; OutOfRange for a
    point outside Q_n.  A single block (n <= BLOCK) keeps the points as
    given; above BLOCK each block's points are ascending."""
    if points and not (0 <= min(points) and max(points) < 1 << n):
        bad = next(p for p in points if not 0 <= p < 1 << n)
        raise OutOfRange(f"point mask {bad} outside Q_{n}")
    w = _width(n)
    if w == n:  # a single block needs no slicing
        return [(0, points)] if points else []
    pts = sorted(points)  # then each block is a slice
    cuts = [bisect_left(pts, c << w) for c in range(1 << (n - w))] + [len(pts)]
    return [(c, pts[a:b]) for c, (a, b) in enumerate(pairwise(cuts)) if a < b]


def _block_of(points: list[PointMask], w: int) -> int:
    """The 2^w-bit block holding the given points of one block."""
    buf = bytearray(max(1, (1 << w) >> 3))
    last = len(buf) - 1  # the block's byte positions, a power of two minus one
    for p in points:
        buf[p >> 3 & last] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=None)
def _present_masks(w: int) -> tuple[int, ...]:
    """_present_masks(w)[j] marks the points of a 2^w-bit block whose mask
    has bit j set: the principal upset of the point 1 << j."""
    full = full_mask(w)
    return tuple(full ^ absent for absent in absent_masks(w))


def close_points(n: int, points: Iterable[PointMask]) -> Family:
    """up_closure(family_from_points(n, points)), built block by block from
    the points: a block with at most SPARSE of them is the OR of their
    principal upsets (each an AND of the present masks of its low
    coordinates), a fuller one runs up_closure's coordinate loop, and a
    block without points costs nothing until the top coordinates pair the
    blocks, as in up_closure."""
    check_dim(n)
    w = _width(n)
    blocks = [0] * (1 << (n - w))
    full, present, low = full_mask(w), _present_masks(w), (1 << w) - 1
    for c, pts in _point_blocks(n, list(points)):
        if len(pts) > SPARSE:
            blocks[c] = _close_block(_block_of(pts, w), w)
            continue
        blk = 0
        for p in pts:
            up, i = full, p & low
            while i:
                bit = i & -i
                up &= present[bit.bit_length() - 1]
                i ^= bit
            blk |= up
        blocks[c] = blk
    return _close_across(n, blocks)


def minimal_points(closed: Family, points: Iterable[PointMask]) -> list[PointMask]:
    """minimal_elements(closed) for closed = close_points(closed.n, points),
    sorted by (size, mask), found among the points.

    Every minimal member of a closure is one of its points, and a point is
    minimal iff no other point lies inside it.  A point inside p, of block
    c, lies in block c or inside p minus some top coordinate t of c, that
    is, at p's low position in the closed block c - t.  A block with at
    most SPARSE points checks each of them so, and a fuller block runs
    minimal_mask's passes on its closed block.
    """
    n, w = closed.n, _width(closed.n)
    blocks = closed._blocks
    tops = [1 << t for t in range(n - w)]
    low = (1 << w) - 1
    out = []
    for c, pts in _point_blocks(n, list(points)):
        below = [blocks[c ^ t] for t in tops if c & t]
        if len(pts) > SPARSE:
            found = _minimal_in_block(blocks[c], below, w)
            out.extend(map((c << w).__add__, iter_bits(found)))
            continue
        own = set(pts)
        for p in own:
            bit = 1 << (p & low)
            if not any(q != p and q & p == q for q in own) and not any(b & bit for b in below):
                out.append(p)
    out.sort()  # then a stable sort by size keeps ties in mask order
    return sorted(out, key=int.bit_count)


def _width(n: int) -> int:
    """Block width at dimension n: Q_n is 2^(n - width) blocks of 2^width
    points, so a cube of n <= BLOCK is a single block."""
    return min(n, BLOCK)


def _split(n: int, data: bytes | bytearray) -> list[int]:
    """The blocks of a little-endian membership vector of Q_n given as bytes."""
    top = n - _width(n)
    if not top:
        return [int.from_bytes(data, "little")]
    step = len(data) >> top  # bytes per block
    view = memoryview(data)
    return [int.from_bytes(view[i : i + step], "little") for i in range(0, len(data), step)]


def _blocks(n: int, bits: int) -> list[int]:
    """Split a 2^n-bit vector into its blocks (see _width): block c holds
    the points whose top coordinates spell c, as a vector over the low ones."""
    if n == _width(n):  # a single block: the vector itself
        return [bits]
    return _split(n, bits.to_bytes(1 << (n - 3), "little"))


def _join(n: int, blocks: list[int]) -> int:
    """Inverse of _blocks: concatenate the blocks, block 0 lowest."""
    if len(blocks) == 1:
        return blocks[0]
    size = (1 << (n - 3)) // len(blocks)  # bytes per block
    return int.from_bytes(b"".join(blk.to_bytes(size, "little") for blk in blocks), "little")


def _iter_blocks(n: int, blocks: list[int]) -> Iterator[int]:
    """iter_bits of the joined blocks, ascending, without joining them;
    empty blocks are skipped instead of walked word by word."""
    width = (1 << n) // len(blocks)
    for c, blk in enumerate(blocks):
        if blk:
            base = c * width
            for i in iter_bits(blk):
                yield base + i


@lru_cache(maxsize=None)
def _pairs(top: int) -> tuple[tuple[int, int], ...]:
    """(lo, hi) block indices for each of `top` top coordinates in turn:
    hi is lo with that coordinate added."""
    return tuple(
        (lo, lo | 1 << j) for j in range(top) for lo in range(1 << top) if not lo >> j & 1
    )


def up_closure(fam: Family) -> Family:
    """Smallest upward closed family containing fam.

    One OR-with-shifted-self pass per coordinate: after coordinate i,
    membership is closed under adding element i+1, and closure under all
    n coordinates is closure under taking arbitrary supersets.
    """
    w = _width(fam.n)
    return _close_across(fam.n, [_close_block(blk, w) for blk in fam._blocks])


def _close_across(n: int, blocks: list[int]) -> Family:
    """The closed family of blocks each closed over the low coordinates: each
    top coordinate ORs block c into block c plus that coordinate."""
    for lo, hi in _pairs(n - _width(n)):
        if blocks[lo]:
            blocks[hi] |= blocks[lo]
    closed = Family._of_blocks(n, blocks)
    closed._upward_closed = True  # closed by construction
    return closed


def _close_block(bits: int, n: int) -> int:
    """up_closure's loop over all n coordinates of a 2^n-bit vector; a
    vector is closed iff this returns it unchanged."""
    for i, absent in enumerate(absent_masks(n)):
        bits |= (bits & absent) << (1 << i)
    return bits


def is_upward_closed(fam: Family) -> bool:
    """True iff every one-element superset of a member is a member.

    The verdict is cached on the immutable family, as `count` is, so the
    constructors, the CLI verdicts and minimal_elements share one check.
    A block is closed iff `_close_block` leaves it unchanged; each distinct
    block is checked once, since a lifted family repeats a few blocks many
    times.  Across blocks, each must lie inside its upper neighbours.
    """
    if fam._upward_closed is None:
        n, w = fam.n, _width(fam.n)
        blocks = fam._blocks
        fam._upward_closed = all(
            _close_block(blk, w) == blk for blk in dict.fromkeys(blocks)
        ) and all(blocks[lo] & blocks[hi] == blocks[lo] for lo, hi in _pairs(n - w))
    return fam._upward_closed


def minimal_mask(fam: Family) -> int:
    """Bit vector of members having no member one element below them.

    For an upward closed family these are exactly its inclusion-minimal
    members, the antichain generating it.
    """
    return Family._of_blocks(fam.n, _minimal_blocks(fam.n, fam._blocks)).bits


def _minimal_blocks(n: int, blocks: list[int]) -> list[int]:
    """minimal_mask of a block list, as a new block list."""
    w = _width(n)
    tops = [1 << t for t in range(n - w)]
    return [
        _minimal_in_block(blk, [blocks[c ^ t] for t in tops if c & t], w)
        for c, blk in enumerate(blocks)
    ]


def _minimal_in_block(bits: int, below: list[int], w: int) -> int:
    """The members of block `bits` with no member one element below them,
    given the blocks one top coordinate below it.  The top coordinates go
    first: a block whose members all have a member below them in a lower
    block has no minimal member, and its low pass is skipped."""
    cand = bits
    for blk in below:
        cand ^= cand & blk
    return _minimal_block(bits, w, cand) if cand else 0


def _minimal_block(bits: int, n: int, out: int) -> int:
    """The points of `out` with no member of the 2^n-bit vector `bits` one
    element below them: minimal_mask's loop ORs the n one-step shadows of
    `bits` into one mask and clears it from `out` once."""
    below = 0
    for i, absent in enumerate(absent_masks(n)):
        below |= (bits & absent) << (1 << i)
    return out & ~below


def addable_mask(fam: Family) -> int:
    """Bit vector of non-members whose insertion keeps the family upward closed.

    For upward closed fam these are the points all of whose one-element
    supersets are already members.
    """
    n, w = fam.n, _width(fam.n)
    blocks = fam._blocks
    out = [_addable_block(blk, w) for blk in blocks]
    for lo, hi in _pairs(n - w):
        out[lo] &= blocks[hi]
    return Family._of_blocks(n, out).bits


def _addable_block(bits: int, n: int) -> int:
    """addable_mask's loop over all n coordinates of a 2^n-bit vector."""
    out = full_mask(n) & ~bits
    for i, absent in enumerate(absent_masks(n)):
        out &= ~absent | ((bits >> (1 << i)) & absent)
    return out


def minimal_elements(fam: Family) -> list[PointMask]:
    """Generating antichain of an upward closed family, sorted by (size, mask)."""
    if not is_upward_closed(fam):
        raise NotUpwardClosed("minimal_elements requires an upward closed family")
    points = _iter_blocks(fam.n, _minimal_blocks(fam.n, fam._blocks))
    # the points are ascending and the sort is stable, so ties stay in mask order
    return sorted(points, key=int.bit_count)


def level_counts(fam: Family) -> tuple[int, ...]:
    """Number of members of each cardinality 0..n."""
    return tuple(_levels(fam.n, fam._blocks))


def level_weights(n: int, p: Fraction | int | str) -> tuple[tuple[int, ...], int]:
    """Integer level weights at bias p = a/b: (a^k (b-a)^(n-k) for k = 0..n, b^n).

    A point of size k has measure weights[k] / b^n, so the weights of all
    2^n points sum to b^n.  At p = 0 or p = 1 a single weight is nonzero
    (0^0 = 1).
    """
    p = check_bias(p)
    a, b = p.numerator, p.denominator
    return tuple(a**k * (b - a) ** (n - k) for k in range(n + 1)), b**n


@lru_cache(maxsize=32)
def _weights(n: int, a: int, b: int) -> tuple[int, ...]:
    """level_weights at bias a/b, cached for the many small-n calls at one
    bias; 32 biases hold the repeats of a run and bound the memory."""
    return level_weights(n, Fraction(a, b))[0]


def _planes(blocks: Iterable[int]) -> list[int]:
    """Bit-sliced sum of blocks: planes[j] holds bit j of how many of the
    blocks contain each point, so the count of the blocks' members inside
    a mask m is sum((planes[j] & m).bit_count() << j)."""
    planes: list[int] = []
    for blk in blocks:
        for j, plane in enumerate(planes):  # add blk, rippling the carry
            planes[j], blk = plane ^ blk, plane & blk
            if not blk:
                break
        else:
            if blk:
                planes.append(blk)
    return planes


def _levels(n: int, blocks: Sequence[int]) -> list[int]:
    """Number of members of a block list on each level 0..n.

    A point of block c lies on level c.bit_count() + k, where k is its level
    inside the block.  So the blocks of each top level are summed into
    planes first, and each low level mask meets those few planes instead of
    every block.
    """
    masks = level_masks(_width(n))
    counts = [0] * (n + 1)
    for top in range(n + 2 - len(masks)):
        planes = _planes(blk for c, blk in enumerate(blocks) if c.bit_count() == top)
        for j, plane in enumerate(planes):
            for k, m in enumerate(masks, top):
                counts[k] += (plane & m).bit_count() << j
    return counts


def _mass(n: int, blocks: Sequence[int], p: Fraction) -> int:
    """Measure of a block list scaled by b^n: sum of weights[k] * |level k|.
    At p = 1/2 every weight is 1, so the mass is one popcount per block and
    no level pass runs."""
    a, b = p.numerator, p.denominator
    if b == 2:  # p = 1/2, the only bias in [0, 1] with denominator 2
        return sum(blk.bit_count() for blk in blocks)
    return sum(map(operator.mul, _weights(n, a, b), _levels(n, blocks)))


def measure(fam: Family, p: Fraction | int | str) -> Fraction:
    """Exact product-measure of the family: sum of p^|A| (1-p)^(n-|A|)."""
    p = check_bias(p)
    return Fraction(_mass(fam.n, fam._blocks, p), p.denominator**fam.n)


@dataclass(frozen=True)
class OccupancyProfile:
    """Exact counts and biased densities of the classes of points lying in
    exactly 0, 1, 2, 3 of a triple of families."""

    counts: tuple[int, int, int, int]
    densities: tuple[Fraction, Fraction, Fraction, Fraction]
    bias: Fraction

    @property
    def s1(self) -> Fraction:
        return self.densities[1]


def _occupancy_block(a: int, b: int, c: int, full: int) -> tuple[int, int, int, int]:
    """The exactly-0/1/2/3 occupancy classes of one block of each of three
    families; `full` is the full block."""
    some = a | b | c
    any_two = (a & b) | (a & c) | (b & c)
    all_three = a & b & c
    return full & ~some, some & ~any_two, any_two & ~all_three, all_three


def occupancy(
    x: Family,
    y: Family,
    z: Family,
    p: Fraction | int | str = Fraction(1, 2),
) -> OccupancyProfile:
    """Occupancy profile of a triple: how much of Q_n lies in exactly i of
    them, summed over the classes' blocks."""
    x._check_dim(y)
    x._check_dim(z)
    p = check_bias(p)
    n, full = x.n, full_mask(_width(x.n))
    blocks = zip(x._blocks, y._blocks, z._blocks)
    classes = list(zip(*(_occupancy_block(a, b, c, full) for a, b, c in blocks)))
    # classes[i] holds the blocks of the exactly-i class
    counts = tuple(sum(blk.bit_count() for blk in cls) for cls in classes)
    masses = counts if p == HALF else tuple(_mass(n, cls, p) for cls in classes)
    denom = p.denominator**n
    if sum(counts) != 1 << n or sum(masses) != denom:
        raise InvariantViolation(
            f"occupancy classes do not partition Q_{n}: counts {counts}, masses {masses}"
        )
    densities = tuple(Fraction(m, denom) for m in masses)
    return OccupancyProfile(counts, densities, p)


def hk_defect(u: Family, v: Family, p: Fraction | int | str) -> Fraction:
    """Correlation surplus of the pair: measure(U and V) - measure(U)*measure(V).

    Nonnegative whenever both families are upward closed; may be negative
    otherwise.
    """
    u._check_dim(v)
    p = check_bias(p)
    return measure(u & v, p) - measure(u, p) * measure(v, p)


def random_upset(n: int, rng: random.Random, points: int | None = None) -> Family:
    """Upward closure of `points` uniform random point masks (seeded).

    With points=None the generator count is drawn uniformly from
    1..2^(n-1), spanning sparse to dense upsets.
    """
    if points is None:
        points = rng.randint(1, max(1, 1 << max(n - 1, 0)))
    pts = [rng.randrange(1 << n) for _ in range(points)]
    return up_closure(family_from_points(n, pts))
