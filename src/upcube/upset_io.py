"""Plain-text serialization of upward closed families (the ".upset" format).

Layout: a header line ``n=<int>`` followed by one generator per non-empty
line, written as comma-separated ascending element labels from [n], with
the literal ``{}`` standing for the empty set (whose closure is the full
cube).  A file with only the header denotes the empty family.  Reading
takes the upward closure of whatever generators are listed; writing
emits the minimal elements in (cardinality, mask) order, so write→read
round-trips exactly.

Reading has two steps.  `parse_generators` turns the text into the listed
point masks at one table lookup per label: a generator line whose comma
tokens are all canonical labels ("1" .. str(n), or a lone "{}") is the sum
of their bits.  Any other token (" 2 ", "03", "+1", "1_0", a label out of
range), or a repeated label, sends the whole file through the per-line
reader `_parse_line`, which accepts every spelling int() does and is where
every error message comes from.  `setcube.close_points` then builds the
closure block by block from those points, so no 2^n-bit buffer is built and
a storage block holding no generator costs nothing until the closure's
cross-block passes.  `parse_upset` and `read_upset` are the two steps
together; `closure` reads the bare generators with `read_generators`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

from .setcube import (
    N_MAX,
    Family,
    PointMask,
    close_points,
    mask_from_elements,
    minimal_elements,
)
from .errors import OutOfRange, UpsetFormatError

_HEADER = re.compile(r"^n\s*=\s*(\d+)$")


def parse_generators(text: str) -> tuple[int, list[PointMask]]:
    """The dimension and the listed generator point masks of .upset text,
    in file order, repeats kept.

    One table lookup per canonical label; a file with any other token is
    read by `_parse_line`, the source of every generator-line error.
    """
    body = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not body:
        raise UpsetFormatError("missing 'n=<int>' header line")
    m = _HEADER.match(body[0])
    if not m:
        raise UpsetFormatError(f"bad header line {body[0]!r}, expected 'n=<int>'")
    # \d matches the digits of every script, and int() refuses more than
    # 4300 of them, so n's digits are counted before it is converted.
    digits = "".join(str(int(d)) for d in m.group(1)).lstrip("0") or "0"
    if len(digits) > len(str(N_MAX)) or int(digits) > N_MAX:
        raise UpsetFormatError(f"n={digits} exceeds N_MAX={N_MAX}")
    n = int(digits)

    gens = body[1:]
    bit = _label_bits(n)
    try:
        points = [sum(map(bit.__getitem__, ln.split(","))) for ln in gens]
    except KeyError:
        points = None
    # A line's popcount equals its count of labels unless it repeats one or
    # puts "{}" beside another token, so equal totals clear every line.  The
    # header and blank lines hold no comma.
    if points is None or sum(map(int.bit_count, points)) != (
        text.count(",") + len(gens) - gens.count("{}")
    ):
        points = [_parse_line(ln, n) for ln in gens]
    return n, points


def parse_upset(text: str) -> Family:
    """Parse .upset text into the upward closure of its listed generators."""
    return close_points(*parse_generators(text))


@lru_cache(maxsize=None)
def _label_bits(n: int) -> dict[str, int]:
    """Each canonical label of [n] mapped to its mask bit, and "{}" to 0."""
    return {"{}": 0, **{str(i + 1): 1 << i for i in range(n)}}


def _parse_line(ln: str, n: int) -> PointMask:
    """The point mask of one stripped generator line, read token by token
    with int(); raises UpsetFormatError for a malformed line."""
    if ln == "{}":
        return 0
    try:
        elems = [int(tok) for tok in ln.split(",")]
    except ValueError:
        raise UpsetFormatError(f"unparseable generator line {ln!r}") from None
    if len(set(elems)) != len(elems):
        raise UpsetFormatError(f"duplicate element in generator line {ln!r}")
    try:
        return mask_from_elements(elems, n)
    except OutOfRange as exc:
        raise UpsetFormatError(f"{exc} in generator line {ln!r}") from None


@lru_cache(maxsize=None)
def _byte_labels(byte: int) -> tuple[str, ...]:
    """Entry v: the labels of the set bits of v as mask byte `byte`, each
    followed by a comma."""
    base = 8 * byte + 1
    return tuple("".join(f"{base + i}," for i in range(8) if v >> i & 1) for v in range(256))


def format_generators(n: int, points: list[PointMask]) -> str:
    """.upset text of Q_n listing the given point masks in the given order."""
    # N_MAX = 24, so a point mask has at most three bytes.
    low, mid, high = _byte_labels(0), _byte_labels(1), _byte_labels(2)
    out = [f"n={n}"]
    for mask in points:
        labels = low[mask & 255] + mid[mask >> 8 & 255] + high[mask >> 16]
        out.append(labels[:-1] if mask else "{}")
    return "\n".join(out) + "\n"


def format_upset(fam: Family) -> str:
    """Render a family as .upset text (requires upward closedness)."""
    return format_generators(fam.n, minimal_elements(fam))


def read_generators(path: str | Path) -> tuple[int, list[PointMask]]:
    """parse_generators of a file's text; a file that is not UTF-8 is malformed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UpsetFormatError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_generators(text)


def read_upset(path: str | Path) -> Family:
    """The upward closure of the generators a .upset file lists."""
    return close_points(*read_generators(path))


def write_upset(fam: Family, path: str | Path) -> None:
    Path(path).write_text(format_upset(fam))
