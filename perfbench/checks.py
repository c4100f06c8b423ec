"""Correctness checks on every op, against values the benchmark computes itself.

Nothing here imports upcube.  Expected values come from closed forms
(the LP optimum 3r(1-r)/(1+r), the diamond profile, p^2(2-p) for the
lifted dictators), from the paper's constants (Q_5 counts 5,13,7,7 and
13/32; the Q_21 count 937950 and 3/8 densities), from brute force (the
Q_7 template triple), and from a small reference implementation of the
`.upset` format, up-closure and level counts used on the files the
benchmark writes and the program writes.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

Q21_N = 21
Q21_S1_COUNT = 937950
Q21_COUNT = 3 << (Q21_N - 3)  # density 3/8
DIAMOND_UPSETS = 10  # {}, {A}, 3x{A,p_i}, 3x{A,p_i,p_j}, {A,p1,p2,p3}, all five


def s1_bound(r: Fraction) -> Fraction:
    return 3 * r * (1 - r) / (1 + r)


def lp_profile(r: Fraction) -> list[Fraction]:
    d = 1 + r
    return [(1 - r) ** 2 / d, 3 * r * (1 - r) / d, Fraction(0), 2 * r * r / d]


def level_measure(levels: list[int], p: Fraction) -> Fraction:
    n = len(levels) - 1
    return sum((c * p**k * (1 - p) ** (n - k) for k, c in enumerate(levels) if c), Fraction(0))


@lru_cache(maxsize=None)
def _kahn_exactly_one_levels(n: int, l: int) -> list[int]:
    """Per-level counts of points in exactly one of: dictator 1, dictator 2,
    and Z = {|A| > l} plus the size-l sets avoiding elements 1 and 2."""
    levels = [0] * (n + 1)
    for a in range(1 << n):
        k = a.bit_count()
        z = k > l or (k == l and not a & 3)
        if (a & 1) + (a >> 1 & 1) + z == 1:
            levels[k] += 1
    return levels


# ------------------------------------------------ reference .upset handling


def parse_generators(text: str) -> tuple[int, list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0].split("=")[1])
    masks = []
    for ln in lines[1:]:
        mask = 0
        if ln != "{}":
            for e in ln.split(","):
                mask |= 1 << (int(e) - 1)
        masks.append(mask)
    return n, masks


def minimal_generators(masks: list[int]) -> list[int]:
    """Inclusion-minimal distinct masks, in (cardinality, mask) order."""
    kept: list[int] = []
    for g in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(h & g == h for h in kept):
            kept.append(g)
    return kept


def render_upset(n: int, masks: list[int]) -> str:
    lines = [f"n={n}"]
    for m in masks:
        elems = [str(i + 1) for i in range(n) if m >> i & 1]
        lines.append(",".join(elems) if elems else "{}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _absent(n: int) -> tuple[int, ...]:
    """Per coordinate i, the 2^n-bit vector of points with bit i clear."""
    out = []
    nbytes = (1 << n) // 8
    for i in range(n):
        if i < 3:
            byte = sum(1 << j for j in range(8) if not j >> i & 1)
            pattern = bytes([byte]) * nbytes
        else:
            half = 1 << (i - 3)
            pattern = (b"\xff" * half + b"\x00" * half) * (nbytes // (2 * half))
        out.append(int.from_bytes(pattern, "little"))
    return tuple(out)


def closure_bits(n: int, masks: list[int]) -> int:
    """Membership vector of the up-closure of the given points (n >= 3)."""
    buf = bytearray((1 << n) // 8)
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    bits = int.from_bytes(buf, "little")
    for i, absent in enumerate(_absent(n)):
        bits |= (bits & absent) << (1 << i)
    return bits


@lru_cache(maxsize=None)
def _chunk_levels(base: int) -> tuple[int, ...]:
    levels = [0] * (base + 1)
    for a in range(1 << base):
        levels[a.bit_count()] |= 1 << a
    return tuple(levels)


def level_counts(bits: int, n: int) -> list[int]:
    """Members per cardinality, summed over 2^12-point chunks of the cube."""
    base = min(n, 12)
    lm = _chunk_levels(base)
    size = (1 << base) // 8
    data = bits.to_bytes((1 << n) // 8, "little")
    counts = [0] * (n + 1)
    for j in range(1 << (n - base)):
        chunk = int.from_bytes(data[j * size : (j + 1) * size], "little")
        if chunk:
            off = j.bit_count()
            for k, mask in enumerate(lm):
                counts[k + off] += (chunk & mask).bit_count()
    return counts


class Reference:
    """Expected facts about `.upset` files in the run directory, cached by content."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self._cache: dict[str, dict] = {}

    def upset(self, rel: str) -> dict:
        data = (self.run_dir / rel).read_bytes()
        key = hashlib.sha256(data).hexdigest()
        if key not in self._cache:
            n, masks = parse_generators(data.decode())
            minimal = minimal_generators(masks)
            self._cache[key] = {
                "n": n,
                "distinct": len(set(masks)),
                "levels": level_counts(closure_bits(n, masks), n),
                "sha256": key,
                "closed_sha256": hashlib.sha256(render_upset(n, minimal).encode()).hexdigest(),
                "is_minimal_listing": minimal == masks,
            }
        return self._cache[key]


# ------------------------------------------------------------ op checks


def _check_q21(res: dict, problems: list[str]) -> None:
    total = 1 << Q21_N
    if res.get("s1_count") != Q21_S1_COUNT:
        problems.append(f"q21 s1_count {res.get('s1_count')} != {Q21_S1_COUNT}")
    if not 9 * res.get("s1_count", 0) > 4 * total:
        problems.append("q21 exactly-one count not above 4/9")
    if res.get("counts") != [Q21_COUNT] * 3:
        problems.append(f"q21 counts {res.get('counts')} != {[Q21_COUNT] * 3}")
    if res.get("s1") != str(Fraction(Q21_S1_COUNT, total)):
        problems.append(f"q21 s1 {res.get('s1')}")


def _check_verify(op, results: list[dict], problems: list[str]) -> None:
    r, tol = op.params["r"], op.params["tol"]
    q5, kahn, lp, bound, poset, hk, q21 = results
    if q5["occupancy"]["counts"] != [5, 13, 7, 7] or q5["s1"] != "13/32" or q5["counts"] != [16] * 3:
        problems.append("q5 counts or s1 differ from (5,13,7,7), 13/32")
    s1 = level_measure(_kahn_exactly_one_levels(7, 3), r)
    if kahn["occupancy"]["densities"][1] != str(s1) or kahn["q_formula"] != str(s1):
        problems.append(f"kahn s1 {kahn['occupancy']['densities'][1]} != brute force {s1}")
    if lp["objective"] != str(s1_bound(r)):
        problems.append(f"lp objective {lp['objective']} != {s1_bound(r)}")
    if bound["bound"] != str(s1_bound(r)):
        problems.append(f"bound {bound['bound']} != {s1_bound(r)}")
    rho = Fraction(bound["maximizer_rho"])
    if not (rho + 1 - tol) ** 2 <= 2 <= (rho + 1 + tol) ** 2:
        problems.append(f"maximizer {rho} not within {tol} of sqrt(2)-1")
    if bound["maximizer_value"] != str(s1_bound(rho)):
        problems.append("maximizer value is not the bound at the maximizer")
    if poset["two_element_triple_occupancy"] != [str(v) for v in lp_profile(r)]:
        problems.append("diamond two-element occupancy differs from the LP-optimal profile")
    if poset["upset_count"] != DIAMOND_UPSETS or Fraction(poset["min_defect"]) < 0:
        problems.append("diamond upset count or defect sign wrong")
    if hk["trials"] != op.params["trials"] or Fraction(hk["min_defect"]) < 0:
        problems.append("hk-random trial count or defect sign wrong")
    _check_q21(q21, problems)


def _check_artifacts(op, results: list[dict], files: dict, ref: Reference, problems: list[str]) -> None:
    r = op.params["r"]
    build, mx, my, mz = results[:4]
    _check_q21(build, problems)
    lifted_dictator = r * r * (2 - r)  # block {1,2},{1,3},{1,2,3} at bias r
    for rel, rep, closed_form in zip(op.outputs, (mx, my, mz), (lifted_dictator, lifted_dictator, None)):
        facts = ref.upset(rel)
        file_measure = level_measure(facts["levels"], r)
        if rep["count"] != Q21_COUNT or sum(facts["levels"]) != Q21_COUNT:
            problems.append(f"{rel} count {rep['count']} != {Q21_COUNT}")
        if rep["measure"] != str(file_measure):
            problems.append(f"{rel} measure {rep['measure']} != {file_measure}")
        if closed_form is not None and file_measure != closed_form:
            problems.append(f"{rel} measure {file_measure} != {closed_form}")
        if files.get(rel) != facts["sha256"]:
            problems.append(f"{rel} changed after the op wrote it")
    for k, (closure, measured) in enumerate(zip(results[4::2], results[5::2])):
        src, dst = op.passes[4 + 2 * k][1], op.passes[4 + 2 * k][3]
        facts = ref.upset(src)
        count = sum(facts["levels"])
        if closure["closed_count"] != count or closure["generators"] != facts["distinct"]:
            problems.append(f"closure of {src}: counts differ")
        if files.get(dst) != facts["closed_sha256"]:
            problems.append(f"{dst} is not the minimal generators of {src} in (size, mask) order")
        elif not ref.upset(dst)["is_minimal_listing"]:
            problems.append(f"re-closing {dst} changes it")
        if measured["measure"] != str(level_measure(facts["levels"], r)) or measured["count"] != count:
            problems.append(f"measure of {dst} disagrees with the measure of {src}")


def _check_search(op, results: list[dict], problems: list[str]) -> None:
    half = Fraction(1, 2)
    for (n, restarts), seed, res in zip(((5, 8), (9, 1)), op.params["seeds"], results):
        if Fraction(res["value"]) > s1_bound(half) or Fraction(res["s1"]) > s1_bound(half):
            problems.append(f"search n={n} value {res['value']} above the LP bound")
        if res["counts"] != [1 << (n - 1)] * 3:
            problems.append(f"search n={n} counts {res['counts']}")
        if not seed <= res["winning_seed"] < seed + restarts or res["iterations"] > op.params["iters"]:
            problems.append(f"search n={n} seed or iteration count out of range")


def check_op(workload: str, op, record: dict, ref: Reference) -> list[str]:
    """Problems found in one op's record; empty when it is correct."""
    problems = []
    for argv, p in zip(op.passes, record["passes"]):
        if p["error"] or p["code"] != 0 or p["report"] is None:
            problems.append(f"{' '.join(argv)}: exit {p['code']} {p['error'] or p['stderr'].strip()}")
        elif not all(p["report"].get("verdicts", {}).values()):
            problems.append(f"{' '.join(argv)}: a verdict failed")
    if problems:
        return problems
    results = [p["report"]["results"] for p in record["passes"]]
    try:
        if workload == "verify":
            _check_verify(op, results, problems)
        elif workload == "artifacts":
            _check_artifacts(op, results, record["files"], ref, problems)
        else:
            _check_search(op, results, problems)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
