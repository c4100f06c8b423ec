"""Single command-line entry point for every build, check, sweep, and search.

Reports are JSON by default (`schema: 1`); rationals cross the boundary
as "a/b" strings in lowest terms, with 10-place decimal renderings added
for human eyes only — every verdict is computed from the exact values.
Exit status: 0 all asserted verdicts hold, 1 a verdict failed, 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys
from fractions import Fraction
from math import isqrt, lcm, log2
from pathlib import Path

from . import bounds, constructions, lift, posets, search
from .setcube import (
    Family,
    OccupancyProfile,
    check_bias,
    close_points,
    hk_defect,
    is_upward_closed,
    measure,
    minimal_points,
    occupancy,
    random_upset,
)
from .errors import InvalidParams, TooLarge, UpcubeError
from .upset_io import format_generators, format_upset, read_generators, read_upset, write_upset


def rat(x: Fraction | int) -> str:
    try:
        return str(Fraction(x))
    except ValueError:  # more digits than int-to-str allows
        raise TooLarge(f"a result has more than {sys.get_int_max_str_digits()} digits") from None


def dec10(x: Fraction | int) -> str:
    """10-place decimal rendering, display-only."""
    q = round(Fraction(x) * 10**10)
    sign, q = ("-", -q) if q < 0 else ("", q)
    return f"{sign}{q // 10**10}.{q % 10**10:010d}"


# The most work one call may ask for, in steps: a point of a random upset
# (hk-random: trials x 2^n, with a trial's measures charged by the bias's
# size), a hill-climb iteration at n <= 5 (search: restarts x (iters x
# steps per iteration + start-up), --stop-at or not, since a --stop-at that
# no restart reaches ends none of them), a hundredth of a report row (bound
# --sweep, qcurve; a qcurve row is charged by n and the bias's size), since
# a row holds exact rationals and their decimals, or about a microsecond of
# a poset scan (charged per pair of upsets by the weights' size) or of the
# maximizer's ternary search.  Checked before any of the work starts.
WORK_BUDGET = 10**7
ROW_STEPS = 100


def _check_work(what: str, steps: int) -> None:
    if steps > WORK_BUDGET:
        raise TooLarge(f"{what} asks for {steps} steps of work, above the budget of {WORK_BUDGET}")


def _rat_arg(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from None


def _rat_list_arg(s: str) -> list[Fraction]:
    return [_rat_arg(tok) for tok in s.split(",")]


def _profile_block(prof: OccupancyProfile) -> dict:
    return {
        "counts": list(prof.counts),
        "densities": [rat(d) for d in prof.densities],
        "densities_dec": [dec10(d) for d in prof.densities],
        "bias": rat(prof.bias),
    }


def _report(verb: str, params: dict, results: dict, verdicts: dict, notes: list[str] | None = None):
    rep = {"schema": 1, "verb": verb, "params": params, "results": results, "verdicts": verdicts}
    if notes:
        rep["notes"] = notes
    return rep, 0 if all(verdicts.values()) else 1


def _write_triple(triple: constructions.TripleSystem, out: Path, stem: str) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for tag, fam in (("x", triple.x), ("y", triple.y), ("z", triple.z)):
        path = out / f"{stem}_{tag}.upset"
        write_upset(fam, path)
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------- verify


def _verify_q5(args) -> tuple[dict, int]:
    triple = constructions.q5_triple()
    prof = occupancy(triple.x, triple.y, triple.z, Fraction(1, 2))
    baseline = 3 * Fraction(1, 2) * Fraction(1, 2) ** 2
    results = {
        "label": triple.label,
        "counts": [triple.x.count, triple.y.count, triple.z.count],
        "occupancy": _profile_block(prof),
        "s1": rat(prof.s1),
        "s1_dec": dec10(prof.s1),
        "product_baseline_3r(1-r)^2": rat(baseline),
        "four_ninths_reference": "4/9",
        "s1_below_4_9": prof.s1 < Fraction(4, 9),
    }
    verdicts = {
        "families_upward_closed": all(
            is_upward_closed(f) for f in (triple.x, triple.y, triple.z)
        ),
        "counts_all_16": results["counts"] == [16, 16, 16],
        "occupancy_counts_5_13_7_7": prof.counts == (5, 13, 7, 7),
        "s1_exceeds_baseline": prof.s1 > baseline,
    }
    notes = ["the 4/9 figure is the large-n exactly-one target; this instance sits below it"]
    return _report("verify", {"target": "q5"}, results, verdicts, notes)


def _verify_kahn(args) -> tuple[dict, int]:
    p = check_bias(args.p)
    triple = constructions.kahn_triple(args.n, args.l)
    prof = occupancy(triple.x, triple.y, triple.z, p)
    formula = constructions.q_formula(args.n, args.l, p)
    results = {
        "label": triple.label,
        "counts": [triple.x.count, triple.y.count, triple.z.count],
        "z_measure": rat(measure(triple.z, p)),
        "occupancy": _profile_block(prof),
        "q_formula": rat(formula),
        "q_formula_dec": dec10(formula),
    }
    verdicts = {
        "families_upward_closed": all(
            is_upward_closed(f) for f in (triple.x, triple.y, triple.z)
        ),
        "s1_matches_formula": prof.s1 == formula,
    }
    return _report(
        "verify", {"target": "kahn", "n": args.n, "l": args.l, "p": rat(args.p)}, results, verdicts
    )


def _verify_q21(args) -> tuple[dict, int]:
    triple, rep = lift.build_q21()
    return _q21_report("verify", rep, triple, files=None)


def _q21_report(verb: str, rep: lift.LiftReport, triple, files) -> tuple[dict, int]:
    total = 1 << triple.n
    counts = [triple.x.count, triple.y.count, triple.z.count]
    deficit = rep.target - rep.z_pre_count
    s1_count = rep.profile.counts[1]
    ceiling = Fraction(rep.z_pre_count + rep.pool_count, total)
    results = {
        "m": rep.m,
        "b": rep.b,
        "n": triple.n,
        "gadget_bias": rat(rep.bias),
        "counts": counts,
        "z_pre_count": rep.z_pre_count,
        "z_pre_measure": rat(Fraction(rep.z_pre_count, total)),
        "z_pre_measure_dec": dec10(Fraction(rep.z_pre_count, total)),
        "pool_count": rep.pool_count,
        "deficit": deficit,
        "pool_ceiling_measure": rat(ceiling),
        "pool_ceiling_measure_dec": dec10(ceiling),
        "target": rep.target,
        "occupancy": _profile_block(rep.profile),
        "s1_count": s1_count,
        "s1": rat(rep.profile.s1),
        "s1_dec": dec10(rep.profile.s1),
        "integer_cross_check": f"9*{s1_count} = {9 * s1_count} vs 4*{total} = {4 * total}",
    }
    if files:
        results["files"] = files
    verdicts = {
        "counts_match_target": counts == [rep.target] * 3,
        "deficit_within_pool": 0 <= deficit <= rep.pool_count,
        "ceiling_exceeds_target_density": ceiling > Fraction(rep.target, total),
        "s1_exceeds_4_9": 9 * s1_count > 4 * total,
    }
    return _report(verb, {"target": "q21"}, results, verdicts)


def _cmd_verify(args) -> tuple[dict, int]:
    return {"q5": _verify_q5, "kahn": _verify_kahn, "q21": _verify_q21}[args.target](args)


# ------------------------------------------------------- measure / closure


def _cmd_measure(args) -> tuple[dict, int]:
    fam = read_upset(args.family)
    mu = measure(fam, args.p)
    results = {
        "family": str(args.family),
        "n": fam.n,
        "count": fam.count,
        "upward_closed": is_upward_closed(fam),
        "measure": rat(mu),
        "measure_dec": dec10(mu),
    }
    return _report("measure", {"p": rat(args.p)}, results, {})


def _cmd_closure(args) -> tuple[dict | None, int]:
    n, points = read_generators(args.family)
    closed = close_points(n, points)
    text = format_generators(n, minimal_points(closed, points))
    if not args.out:
        sys.stdout.write(text)
        return None, 0  # the .upset text is the output
    Path(args.out).write_text(text)
    distinct = len(set(points))
    results = {
        "family": str(args.family),
        "n": n,
        "generators": distinct,
        "closed_count": closed.count,
        "was_already_closed": closed.count == distinct,  # the points lie in closed
        "out": str(args.out),
    }
    return _report("closure", {}, results, {})


# ----------------------------------------------------------- bound / lp


def _cmd_bound(args) -> tuple[dict, int]:
    if args.sweep is not None:
        if args.sweep < 1:
            raise InvalidParams(f"--sweep must be at least 1, got {args.sweep}")
        _check_work(f"--sweep {args.sweep}", (args.sweep + 1) * ROW_STEPS)
        rows = []
        for i in range(args.sweep + 1):
            rho = Fraction(i, args.sweep)
            v = bounds.s1_upper_bound(rho)
            rows.append({"rho": rat(rho), "bound": rat(v), "bound_dec": dec10(v)})
        return _report("bound", {"sweep": args.sweep}, {"rows": rows}, {})
    if args.rho is None:
        raise InvalidParams("bound needs --rho or --sweep")
    if args.maximize_tol is not None:
        # r rounds cut the bracket to (2/3)^r <= tol/2; round i's Fractions
        # hold about i*log2(3) bits, so the search costs about r^3 / 2^14 steps
        tol = args.maximize_tol
        bits = tol.denominator.bit_length() - tol.numerator.bit_length() + 1
        rounds = int(max(bits, 0) / log2(3 / 2))
        _check_work(f"--maximize-tol ({rounds} rounds)", rounds**3 >> 14)
    v = bounds.s1_upper_bound(args.rho)
    results = {"bound": rat(v), "bound_dec": dec10(v)}
    if args.maximize_tol is not None:
        rho_star, value = bounds.bound_maximizer(args.maximize_tol)
        results["maximizer_rho"] = rat(rho_star)
        results["maximizer_rho_dec"] = dec10(rho_star)
        results["maximizer_value"] = rat(value)
        results["maximizer_value_dec"] = dec10(value)
    return _report("bound", {"rho": rat(args.rho)}, results, {})


def _cmd_lp(args) -> tuple[dict, int]:
    sol = bounds.lp_max_s1(args.rho)
    closed = bounds.s1_upper_bound(args.rho)
    results = {
        "profile": [rat(v) for v in sol.profile],
        "profile_dec": [dec10(v) for v in sol.profile],
        "objective": rat(sol.objective),
        "objective_dec": dec10(sol.objective),
        "tight_constraints": list(sol.tight),
        "closed_form": rat(closed),
    }
    verdicts = {"matches_closed_form": sol.objective == closed}
    return _report("lp", {"rho": rat(args.rho)}, results, verdicts)


def _cmd_qcurve(args) -> tuple[dict, int]:
    if args.points:
        size, d = len(args.points), max(p.denominator for p in args.points).bit_length()
    elif args.grid is not None:
        if args.grid < 1:
            raise InvalidParams(f"--grid must be at least 1, got {args.grid}")
        size, d = args.grid + 1, args.grid.bit_length()
    else:
        raise InvalidParams("qcurve needs --grid or --points")
    # q(n, l, p) sums n terms over the denominator b^n of p = a/b, d = bits
    # of b: at d = 2 and n = 24, 100 and 1000 one row took 0.2 ms, 1.2 ms
    # and 0.12 s, under n^2 steps.  Once n d^2 passes 2^15 the gcds of n d-bit
    # ints take over, n^3 d^2 / 2^15 steps: at d = 997 and n = 50, 100 and
    # 200 a row took 0.22, 2.4 and 19.5 s.  Over n = 10..3000 and d = 2..13300
    # a row took at most 0.15 us per step charged (2 CPUs, CPython 3.11).
    row = args.n * args.n * (1 + (args.n * d * d >> 15))
    _check_work(f"{size} rows at n = {args.n}", size * max(ROW_STEPS, row))
    grid = args.points or [Fraction(i, args.grid) for i in range(size)]
    rows = [
        {"p": rat(p), "q": rat(q), "q_dec": dec10(q), "exceeds_4_9": q > Fraction(4, 9)}
        for p, q in constructions.qcurve(args.n, args.l, grid)
    ]
    return _report("qcurve", {"n": args.n, "l": args.l}, {"rows": rows}, {})


# ---------------------------------------------------------------- build


def _cmd_build(args) -> tuple[dict, int]:
    out = Path(args.out) if args.out else None
    if args.target == "q21":
        triple, rep = lift.build_q21()
        files = _write_triple(triple, out, "q21") if out else None
        return _q21_report("build", rep, triple, files)

    if args.target in ("dictator", "threshold"):
        if args.target == "dictator":
            if args.i is None:
                raise InvalidParams("build dictator needs --i")
            fam = constructions.dictator(args.n, args.i)
            params = {"n": args.n, "i": args.i}
        else:
            if args.l is None:
                raise InvalidParams("build threshold needs --l")
            fam = constructions.threshold(args.n, args.l)
            params = {"n": args.n, "l": args.l}
        stem = "_".join([args.target] + [f"{k}{v}" for k, v in params.items()])
        results = {
            "count": fam.count,
            "upward_closed": is_upward_closed(fam),
            "upset_text": format_upset(fam),
        }
        if out:
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{stem}.upset"
            write_upset(fam, path)
            results["files"] = [str(path)]
        return _report("build", {"target": args.target, **params}, results, {})

    if args.target == "q5":
        triple = constructions.q5_triple()
        params = {"target": "q5"}
    else:  # kahn
        if args.l is None:
            raise InvalidParams("build kahn needs --l")
        triple = constructions.kahn_triple(args.n, args.l)
        params = {"target": "kahn", "n": args.n, "l": args.l}
    results = {"label": triple.label, "counts": [triple.x.count, triple.y.count, triple.z.count]}
    if out:
        results["files"] = _write_triple(triple, out, triple.label.split("(")[0])
    verdicts = {
        "families_upward_closed": all(is_upward_closed(f) for f in (triple.x, triple.y, triple.z))
    }
    return _report("build", params, results, verdicts)


# ---------------------------------------------------------------- search


def _cmd_search(args) -> tuple[dict, int]:
    kind = {"s1": "s1_density", "min-part": "min_part_density"}[args.objective]
    objective = search.SearchObjective(kind=kind, bias=args.p)
    search.check_search_dim(args.n)
    # A restart's start-up and a climb iteration, in steps of about 1.3 us
    # (2 CPUs, CPython 3.11).  At n = 5, 9, 12, 14, 16 the start-up took
    # 0.09 ms, 1.41 ms, 42 ms, 0.63 s and 8.8 s (at most 2.1x the formula)
    # and an iteration at most 2.4, 9.8, 28, 84 and 318 us (1, 8, 33, 93
    # and 289 steps): select_bit and the masks are linear in 2^n.
    startup = (1 << args.n) + (1 << 2 * args.n) // 1024
    iter_steps = max(1, isqrt(1 << args.n) // 3 + (1 << args.n) // 320)
    _check_work(
        f"--restarts {args.restarts} x (--iters {args.iters} x {iter_steps} + {startup} start-up)",
        args.restarts * (args.iters * iter_steps + startup),
    )
    seeds = range(args.seed, args.seed + args.restarts)
    result = search.best_of_restarts(
        args.n, args.rho, objective, seeds, max_iters=args.iters, stop_at=args.stop_at
    )
    triple = result.triple
    prof = occupancy(triple.x, triple.y, triple.z, objective.bias)
    bound = bounds.s1_upper_bound(args.rho)
    parts = search.part_measures(triple, objective.bias)
    results = {
        "label": triple.label,
        "value": rat(result.value),
        "value_dec": dec10(result.value),
        "iterations": result.iterations,
        "winning_seed": result.seed,
        "counts": [triple.x.count, triple.y.count, triple.z.count],
        "s1": rat(prof.s1),
        "part_measures": [rat(v) for v in parts],
        "bound_at_rho": rat(bound),
    }
    if args.out:
        results["files"] = _write_triple(triple, Path(args.out), f"search_n{args.n}")
    fams = (triple.x, triple.y, triple.z)
    verdicts = {
        "families_upward_closed": all(is_upward_closed(f) for f in fams),
        "equal_counts": len(set(results["counts"])) == 1,
    }
    # The LP bound holds at a common p-measure of the three families.  Equal
    # counts give one at p = 1/2 (it is rho), but not in general.
    mus = {measure(f, objective.bias) for f in fams}
    notes = None
    if len(mus) == 1:
        verdicts["s1_within_bound"] = prof.s1 <= bounds.s1_upper_bound(*mus)
    else:
        notes = ["s1_within_bound is left out: the LP bound needs a common p-measure"]
    return _report(
        "search",
        {
            "n": args.n,
            "rho": rat(args.rho),
            "objective": args.objective,
            "p": rat(args.p),
            "seed": args.seed,
            "restarts": args.restarts,
            "iters": args.iters,
        },
        results,
        verdicts,
        notes,
    )


# ---------------------------------------------------------------- poset


def _cmd_poset(args) -> tuple[dict, int]:
    if args.diamond:
        poset = posets.diamond_poset(args.p)
        params = {"diamond": True, "p": rat(args.p)}
    elif args.file:
        poset = posets.load_poset(args.file)
        params = {"file": str(args.file)}
    else:
        raise InvalidParams("poset needs --diamond or --file")
    # A scan pair is a table lookup and two Fraction operations on upset
    # weights, whose denominators divide the lcm of the weights'; with b bits
    # in that lcm a pair took 4.1, 17, 42, 115 and 1016 us at b = 17, 872,
    # 1024, 2048 and 8192 (CPython 3.11), below this charge in steps.
    b = lcm(*(w.denominator for w in poset.weights)).bit_length()
    pair = 5 + b // 32 + (b // 256) ** 2
    most = (isqrt(8 * (WORK_BUDGET // pair) + 1) - 1) // 2  # m(m + 1)/2 pairs fit
    upsets = posets.enumerate_upsets(poset, most)
    if len(upsets) > most:
        raise TooLarge(
            f"a scan of more than {most} upsets at {pair} steps a pair exceeds the budget"
        )
    min_defect, (u, v) = posets.poset_hk_scan(poset, upsets)
    results = {
        "elements": list(poset.elements),
        "weights": [rat(w) for w in poset.weights],
        "upset_count": len(upsets),
        "min_defect": rat(min_defect),
        "min_defect_dec": dec10(min_defect),
        "witness_pair": [list(poset.labels_of(u)), list(poset.labels_of(v))],
    }
    verdicts = {"min_defect_nonneg": min_defect >= 0}
    notes = None
    if args.diamond:
        p = Fraction(args.p)
        idx = {e: i for i, e in enumerate(poset.elements)}
        top, mids = 1 << idx["A"], [1 << idx[f"p{i}"] for i in (1, 2, 3)]
        two_masks = [top | mid for mid in mids]
        three_masks = [top | (sum(mids) ^ mid) for mid in mids]  # {A, p_j: j != i}
        pair_defect = posets.poset_hk_defect(poset, three_masks[2], three_masks[1])
        prof2 = posets.poset_occupancy(poset, *two_masks)
        prof3 = posets.poset_occupancy(poset, *three_masks)
        lp_profile = bounds.optimal_profile(p)
        results["size3_pair_defect"] = rat(pair_defect)
        results["two_element_triple_occupancy"] = [rat(s) for s in prof2]
        results["three_element_triple_occupancy"] = [rat(s) for s in prof3]
        results["lp_optimal_profile"] = [rat(s) for s in lp_profile]
        verdicts["size3_pair_defect_formula"] = pair_defect == p * (1 - p) ** 2 / (1 + p) ** 2
        verdicts["two_element_triple_matches_lp"] = prof2 == lp_profile
        notes = [
            "the three two-element upsets {A,p_i} each have weight exactly p and realize "
            "the LP-optimal profile; the three-element triple yields the transposed "
            "profile (s1 and s2 swapped)"
        ]
    return _report("poset", params, results, verdicts, notes)


# ------------------------------------------------------------- hk-random


def _cmd_hk_random(args) -> tuple[dict, int]:
    if not 0 <= args.n <= 12:
        raise InvalidParams(f"hk-random needs 0 <= n <= 12, got {args.n}")
    if args.trials < 1:
        raise InvalidParams("need at least one trial")
    # A trial's three measures at p = a/b divide (n d)-bit ints, d = bits of
    # b, which costs (n d)^2 / 2^15 steps beside its 2^n: at n = 10 and d = 2,
    # 1024 and 13300 a trial took 0.37 ms, 1.6 ms and 0.14 s, 0.17-0.36 us per
    # step charged over n = 4..12 (2 CPUs, CPython 3.11).
    d = args.p.denominator.bit_length()
    trial_steps = (1 << args.n) + ((args.n * d) ** 2 >> 15)
    _check_work(f"--trials {args.trials} at n = {args.n}", args.trials * trial_steps)
    rng = random.Random(args.seed)

    def trial(t: int) -> tuple[Fraction, int, Family, Family]:
        x = random_upset(args.n, rng)
        y = random_upset(args.n, rng)
        return hk_defect(x, y, args.p), t, x, y

    # the first trial with the least defect
    d, t, x, y = min(map(trial, range(args.trials)), key=lambda w: w[:2])
    results = {
        "trials": args.trials,
        "min_defect": rat(d),
        "min_defect_dec": dec10(d),
        "witness_trial": t,
        "witness_counts": [x.count, y.count],
        "witness_measures": [rat(measure(x, args.p)), rat(measure(y, args.p))],
    }
    verdicts = {"all_defects_nonneg": d >= 0}
    return _report(
        "hk-random",
        {"n": args.n, "seed": args.seed, "p": rat(args.p)},
        results,
        verdicts,
    )


# ------------------------------------------------------------- plumbing


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, lines)
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            lines.append(f"{prefix} = {', '.join(map(str, obj)) if obj else '[]'}")
        else:
            for i, v in enumerate(obj):
                _flatten(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix} = {obj}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "text":
        lines: list[str] = []
        _flatten("", report, lines)
        print("\n".join(lines))
    else:  # csv
        rows = report.get("results", {}).get("rows")
        if not rows:
            raise InvalidParams("csv output is only available for sweep/qcurve reports")
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcube",
        description="exact-rational toolkit for monotone set systems on the biased cube",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "text", "csv"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_parser(name: str, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("verify", help="re-check a named construction's claims")
    p.add_argument("target", choices=("q5", "kahn", "q21"))
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--p", type=_rat_arg, default=Fraction(1, 2))
    p.set_defaults(handler=_cmd_verify)

    p = add_parser("measure", help="biased measure of a .upset family")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=_rat_arg, default=Fraction(1, 2))
    p.set_defaults(handler=_cmd_measure)

    p = add_parser("closure", help="upward closure of a .upset generator file")
    p.add_argument("family")
    p.add_argument("--out", help="write closed .upset here (default: stdout)")
    p.set_defaults(handler=_cmd_closure)

    p = add_parser("bound", help="closed-form s1 upper bound")
    p.add_argument("--rho", type=_rat_arg)
    p.add_argument("--sweep", type=int, help="evaluate on the grid i/K, i=0..K")
    p.add_argument(
        "--maximize-tol",
        type=_rat_arg,
        help="also locate the bound's maximizer to this tolerance",
    )
    p.set_defaults(handler=_cmd_bound)

    p = add_parser("lp", help="exact occupancy LP at a common density")
    p.add_argument("--rho", type=_rat_arg, required=True)
    p.set_defaults(handler=_cmd_lp)

    p = add_parser("qcurve", help="sample the closed-form q(n,l,p)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--points", type=_rat_list_arg, help="comma-separated biases, e.g. 1/3,3/8")
    p.set_defaults(handler=_cmd_qcurve)

    p = add_parser("build", help="construct named families / triples")
    p.add_argument("target", choices=("dictator", "threshold", "q5", "kahn", "q21"))
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--l", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--out", help="directory for .upset artifacts")
    p.set_defaults(handler=_cmd_build)

    p = add_parser("search", help="hill-climb triples of equal-count upsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_rat_arg, required=True)
    p.add_argument("--objective", choices=("s1", "min-part"), default="s1")
    p.add_argument("--p", type=_rat_arg, default=Fraction(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--stop-at", type=_rat_arg, help="stop all restarts once one reaches this value")
    p.add_argument("--out", help="directory for the winning triple's .upset files")
    p.set_defaults(handler=_cmd_search)

    p = add_parser("poset", help="enumerate upsets and scan correlation defects")
    p.add_argument("--diamond", action="store_true", help="use the built-in diamond poset")
    p.add_argument("--p", type=_rat_arg, default=Fraction(1, 2))
    p.add_argument("--file", help="poset description JSON")
    p.set_defaults(handler=_cmd_poset)

    p = add_parser("hk-random", help="correlation defect on seeded random upset pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=_rat_arg, default=Fraction(1, 2))
    p.set_defaults(handler=_cmd_hk_random)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() reuses: parsing leaves no state behind in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = args.handler(args)
        if report is not None:  # None: the handler wrote its own output
            _emit(report, args.format)
        return code
    except (UpcubeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
