import ast
import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import upcube as uc
from upcube import cli, constructions, lift, setcube
from upcube.cli import dec10, main, rat


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestRenderers:
    def test_rat(self):
        assert rat(Fraction(6, 4)) == "3/2"
        assert rat(2) == "2"

    def test_dec10(self):
        assert dec10(Fraction(1, 2)) == "0.5000000000"
        assert dec10(Fraction(-1, 3)) == "-0.3333333333"
        assert dec10(13) == "13.0000000000"


class TestVerify:
    def test_q5(self, capsys):
        code, rep = run_json(capsys, "verify", "q5")
        assert code == 0
        assert rep["schema"] == 1
        assert rep["results"]["s1"] == "13/32"
        assert rep["results"]["occupancy"]["counts"] == [5, 13, 7, 7]
        assert rep["results"]["four_ninths_reference"] == "4/9"
        assert rep["results"]["s1_below_4_9"] is True
        assert all(rep["verdicts"].values())

    def test_kahn_default(self, capsys):
        code, rep = run_json(capsys, "verify", "kahn", "--p", "3/8")
        assert code == 0
        assert rep["results"]["q_formula"] == "468975/1048576"  # 937950/2^21 reduced
        assert rep["verdicts"]["s1_matches_formula"] is True

    def test_kahn_small(self, capsys):
        code, rep = run_json(capsys, "verify", "kahn", "--n", "5", "--l", "3")
        assert code == 0
        assert rep["results"]["q_formula"] == "15/32"

    def test_q21(self, capsys):
        code, rep = run_json(capsys, "verify", "q21")
        assert code == 0
        # the whole report, keys in order
        results = {
            "m": 7,
            "b": 3,
            "n": 21,
            "gadget_bias": "3/8",
            "counts": [786432, 786432, 786432],
            "z_pre_count": 678402,
            "z_pre_measure": "339201/1048576",
            "z_pre_measure_dec": "0.3234872818",
            "pool_count": 112500,
            "deficit": 108030,
            "pool_ceiling_measure": "395451/1048576",  # 790902/2^21 reduced
            "pool_ceiling_measure_dec": "0.3771314621",
            "target": 786432,
            "occupancy": {
                "counts": [593750, 937950, 275010, 290442],
                "densities": [
                    "296875/1048576",
                    "468975/1048576",
                    "137505/1048576",
                    "145221/1048576",
                ],
                "densities_dec": ["0.2831220627", "0.4472494125", "0.1311349869", "0.1384935379"],
                "bias": "1/2",
            },
            "s1_count": 937950,
            "s1": "468975/1048576",
            "s1_dec": "0.4472494125",
            "integer_cross_check": "9*937950 = 8441550 vs 4*2097152 = 8388608",
        }
        verdicts = {
            "counts_match_target": True,
            "deficit_within_pool": True,
            "ceiling_exceeds_target_density": True,
            "s1_exceeds_4_9": True,
        }
        assert list(rep["results"].items()) == list(results.items())
        assert list(rep["verdicts"].items()) == list(verdicts.items())
        assert code == 0


class TestBoundAndLP:
    def test_bound_point(self, capsys):
        code, rep = run_json(capsys, "bound", "--rho", "1/2")
        assert code == 0
        assert rep["results"]["bound"] == "1/2"

    def test_bound_with_maximizer(self, capsys):
        code, rep = run_json(capsys, "bound", "--rho", "3/8", "--maximize-tol", "1/1000")
        assert code == 0
        assert rep["results"]["bound"] == "45/88"
        rho = Fraction(rep["results"]["maximizer_rho"])
        assert abs(rho - Fraction(4142, 10000)) < Fraction(1, 100)

    def test_bound_sweep_csv(self, capsys):
        code, out, err = run(capsys, "bound", "--sweep", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,bound,bound_dec"
        assert len(lines) == 6
        assert lines[2].startswith("1/4,9/20,")

    def test_bound_needs_args(self, capsys):
        code, out, err = run(capsys, "bound")
        assert code == 2
        assert "error:" in err

    def test_lp(self, capsys):
        code, rep = run_json(capsys, "lp", "--rho", "1/2")
        assert code == 0
        assert rep["results"]["objective"] == "1/2"
        assert rep["results"]["profile"] == ["1/6", "1/2", "0", "1/3"]
        assert set(rep["results"]["tight_constraints"]) == {"s2_nonneg", "hk_bottom"}
        assert rep["verdicts"]["matches_closed_form"] is True

    def test_lp_degenerate_rho(self, capsys):
        code, out, err = run(capsys, "lp", "--rho", "1")
        assert code == 2
        assert "error:" in err


class TestQcurve:
    def test_points(self, capsys):
        code, rep = run_json(capsys, "qcurve", "--n", "7", "--l", "3", "--points", "1/3,3/8")
        assert code == 0
        rows = {row["p"]: row["q"] for row in rep["results"]["rows"]}
        assert rows["1/3"] == "4/9"
        assert rows["3/8"] == "468975/1048576"

    def test_grid_csv(self, capsys):
        code, out, err = run(capsys, "qcurve", "--n", "5", "--l", "2", "--grid", "4",
                             "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,q_dec,exceeds_4_9"
        assert len(lines) == 6

    def test_exceeds_4_9_is_strict(self, capsys):
        # q(7, 3, 1/3) is exactly 4/9, which does not exceed 4/9
        code, rep = run_json(capsys, "qcurve", "--n", "7", "--l", "3", "--points", "1/3,3/8")
        assert code == 0
        rows = {row["p"]: row["exceeds_4_9"] for row in rep["results"]["rows"]}
        assert rows == {"1/3": False, "3/8": True}

    def test_needs_grid_or_points(self, capsys):
        code, out, err = run(capsys, "qcurve", "--n", "7", "--l", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("qcurve", "--n", "7", "--l", "3", "--grid", "-2"), "--grid"),
            (("qcurve", "--n", "7", "--l", "3", "--grid", "0"), "--grid"),
            (("bound", "--sweep", "-3"), "--sweep"),
            (("bound", "--sweep", "0"), "--sweep"),
        ],
    )
    def test_grid_below_one_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be at least 1, got {argv[-1]}\n"

    @pytest.mark.parametrize("points", ["abc", "1/0", "1/3,x"])
    def test_bad_point_exit_2(self, capsys, points):
        code, out, err = run(capsys, "qcurve", "--n", "5", "--l", "3", "--points", points)
        assert code == 2 and out == ""
        assert "error: argument --points: not a rational" in err


class TestMeasureAndClosure:
    def test_measure(self, capsys, tmp_path):
        path = tmp_path / "dict.upset"
        uc.write_upset(uc.dictator(5, 1), path)
        code, rep = run_json(capsys, "measure", "--family", str(path), "--p", "3/8")
        assert code == 0
        assert rep["results"]["measure"] == "3/8"
        assert rep["results"]["count"] == 16
        assert rep["results"]["upward_closed"] is True

    def test_measure_missing_file(self, capsys):
        code, out, err = run(capsys, "measure", "--family", "/nonexistent/x.upset")
        assert code == 2
        assert "error:" in err

    def test_closure_stdout(self, capsys, tmp_path):
        path = tmp_path / "gen.upset"
        path.write_text("n=3\n1\n")
        code, out, err = run(capsys, "closure", str(path))
        assert code == 0
        assert out == "n=3\n1\n"
        # generators already closed upward: emitted text is the minimal set

    def test_closure_round_trip(self, capsys, tmp_path):
        src = tmp_path / "gen.upset"
        src.write_text("n=4\n2,3\n4\n")
        dst = tmp_path / "closed.upset"
        code, rep = run_json(capsys, "closure", str(src), "--out", str(dst))
        assert code == 0
        fam = uc.read_upset(dst)
        want = uc.up_closure(uc.family_from_points(*uc.parse_generators(src.read_text())))
        assert fam == want
        assert rep["results"]["closed_count"] == fam.count
        assert rep["results"]["was_already_closed"] is False

    def test_blocked_closure_and_measure_use_no_big_tables(self, capsys, tmp_path, monkeypatch):
        # n = 18 and 24 > BLOCK: closure, closedness, minimal points and the
        # biased measure must get by with the 2^BLOCK-bit tables, and no
        # 2^n-bit buffer may be split into blocks.
        for name in ("absent_masks", "level_masks"):
            table = getattr(setcube, name)

            def small_only(k, table=table, name=name):
                if k > setcube.BLOCK:
                    raise AssertionError(f"{name}({k}) built above BLOCK")
                return table(k)

            monkeypatch.setattr(setcube, name, small_only)
        split = setcube._split

        def small_split(n, data):
            if len(data) * 8 > 1 << setcube.BLOCK:
                raise AssertionError(f"a {len(data)}-byte buffer split above BLOCK")
            return split(n, data)

        monkeypatch.setattr(setcube, "_split", small_split)
        middle = "5,6,7,8,9,10,11,12,13,14,15,16"
        cases = [
            (18, ["1,2,17", "3,18", middle, "4,17,18"], ["3,18", "1,2,17", "4,17,18", middle]),
            (
                24,
                ["1,2,23", "3,24", middle, "4,17,18", "19,20,21,22", "1,2,3,23"],
                ["3,24", "4,17,18", "1,2,23", "19,20,21,22", middle],
            ),
        ]
        for n, gens, minimal in cases:
            src = tmp_path / f"gen{n}.upset"
            src.write_text(f"n={n}\n" + "\n".join(gens) + "\n")
            dst = tmp_path / f"closed{n}.upset"
            code, rep = run_json(capsys, "closure", str(src), "--out", str(dst))
            assert code == 0
            assert dst.read_text() == f"n={n}\n" + "\n".join(minimal) + "\n"
            code, rep = run_json(capsys, "measure", "--family", str(dst), "--p", "3/8")
            assert code == 0 and rep["results"]["upward_closed"] is True
            # inclusion-exclusion over the principal upsets of the generators
            sets = [set(map(int, g.split(","))) for g in minimal]
            p = Fraction(3, 8)
            want = sum(
                (-1) ** (k + 1) * sum(p ** len(set().union(*c)) for c in combinations(sets, k))
                for k in range(1, len(sets) + 1)
            )
            assert rep["results"]["measure"] == rat(want)

    def test_repeated_and_contained_generators(self, capsys, tmp_path):
        # a repeated line; generators containing another through a low
        # coordinate (same block) and through a top one (the block below)
        lines = ["1,2,23", "3,24", "1,2,23", "1,2,3,23", "3,4,24", "5,6,7,8,9,10,11,12,13,14,15,16"]
        lines += ["4,17,18", "4,17,18,19"]
        src = tmp_path / "gen.upset"
        src.write_text("n=24\n" + "\n".join(lines) + "\n")
        dst = tmp_path / "closed.upset"
        code, rep = run_json(capsys, "closure", str(src), "--out", str(dst))
        assert code == 0
        minimal = ["3,24", "4,17,18", "1,2,23", "5,6,7,8,9,10,11,12,13,14,15,16"]
        assert dst.read_text() == "n=24\n" + "\n".join(minimal) + "\n"
        sets = [set(map(int, g.split(","))) for g in minimal]
        count = sum(
            (-1) ** (k + 1) * sum(2 ** (24 - len(set().union(*c))) for c in combinations(sets, k))
            for k in range(1, len(sets) + 1)
        )
        assert count == 7145776
        assert rep["results"]["generators"] == 7
        assert rep["results"]["closed_count"] == count
        assert rep["results"]["was_already_closed"] is False
        code, out, err = run(capsys, "closure", str(src))
        assert code == 0 and out == dst.read_text()

    def test_blocked_path_never_joins(self, capsys, tmp_path, monkeypatch):
        # n = 18 > BLOCK: reading, closing, comparing, counting, measuring
        # and writing must all work on the 8 KiB blocks.
        n = 18
        for name in ("_join", "_blocks"):
            monkeypatch.setattr(setcube, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        src = tmp_path / "gen.upset"
        src.write_text(f"n={n}\n1,2,17\n1,2,3,17\n3,18\n{n}\n")
        dst = tmp_path / "closed.upset"
        code, rep = run_json(capsys, "closure", str(src), "--out", str(dst))
        assert code == 0
        assert dst.read_text() == f"n={n}\n{n}\n1,2,17\n"
        assert rep["results"]["generators"] == 4
        assert rep["results"]["closed_count"] == 2**17 + 2**15 - 2**14
        assert rep["results"]["was_already_closed"] is False
        code, rep = run_json(capsys, "measure", "--family", str(dst), "--p", "3/8")
        assert code == 0 and rep["results"]["upward_closed"] is True
        p = Fraction(3, 8)
        assert rep["results"]["measure"] == rat(p + p**3 - p**4)
        assert rep["results"]["count"] == 2**17 + 2**15 - 2**14
        # the top point alone is an upset: its raw family is already closed
        top = tmp_path / "top.upset"
        top.write_text(f"n={n}\n" + ",".join(map(str, range(1, n + 1))) + "\n")
        code, rep = run_json(capsys, "closure", str(top), "--out", str(tmp_path / "again.upset"))
        assert code == 0 and rep["results"]["was_already_closed"] is True
        assert (tmp_path / "again.upset").read_text() == top.read_text()

    def test_closure_text_is_parseable(self, capsys, tmp_path):
        path = tmp_path / "gen.upset"
        path.write_text("n=3\n1,2\n3\n")
        code, out, err = run(capsys, "closure", str(path))
        assert code == 0
        fam = uc.parse_upset(out)
        assert fam == uc.up_closure(uc.family_from_points(*uc.parse_generators(path.read_text())))


def test_result_past_the_digit_limit_exits_2(capsys):
    # the optimum's numerator and denominator have more than 4300 digits
    code, out, err = run(capsys, "lp", "--rho", f"1/{10**3000 + 1}")
    assert code == 2 and out == ""
    assert err.startswith("error: a result has more than ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "verb, suffix, content",
    [
        (("measure", "--family"), ".upset", b"n=3\n\xff\xfe\n"),
        (("closure",), ".upset", b"n=3\n\xff\xfe\n"),
        (("poset", "--file"), ".json", b""),
        (("poset", "--file"), ".json", b'{"elements":["a"],"covers":[],"weights":[1e400]}'),
    ],
    ids=["measure-not-utf8", "closure-not-utf8", "poset-empty", "poset-weight-overflow"],
)
def test_bad_input_file_exits_2(capsys, tmp_path, verb, suffix, content):
    path = tmp_path / f"input{suffix}"
    path.write_bytes(content)
    code, out, err = run(capsys, *verb, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestBuild:
    def test_dictator_inline(self, capsys):
        code, rep = run_json(capsys, "build", "dictator", "--n", "4", "--i", "2")
        assert code == 0
        assert rep["results"]["count"] == 8
        assert rep["results"]["upset_text"] == "n=4\n2\n"

    def test_threshold_file(self, capsys, tmp_path):
        out = tmp_path / "fams"
        code, rep = run_json(
            capsys, "build", "threshold", "--n", "5", "--l", "3", "--out", str(out)
        )
        assert code == 0
        (path,) = rep["results"]["files"]
        fam = uc.read_upset(path)
        assert fam == uc.threshold(5, 3)

    def test_dictator_needs_i(self, capsys):
        code, out, err = run(capsys, "build", "dictator", "--n", "4")
        assert code == 2

    def test_q5_triple_files(self, capsys, tmp_path):
        out = tmp_path / "q5"
        code, rep = run_json(capsys, "build", "q5", "--out", str(out))
        assert code == 0
        assert rep["results"]["counts"] == [16, 16, 16]
        assert len(rep["results"]["files"]) == 3
        t = uc.q5_triple()
        assert uc.read_upset(rep["results"]["files"][2]) == t.z

    def test_kahn(self, capsys):
        code, rep = run_json(capsys, "build", "kahn", "--n", "6", "--l", "2")
        assert code == 0
        assert rep["results"]["label"] == "kahn(n=6,l=2)"

    def test_q21_no_families(self, capsys):
        code, rep = run_json(capsys, "build", "q21")
        assert code == 0
        assert rep["results"]["counts"] == [786432, 786432, 786432]
        assert "files" not in rep["results"]

    def test_bad_params_exit_2(self, capsys):
        code, out, err = run(capsys, "build", "kahn", "--n", "5", "--l", "4")
        assert code == 2
        assert "error:" in err

    def test_kahn_needs_l(self, capsys):
        code, out, err = run(capsys, "build", "kahn", "--n", "7")
        assert code == 2 and out == ""
        assert err == "error: build kahn needs --l\n"

    @pytest.mark.parametrize("argv", [("threshold", "--l", "2"), ("dictator", "--i", "1")])
    def test_dimension_checked_before_allocation(self, capsys, monkeypatch, argv):
        # The limit is lowered so that a mask table skipping its check
        # would allocate 2^5 bits, never the 2^30-bit ints of --n 30.
        monkeypatch.setattr(setcube, "N_MAX", 4)
        for cached in (setcube.full_mask, setcube.absent_masks, setcube.level_masks):
            cached.cache_clear()
        code, out, err = run(capsys, "build", argv[0], "--n", "5", *argv[1:])
        assert code == 2 and out == ""
        assert err == "error: dimension 5 exceeds N_MAX=4\n"


class TestBlocksOnly:
    def test_headline_verbs_never_join_or_build_big_tables(self, capsys, tmp_path, monkeypatch):
        # verify q21 and build q21 (n = 21) and verify kahn at n = 24 keep
        # every family in its 8 KiB blocks: no 2^n-bit vector is split or
        # joined, and no mask table is built above BLOCK
        for name in ("_join", "_blocks"):
            monkeypatch.setattr(setcube, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        for name in ("absent_masks", "level_masks", "full_mask"):
            table = getattr(setcube, name)

            def small_only(k, table=table, name=name):
                if k > setcube.BLOCK:
                    raise AssertionError(f"{name}({k}) built above BLOCK")
                return table(k)

            for mod in (setcube, constructions, lift):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, small_only)
        code, rep = run_json(capsys, "verify", "q21")
        assert code == 0 and rep["results"]["s1_count"] == 937950
        out = tmp_path / "D"
        code, rep = run_json(capsys, "build", "q21", "--out", str(out))
        assert code == 0 and rep["results"]["counts"] == [786432] * 3
        assert uc.read_upset(out / "q21_z.upset").count == 786432
        code, rep = run_json(capsys, "verify", "kahn", "--n", "24", "--l", "3", "--p", "3/8")
        assert code == 0 and all(rep["verdicts"].values())
        assert rep["results"]["occupancy"]["counts"] == [254, 4194558, 8388123, 4194281]


class TestSearch:
    def test_small_run(self, capsys):
        code, rep = run_json(
            capsys, "search", "--n", "4", "--rho", "1/2", "--iters", "300",
            "--restarts", "2",
        )
        assert code == 0
        v = rep["verdicts"]
        assert v["families_upward_closed"] and v["equal_counts"] and v["s1_within_bound"]
        assert Fraction(rep["results"]["value"]) <= Fraction(1, 2)

    def test_stop_at(self, capsys):
        code, rep = run_json(
            capsys, "search", "--n", "5", "--rho", "1/2", "--iters", "20000",
            "--restarts", "8", "--stop-at", "13/32",
        )
        assert code == 0
        assert Fraction(rep["results"]["value"]) >= Fraction(13, 32)

    def test_min_part_objective(self, capsys):
        code, rep = run_json(
            capsys, "search", "--n", "4", "--rho", "1/2", "--objective", "min-part",
            "--iters", "300",
        )
        assert code == 0
        parts = [Fraction(s) for s in rep["results"]["part_measures"]]
        assert Fraction(rep["results"]["value"]) == min(parts)

    def test_unequal_biased_measures_leave_the_bound_out(self, capsys):
        # equal counts, but 1/5-measures 9/25, 177/625 and 177/625: the LP
        # bound at rho (9/28, below s1 = 256/625) does not apply
        code, rep = run_json(
            capsys, "search", "--n", "4", "--rho", "3/4", "--p", "1/5",
            "--restarts", "4", "--iters", "800",
        )
        assert code == 0
        assert rep["results"]["s1"] == "256/625" and rep["results"]["bound_at_rho"] == "9/28"
        assert rep["verdicts"] == {"families_upward_closed": True, "equal_counts": True}
        assert rep["notes"] == ["s1_within_bound is left out: the LP bound needs a common p-measure"]

    def test_equal_biased_measures_keep_the_bound(self, capsys):
        # Q_1 at rho 1/2 has one upset of count 1, so all three 1/3-measures are 1/3
        code, rep = run_json(
            capsys, "search", "--n", "1", "--rho", "1/2", "--p", "1/3", "--iters", "10",
        )
        assert code == 0 and rep["verdicts"]["s1_within_bound"] is True
        assert "notes" not in rep

    def test_bad_density(self, capsys):
        code, out, err = run(capsys, "search", "--n", "5", "--rho", "1/3")
        assert code == 2

    def test_negative_iterations(self, capsys):
        code, out, err = run(capsys, "search", "--n", "5", "--rho", "1/2", "--iters", "-5")
        assert code == 2
        assert "error:" in err and out == ""

    def test_restarts_are_streamed(self, capsys):
        # --stop-at does not bound the restarts (no restart may reach it), so
        # 10^9 of them are charged in full and refused before any runs;
        # best_of_restarts itself streams its seeds (see test_search)
        code, out, err = run(
            capsys, "search", "--n", "5", "--rho", "1/2", "--restarts", "1000000000",
            "--stop-at", "13/32", "--iters", "2000",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["30", "-1", "17"])
    def test_dimension_out_of_range(self, capsys, n):
        code, out, err = run(capsys, "search", "--n", n, "--rho", "1/2")
        assert code == 2
        assert "error:" in err and out == ""


class TestPoset:
    def test_diamond(self, capsys):
        code, rep = run_json(capsys, "poset", "--diamond", "--p", "3/8")
        assert code == 0
        r = rep["results"]
        assert r["upset_count"] == 10
        assert r["size3_pair_defect"] == "75/968"
        assert r["two_element_triple_occupancy"] == r["lp_optimal_profile"]
        v = rep["verdicts"]
        assert v["min_defect_nonneg"] and v["size3_pair_defect_formula"]
        assert v["two_element_triple_matches_lp"]

    def test_file_poset(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        chain = {"elements": ["lo", "hi"], "covers": [["lo", "hi"]], "weights": ["1/2", "1/2"]}
        path.write_text(json.dumps(chain))
        code, rep = run_json(capsys, "poset", "--file", str(path))
        assert code == 0
        assert rep["results"]["upset_count"] == 3
        assert rep["verdicts"]["min_defect_nonneg"] is True

    def test_antichain_fails_hk(self, capsys, tmp_path):
        path = tmp_path / "anti.json"
        antichain = {"elements": ["a", "b"], "covers": [], "weights": ["1/2", "1/2"]}
        path.write_text(json.dumps(antichain))
        code, out, err = run(capsys, "poset", "--file", str(path))
        assert code == 1  # honest failure: HK needs the cube's lattice structure
        rep = json.loads(out)
        assert rep["results"]["min_defect"] == "-1/4"
        assert rep["verdicts"]["min_defect_nonneg"] is False

    def test_needs_source(self, capsys):
        code, out, err = run(capsys, "poset")
        assert code == 2


class TestHKRandom:
    def test_deterministic(self, capsys):
        code1, rep1 = run_json(capsys, "hk-random", "--n", "6", "--trials", "50")
        code2, rep2 = run_json(capsys, "hk-random", "--n", "6", "--trials", "50")
        assert code1 == code2 == 0
        assert rep1 == rep2
        assert Fraction(rep1["results"]["min_defect"]) >= 0

    def test_biased(self, capsys):
        code, rep = run_json(
            capsys, "hk-random", "--n", "5", "--trials", "40", "--p", "2/7", "--seed", "3"
        )
        assert code == 0
        assert rep["verdicts"]["all_defects_nonneg"] is True

    def test_n_capped(self, capsys):
        code, out, err = run(capsys, "hk-random", "--n", "13")
        assert code == 2

    def test_negative_n_exits_2(self, capsys):
        code, out, err = run(capsys, "hk-random", "--n", "-1", "--trials", "2")
        assert code == 2 and out == ""
        assert err == "error: hk-random needs 0 <= n <= 12, got -1\n"

    def test_witness_is_first_least_trial(self, capsys):
        # n = 1 has few distinct upset pairs, so the least defect repeats
        code, rep = run_json(capsys, "hk-random", "--n", "1", "--trials", "30", "--p", "1/3")
        rng = random.Random(0)
        defects = []
        for _ in range(30):
            x, y = uc.random_upset(1, rng), uc.random_upset(1, rng)
            defects.append(uc.hk_defect(x, y, Fraction(1, 3)))
        assert defects.count(min(defects)) > 1
        assert rep["results"]["witness_trial"] == defects.index(min(defects))
        assert rep["results"]["min_defect"] == rat(min(defects))


class TestWorkBudget:
    """Oversized requests exit 2 before any work: the work itself is
    patched to fail, so a missing check fails the test instead of running."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kw):
            raise RuntimeError("work started")

        monkeypatch.setattr(cli, "random_upset", refuse)
        monkeypatch.setattr(cli, "occupancy", refuse)
        monkeypatch.setattr(cli.bounds, "s1_upper_bound", refuse)
        monkeypatch.setattr(cli.bounds, "bound_maximizer", refuse)
        monkeypatch.setattr(cli.constructions, "qcurve", refuse)
        monkeypatch.setattr(cli.search, "best_of_restarts", refuse)
        monkeypatch.setattr(cli.posets, "WeightedPoset", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("hk-random", "--n", "12", "--trials", str(10**8)),
            ("hk-random", "--n", "10", "--trials", str(cli.WORK_BUDGET // 1024 + 1)),
            ("bound", "--sweep", str(10**8)),
            ("bound", "--sweep", str(cli.WORK_BUDGET // cli.ROW_STEPS)),
            ("qcurve", "--n", "7", "--l", "3", "--grid", str(10**8)),
            ("search", "--n", "5", "--rho", "1/2", "--iters", str(10**11)),
            ("search", "--n", "5", "--rho", "1/2", "--iters", str(10**11), "--stop-at", "13/32"),
            # 100 x (100000 iterations + 2^5 + 4^5/1024 start-up) = 10003300
            ("search", "--n", "5", "--rho", "1/2", "--restarts", "100"),
            ("search", "--n", "5", "--rho", "1/2", "--restarts", str(10**9), "--stop-at", "13/32"),
            ("search", "--n", "5", "--rho", "1/2", "--restarts", str(10**9), "--stop-at", "1",
             "--iters", "1"),
            # 9000000 x 93 steps per iteration at n = 14, once charged 9000000
            ("search", "--n", "14", "--rho", "1/2", "--iters", "9000000"),
            # start-up alone: 2^16 + 4^16/1024 = 4259840 steps per restart
            ("search", "--n", "16", "--rho", "1/2", "--restarts", "3", "--iters", "0"),
            # a qcurve row costs n^2 steps once that exceeds ROW_STEPS
            ("qcurve", "--n", str(10**9), "--l", "3", "--grid", "2"),
            ("qcurve", "--n", "3163", "--l", "3", "--points", "1/3"),
            # about 17036 ternary rounds, charged 17036^3 / 2^14 steps
            ("bound", "--rho", "3/8", "--maximize-tol", f"1/{10**3000}"),
            # a 997-bit bias: 800^2 x (1 + 800 x 997^2 / 2^15) steps a row
            ("qcurve", "--n", "800", "--l", "3", "--points", f"1/{10**300 + 7}"),
            # a 13288-bit bias: 2^12 + (12 x 13288)^2 / 2^15 steps a trial
            ("hk-random", "--n", "12", "--trials", "20", "--p", f"1/{10**4000 + 7}"),
            # and 24^2 x (1 + 24 x 13288^2 / 2^15) steps for verify kahn's q_formula
            ("verify", "kahn", "--n", "24", "--l", "3", "--p", f"1/{10**4000 + 7}"),
        ],
    )
    def test_over_budget_exits_2(self, capsys, no_work, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("hk-random", "--n", "10", "--trials", str(cli.WORK_BUDGET // 1024)),
            ("bound", "--sweep", str(cli.WORK_BUDGET // cli.ROW_STEPS - 1)),
            ("qcurve", "--n", "7", "--l", "3", "--grid", str(cli.WORK_BUDGET // cli.ROW_STEPS - 1)),
            ("search", "--n", "5", "--rho", "1/2", "--restarts", "99"),
            ("search", "--n", "16", "--rho", "1/2", "--restarts", "2", "--iters", "0"),
            ("qcurve", "--n", "3162", "--l", "3", "--points", "1/3"),
            ("bound", "--rho", "3/8", "--maximize-tol", f"1/{10**900}"),
            ("qcurve", "--n", "50", "--l", "3", "--points", f"1/{10**300 + 7}"),
            ("hk-random", "--n", "12", "--trials", "12", "--p", f"1/{10**4000 + 7}"),
            # a 3322-bit bias: 24^2 x (1 + 8082) = 4655808 steps
            ("verify", "kahn", "--n", "24", "--l", "3", "--p", f"1/{10**1000 + 7}"),
            ("verify", "kahn", "--n", "7", "--l", "3", "--p", "37/64"),
        ],
    )
    def test_within_budget_starts_work(self, capsys, no_work, argv):
        with pytest.raises(RuntimeError, match="work started"):
            main(list(argv))

    def test_poset_file_size_checked_before_the_order(self, capsys, no_work, tmp_path):
        k = cli.posets.MAX_POSET + 1
        path = tmp_path / "big.json"
        labels = [f"e{i}" for i in range(k)]
        covers = [[labels[i + 1], labels[i]] for i in range(k - 1)]
        data = {"elements": labels, "covers": covers, "weights": [f"1/{k}"] * k}
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "poset", "--file", str(path))
        assert code == 2 and out == ""
        assert err == f"error: poset has {k} elements, limit {k - 1}\n"

    @staticmethod
    def _antichain(tmp_path, weights):
        path = tmp_path / "antichain.json"
        labels = [f"x{i}" for i in range(len(weights))]
        path.write_text(json.dumps({"elements": labels, "covers": [], "weights": weights}))
        return path

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*args, **kw):
            raise RuntimeError("work started")

        monkeypatch.setattr(cli.posets, "poset_hk_scan", refuse)

    @pytest.mark.parametrize("k, over", [(10, False), (11, True)])
    def test_poset_scan_charged_before_the_first_pair(self, capsys, no_scan, tmp_path, k, over):
        # an antichain of k elements has 2^k upsets: 2^k (2^k + 1) / 2 pairs
        # of 5 steps with weights 1/k, so at most 1999 upsets fit
        path = self._antichain(tmp_path, [f"1/{k}"] * k)
        if not over:
            with pytest.raises(RuntimeError, match="work started"):
                main(["poset", "--file", str(path)])
            return
        code, out, err = run(capsys, "poset", "--file", str(path))
        assert code == 2 and out == ""
        assert err == "error: a scan of more than 1999 upsets at 5 steps a pair exceeds the budget\n"

    def test_poset_enumeration_stops_at_the_budget(self, capsys, no_scan, tmp_path):
        # a 20-element antichain has 2^20 upsets, whose list took 145 MB of
        # RSS; the 2000 that show the scan is over budget take far less
        path = self._antichain(tmp_path, ["1/20"] * 20)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "poset", "--file", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: a scan of more than 1999 upsets")
        assert peak < 10 * 2**20, peak

    def test_poset_scan_charged_by_weight_size(self, capsys, no_scan, tmp_path):
        # 1024 upsets pass at 5 steps a pair, but with 300-digit weights a
        # pair costs about ten times as much
        big = 10**300 + 7
        weights = [f"{big // 10}/{big}"] * 9 + [f"{big - 9 * (big // 10)}/{big}"]
        code, out, err = run(capsys, "poset", "--file", str(self._antichain(tmp_path, weights)))
        assert code == 2 and out == ""
        assert err == "error: a scan of more than 666 upsets at 45 steps a pair exceeds the budget\n"


class TestPlumbing:
    def test_text_format(self, capsys):
        code, out, err = run(capsys, "bound", "--rho", "1/2", "--format", "text")
        assert code == 0
        assert "results.bound = 1/2" in out.splitlines()

    def test_csv_rejected_for_scalar_report(self, capsys):
        code, out, err = run(capsys, "bound", "--rho", "1/2", "--format", "csv")
        assert code == 2
        assert "error:" in err

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "bound", "--rho", "1/2", "--frobnicate")
        assert code == 2

    def test_bad_rational(self, capsys):
        code, out, err = run(capsys, "bound", "--rho", "one half")
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, out, err = run(capsys, "transmogrify")
        assert code == 2

    def test_no_verb(self, capsys):
        code, out, err = run(capsys)
        assert code == 2

    def test_no_assert_statements_in_src(self):
        # checks must survive python -O, which strips assert statements
        src = Path(cli.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name

    def test_shared_parser_matches_fresh_parser(self, capsys, monkeypatch):
        argvs = [
            ("search", "--n", "3", "--rho", "1/2", "--iters", "40", "--p", "1/3"),
            ("bound", "--rho", "1/3", "--format", "text"),
            ("bound", "--rho", "1/2", "--frobnicate"),
            ("search", "--n", "3", "--rho", "1/2", "--iters", "40"),
            ("verify", "q5"),
            ("lp", "--rho", "one half"),
            ("lp", "--rho", "1/3"),
            ("poset", "--diamond"),
        ]
        shared = [run(capsys, *argv) for argv in argvs]
        assert cli._shared_parser() is cli._shared_parser()
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in argvs]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2, 0, 0]


class TestOptimizedInterpreter:
    """`python -O` strips asserts, so every certificate must be an explicit
    check: the headline verbs give the same bytes and exit codes under it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "q5"),
            ("verify", "q21"),
            ("verify", "kahn", "--n", "7", "--l", "3", "--p", "3/8"),
            ("lp", "--rho", "1/2"),
            ("poset", "--diamond", "--p", "3/8"),
            ("bound", "--rho", "3/8", "--maximize-tol", "1/1000000000"),
            ("build", "q21", "--out", "D"),
            ("closure", "gen24.upset", "--out", "D/closed24.upset"),
        ],
        ids=" ".join,
    )
    def test_same_output_under_dash_o(self, tmp_path, argv):
        src = str(Path(uc.__file__).parents[1])
        rng = random.Random(24)
        gens = [",".join(map(str, sorted(rng.sample(range(1, 25), 12)))) for _ in range(60)]
        runs = []
        for flags in ([], ["-O"]):
            cwd = tmp_path / ("optimized" if flags else "plain")
            (cwd / "D").mkdir(parents=True)
            (cwd / "gen24.upset").write_text("n=24\n" + "\n".join(gens) + "\n")
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "upcube.cli", *argv],
                cwd=cwd,
                env={"PYTHONPATH": src},
                capture_output=True,
                timeout=120,
            )
            files = {p.name: p.read_bytes() for p in sorted(cwd.glob("D/*.upset"))}
            runs.append((proc.returncode, proc.stdout, proc.stderr, files))
        assert runs[0] == runs[1]
        code, out, err, files = runs[0]
        assert code == 0 and err == b"" and out
        assert len(files) == {"build": 3, "closure": 1}.get(argv[0], 0)
