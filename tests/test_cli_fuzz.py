"""Fuzz gate for the CLI: every verb, drawn from a small grammar of argv and
input files, must exit honestly.

`cli.main` runs in-process.  Dimensions stay at n <= 8; the oversized
values (n past a cap, counts past the work budget, an .upset header past
N_MAX) are ones that a pre-check refuses before anything is allocated.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from upcube import cli


def pool(*values):
    return st.sampled_from(values)


# Good and bad values; "10**k" stands for a count far past every budget.
DIM, BAD_DIM = pool(*map(str, range(9))), pool("-1", "25", "10**9", "x")
LEVEL, BAD_LEVEL = pool("1", "2", "3"), pool("0", "-1", "9", "x")
RAT = pool("0", "1", "1/2", "3/8", "1/3", "2/7", "13/32", "0.25")
BAD_RAT = pool("-1/3", "5/3", "1/0", "abc", "1e400", f"1/{10**3000 + 1}")
COUNT, BAD_COUNT = pool("1", "2", "3"), pool("-5", "0", "10**12", "x")
ITERS, BAD_ITERS = pool("0", "1", "30"), pool("-5", "10**12")


@st.composite
def good_upset(draw) -> tuple[str, bytes]:
    n = draw(st.integers(0, 8))
    gens = draw(st.lists(st.sets(st.integers(1, n)) if n else st.just(set()), max_size=5))
    lines = "".join(f"{','.join(map(str, sorted(g))) if g else '{}'}\n" for g in gens)
    return "family.upset", f"n={n}\n{lines}".encode()


BAD_UPSET = st.tuples(
    st.just("family.upset"),
    st.one_of(
        pool(
            b"",
            b"n=3\n\xff\xfe\n",
            b"\x80n=1\n",
            b"n=2\n1\xc3\n",
            b"n=abc\n",
            b"n=25\n1\n",
            b"n=99999999999999999999\n",
            b"n=" + b"9" * 5000 + b"\n",
            b"n=3\n1,1\n",
            b"n=3\n4\n",
            b"n=3\n0\n",
            b"n=3\n-1\n",
            b"n=3\n1,,2\n",
            b"1,2\nn=3\n",
        ),
        # random bytes, mostly ending in a byte that is not UTF-8
        st.tuples(st.binary(max_size=16), pool(b"\xff", b"\xc3", b"")).map(b"".join),
        st.text("n=0123456789,{}\n -", max_size=24).map(str.encode),
    ),
)


def antichain(weights: list[str]) -> bytes:
    labels = [f"x{i}" for i in range(len(weights))]
    return json.dumps({"elements": labels, "covers": [], "weights": weights}).encode()


# Well-formed posets whose scan is over the work budget: 2^20 upsets, and
# 2^10 upsets whose 300-digit weights make each pair cost ten times more.
BIG = 10**300 + 7
HUGE_POSETS = (
    antichain(["1/20"] * 20),
    antichain([f"{BIG // 10}/{BIG}"] * 9 + [f"{BIG - 9 * (BIG // 10)}/{BIG}"]),
)
# the two-element antichain is a well-formed poset on which Harris-Kleitman
# fails: exit 1
POSET = st.tuples(
    st.just("poset.json"),
    pool(
        b'{"elements": ["lo", "hi"], "covers": [["lo", "hi"]], "weights": ["1/2", "1/2"]}',
        b'{"elements": ["a", "b"], "covers": [], "weights": ["1/2", "1/2"]}',
        *HUGE_POSETS,
    ),
)
BAD_POSET = st.tuples(
    st.just("poset.json"),
    pool(
        b'{"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]], "weights": ["1/2", "1/2"]}',
        b'{"elements": ["a"], "covers": [["a", "z"]], "weights": ["1"]}',
        b'{"elements": ["a", "a"], "covers": [], "weights": ["1/2", "1/2"]}',
        b'{"elements": ["a"], "covers": [], "weights": ["1/3"]}',
        b'{"elements": ["a"], "covers": [], "weights": [1e400]}',
        b'{"elements": ["a"], "covers": [], "weights": ["x"]}',
        b'{"elements": "ab", "covers": 3, "weights": null}',
        b'{"elements": [["a"]], "covers": [], "weights": ["1"]}',
        b'{"elements": ["a"]}',
        b"[1, 2]",
        b"{",
        b"",
        b"\xff\xfe",
    ),
)
POINTS = st.lists(RAT, min_size=1, max_size=3).map(",".join)
BAD_POINTS = st.tuples(POINTS, BAD_RAT).map(",".join)


def opt(flag, good, bad=None):
    return flag, good, bad, False


def req(flag, good, bad=None):
    return flag, good, bad, True


# verb -> slots (flag, good values, bad values, required); flag None is a
# positional argument and a good value None a switch.  Required slots are
# always given: --iters and --trials are among them, so that no default of
# 10^5 iterations or 10^3 trials runs.
VERBS = {
    "verify": [
        req(None, pool("q5", "kahn", "q21")),
        opt("--n", DIM, BAD_DIM), opt("--l", LEVEL, BAD_LEVEL), opt("--p", RAT, BAD_RAT),
    ],
    "measure": [req("--family", good_upset(), BAD_UPSET), opt("--p", RAT, BAD_RAT)],
    "closure": [req(None, good_upset(), BAD_UPSET), opt("--out", st.just("out.upset"))],
    "bound": [
        opt("--rho", RAT, BAD_RAT),
        opt("--sweep", COUNT, BAD_COUNT),
        opt("--maximize-tol", pool("1/100", "1/2"), pool("0", "-1")),
    ],
    "lp": [req("--rho", RAT, BAD_RAT)],
    "qcurve": [
        req("--n", DIM, BAD_DIM), req("--l", LEVEL, BAD_LEVEL),
        opt("--grid", COUNT, BAD_COUNT), opt("--points", POINTS, BAD_POINTS),
    ],
    "build": [
        req(None, pool("dictator", "threshold", "q5", "kahn", "q21")),
        opt("--n", DIM, BAD_DIM), opt("--l", LEVEL, BAD_LEVEL), opt("--i", LEVEL, BAD_LEVEL),
        opt("--out", st.just("built")),
    ],
    "search": [
        req("--n", DIM, BAD_DIM),
        req("--rho", RAT, BAD_RAT),
        opt("--objective", pool("s1", "min-part"), pool("max")),
        opt("--p", RAT, BAD_RAT),
        opt("--seed", pool("0", "1", "-3", "7")),
        req("--iters", ITERS, BAD_ITERS),
        opt("--restarts", COUNT, BAD_COUNT),
        opt("--stop-at", RAT, BAD_RAT),
        opt("--out", st.just("found")),
    ],
    "poset": [
        opt("--diamond", st.none()), opt("--file", POSET, BAD_POSET), opt("--p", RAT, BAD_RAT),
    ],
    "hk-random": [
        req("--n", DIM, BAD_DIM), req("--trials", COUNT, BAD_COUNT),
        opt("--seed", pool("0", "1", "-3", "7")), opt("--p", RAT, BAD_RAT),
    ],
}
FORMAT = opt("--format", pool("json", "text", "csv"), pool("xml"))
OUTPUTS = ("out.upset", "built", "found")


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, bytes]]:
    """(argv, files).  Half the invocations take one bad value, in a slot
    drawn at random, so that each bad value meets an otherwise valid call.
    argv names each file by its key and each output by a name in OUTPUTS;
    both become paths in a fresh directory."""
    verb = draw(st.sampled_from(sorted(VERBS)))
    slots = [*VERBS[verb], FORMAT]
    can_fail = [i for i, slot in enumerate(slots) if slot[2] is not None]
    bad_slot = draw(st.one_of(st.none(), st.sampled_from(can_fail)))
    argv, files = [verb], {}
    for i, (flag, good, bad, required) in enumerate(slots):
        if i == bad_slot:
            value = draw(bad)
        elif required or draw(st.booleans()):
            value = draw(good)
        else:
            continue
        if isinstance(value, tuple):  # (file name, content)
            files[value[0]] = value[1]
            value = value[0]
        argv += [a for a in (flag, value) if a is not None]
    argv = [str(10 ** int(a[4:])) if a.startswith("10**") else a for a in argv]
    return argv, files


def _verdicts(argv: list[str], out: str) -> list[bool] | None:
    """The verdicts of the report on stdout, or None if it carries none."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json" and out.startswith("{"):
        return list(json.loads(out).get("verdicts", {}).values())
    if fmt == "text":
        lines = [ln for ln in out.splitlines() if ln.startswith("verdicts.")]
        return [ln.rsplit(" = ", 1)[1] == "True" for ln in lines]
    return None


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# a header past int()'s 4300-digit limit, checked before it is converted
@example((["measure", "--family", "family.upset"], {"family.upset": b"n=" + b"9" * 5000 + b"\n"}))
# each poset scan over the budget, refused before its first pair
@example((["poset", "--file", "poset.json"], {"poset.json": HUGE_POSETS[0]}))
@example((["poset", "--file", "poset.json"], {"poset.json": HUGE_POSETS[1]}))
# a bias whose size puts a qcurve row, a hk-random trial or verify kahn's
# q_formula over the budget
@example((["qcurve", "--n", "800", "--l", "3", "--points", f"1/{BIG}"], {}))
@example((["hk-random", "--n", "12", "--trials", "20", "--p", f"1/{10**4000 + 7}"], {}))
@example((["verify", "kahn", "--n", "24", "--l", "3", "--p", f"1/{10**4000 + 7}"], {}))
def test_every_exit_is_honest(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a) if a in (*files, *OUTPUTS) else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
    if code == 2:
        assert sum("error:" in ln for ln in err.splitlines()) == 1, (argv, err)
        assert out == "", (argv, out)
        return
    assert err == "", (argv, err)
    verdicts = _verdicts(argv, out)
    if code == 1:
        assert verdicts is not None and not all(verdicts), (argv, out)
    elif verdicts is not None:
        assert all(verdicts), (argv, out)
