import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

import upcube as uc
from upcube import upset_io
from upcube.errors import NotUpwardClosed, UpsetFormatError

from cube_strategies import upsets
from oracles import naive_elements, naive_parse_upset


def test_format_basic():
    fam = uc.up_closure(uc.family_from_points(3, [0b001, 0b110]))
    assert uc.format_upset(fam) == "n=3\n1\n2,3\n"


def test_parse_takes_closure():
    fam = uc.parse_upset("n=3\n1\n")
    assert fam.count == 4
    # generators need not form an antichain; redundant lines are fine
    same = uc.parse_upset("n=3\n1\n1,2\n1,2,3\n")
    assert same == fam


def test_parse_without_closure():
    n, points = uc.parse_generators("n=3\n1\n1,2\n1\n")
    assert (n, points) == (3, [0b001, 0b011, 0b001])
    fam = uc.family_from_points(n, points)
    assert fam.count == 2
    assert not uc.is_upward_closed(fam)


def test_empty_set_line_means_full_cube():
    assert uc.parse_upset("n=4\n{}\n").count == 16


def test_header_only_means_empty_family():
    assert uc.parse_upset("n=4\n").count == 0
    assert uc.format_upset(uc.empty_family(4)) == "n=4\n"


def test_whitespace_and_blank_lines_tolerated():
    fam = uc.parse_upset("\n  n = 3 \n\n 1 , 2 \n\n")
    assert fam == uc.up_closure(uc.family_from_points(3, [0b011]))


def test_unsorted_elements_accepted():
    assert uc.parse_upset("n=3\n3,1\n") == uc.parse_upset("n=3\n1,3\n")


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "m=3\n1\n",  # wrong key
        "n=3x\n",  # trailing junk
        "n=25\n",  # beyond N_MAX
        "n=3\n1,1\n",  # duplicate element
        "n=3\n0\n",  # out of range low
        "n=3\n4\n",  # out of range high
        "n=3\na,b\n",  # not integers
        "n=3\n1;2\n",  # wrong separator
        pytest.param("n=" + "9" * 5000 + "\n", id="n=9x5000"),  # past int()'s digit limit
    ],
)
def test_rejected_inputs(text):
    with pytest.raises(UpsetFormatError):
        uc.parse_upset(text)


def test_header_digits_checked_before_conversion():
    with pytest.raises(UpsetFormatError, match="exceeds N_MAX=24"):
        uc.parse_upset("n=" + "9" * 5000 + "\n")
    # leading zeros, of any script, do not count
    three = uc.parse_upset("n=3\n1\n")
    for header in ("n=03", "n=" + "0" * 5000 + "3", "n=\u0660\u0660\u0663"):
        assert uc.parse_upset(header + "\n1\n") == three
    assert uc.parse_upset("n=024\n").n == 24


# Lines for the reader/oracle property: canonical labels in any order, the
# spellings only int() reads, and malformed lines of every kind.
LENIENT = (" 2 ", "03", "+1", "1_0", "\u0663")
MALFORMED = ("1,01", "0", "2,1,2", "1,,2", "1,2,", "{},1", "{},{}", "9" * 5000, "a", "1;2", "-1")


@st.composite
def upset_texts(draw) -> str:
    n = draw(st.integers(0, 9))
    header = draw(st.sampled_from((f"n={n}", f" n = {n} ", f"n=0{n}")))

    def canonical():
        return ",".join(map(str, draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]))

    def line():
        kind = draw(st.sampled_from(("canonical", "lenient", "malformed", "out", "blank")))
        if kind == "canonical":
            return canonical() or "{}"
        if kind == "lenient":
            return ",".join(filter(None, (canonical(), draw(st.sampled_from(LENIENT)))))
        if kind == "malformed":
            return draw(st.sampled_from(MALFORMED))
        if kind == "out":
            return str(n + 1)
        return draw(st.sampled_from(("", "  ")))

    lines = [line() for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):  # a bad line after many good ones
        bad = draw(st.sampled_from((*MALFORMED, str(n + 1))))
        lines = [canonical() or "{}" for _ in range(50)] + [bad]
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join([header, *lines]) + end


def outcome(parse, text):
    try:
        return parse(text)
    except UpsetFormatError as exc:
        return type(exc), str(exc)


def generator_family(text):
    return uc.family_from_points(*uc.parse_generators(text))


@given(upset_texts(), st.booleans())
def test_parse_matches_per_line_oracle(text, close):
    # close=False: the generator reader against the oracle's bare generators
    reader = uc.parse_upset if close else generator_family
    assert outcome(reader, text) == outcome(lambda t: naive_parse_upset(t, close), text)


def test_canonical_files_never_leave_the_label_table(monkeypatch, q21):
    def refuse(ln, n):
        raise AssertionError(f"line {ln!r} left the label table")

    rng = random.Random(14)
    fams = [
        uc.up_closure(uc.family_from_points(n, [rng.randrange(1 << n) for _ in range(k)]))
        for n in (0, 1, 5, 16, 17)
        for k in (0, 1, 40)
    ]
    fams.append(q21[0].z)
    sparse24 = uc.family_from_points(24, [rng.randrange(1 << 24) for _ in range(20)])
    fams.append(uc.up_closure(sparse24))
    texts = [uc.format_upset(fam) for fam in fams]
    monkeypatch.setattr(upset_io, "_parse_line", refuse)
    for fam, text in zip(fams, texts):
        assert uc.parse_upset(text) == fam
        gens = uc.family_from_points(fam.n, uc.minimal_elements(fam))
        assert generator_family(text) == gens


def test_writer_requires_closed_family(tmp_path):
    ragged = uc.family_from_points(3, [0b011])
    with pytest.raises(NotUpwardClosed):
        uc.format_upset(ragged)


def test_file_round_trip(tmp_path):
    fam = uc.up_closure(uc.family_from_points(5, [0b00111, 0b11000]))
    path = tmp_path / "fam.upset"
    uc.write_upset(fam, path)
    assert uc.read_upset(path) == fam


@given(upsets())
def test_text_round_trip(fam):
    assert uc.parse_upset(uc.format_upset(fam)) == fam


@given(upsets(max_n=5))
def test_canonical_generator_order(fam):
    from upcube.setcube import mask_from_elements

    lines = uc.format_upset(fam).splitlines()[1:]
    keys = []
    for ln in lines:
        elems = () if ln == "{}" else tuple(int(t) for t in ln.split(","))
        assert list(elems) == sorted(elems)
        mask = mask_from_elements(elems, fam.n)
        keys.append((mask.bit_count(), mask))
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 24])
def test_format_matches_element_join(n):
    # The byte label tables against a per-element join.
    rng = random.Random(n)
    fam = uc.up_closure(uc.family_from_points(n, [rng.randrange(1 << n) for _ in range(30)]))
    lines = [",".join(map(str, naive_elements(m))) or "{}" for m in uc.minimal_elements(fam)]
    assert uc.format_upset(fam) == "\n".join([f"n={n}", *lines]) + "\n"
