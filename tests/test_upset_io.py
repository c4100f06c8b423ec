import random
from fractions import Fraction

import pytest
from hypothesis import given

import upcube as uc
from upcube.errors import NotUpwardClosed, UpsetFormatError

from cube_strategies import upsets
from oracles import naive_elements


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
    fam = uc.parse_upset("n=3\n1\n1,2\n", close=False)
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
    ],
)
def test_rejected_inputs(text):
    with pytest.raises(UpsetFormatError):
        uc.parse_upset(text)


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
