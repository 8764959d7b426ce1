import json

import pytest

from weightlab.complexes import (
    ChainComplex,
    ComplexError,
    FilteredComplex,
    canonical_filtration,
    complex_diagnostics,
    complex_from_doc,
    complex_to_doc,
    deligne_shift,
    filtered_from_doc,
    filtered_to_doc,
    load_filtered,
    trivial_filtration,
)
from weightlab.gf2 import BitMatrix, BitSubspace

from oracles import betti_numbers, matrix_to_dense


def circle():
    # one vertex, one edge, zero boundary
    return ChainComplex.make({0: 1, 1: 1})


def interval():
    return ChainComplex.make(
        {0: 2, 1: 1}, {1: BitMatrix.from_dense([[1], [1]])}
    )


def test_betti():
    assert circle().betti_numbers() == {0: 1, 1: 1}
    assert interval().betti_numbers() == {0: 1}


def test_betti_matches_oracle():
    cx = interval()
    dense = {k: matrix_to_dense(m) for k, m in cx.boundary.items()}
    assert betti_numbers(dict(cx.dims), dense) == {0: 1, 1: 0}


def test_diagnostics_nonsquaring_boundary():
    d2 = BitMatrix.from_dense([[1], [0]])
    d1 = BitMatrix.from_dense([[1, 1]])
    msgs = complex_diagnostics({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    assert any("square" in m for m in msgs)
    with pytest.raises(ComplexError):
        ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_diagnostics_shape_mismatch():
    msgs = complex_diagnostics({0: 1, 1: 1}, {1: BitMatrix.zero(2, 1)})
    assert msgs


def test_canonical_filtration_levels():
    cx = circle()
    fc = canonical_filtration(cx)
    assert fc.p_range == (-1, 0)
    # F_0 at degree 0 is the cycles (= everything here), F_{-1} at 0 is zero
    assert fc.level(0, 0).dim == 1
    assert fc.level(-1, 0).dim == 0
    assert fc.level(-1, 1).dim == 1  # degree 1 > -p for p = -1
    assert fc.level(-5, 1).dim == 0  # below the range everything clamps to 0
    assert fc.level(7, 1).dim == 1


def test_filtration_diagnostics_monotone():
    cx = ChainComplex.make({0: 2})
    bad = {
        0: {0: BitSubspace.span(2, [0b01])},
        1: {0: BitSubspace.span(2, [0b10])},
    }
    with pytest.raises(ComplexError, match="not monotone at p=1, degree 0"):
        FilteredComplex.from_subspaces(cx, bad)


def test_filtration_diagnostics_boundary():
    cx = interval()
    bad = {
        -1: {0: BitSubspace.zero(2), 1: BitSubspace.full(1)},
        0: {0: BitSubspace.full(2), 1: BitSubspace.full(1)},
    }
    with pytest.raises(ComplexError,
                       match="boundary does not preserve filtration at p=-1, degree 1"):
        FilteredComplex.from_subspaces(cx, bad)


def test_filtered_from_levels_fills_slots():
    cx = interval()
    fc = FilteredComplex.from_subspaces(cx, {0: {0: BitSubspace.full(2)}, 1: {}})
    assert fc.level(0, 1).dim == 0  # inherited zero
    assert fc.level(1, 1).dim == 1  # top level defaults to full


def test_filtration_not_exhaustive():
    cx = interval()
    with pytest.raises(ComplexError, match="not exhaustive in degree 0"):
        FilteredComplex.from_subspaces(cx, {0: {0: BitSubspace.span(2, [0b01])}})


def test_missing_level_inherits_the_level_below():
    cx = ChainComplex.make({0: 2})
    fc = FilteredComplex.from_subspaces(
        cx, {0: {0: BitSubspace.span(2, [0b01])}, 2: {0: BitSubspace.full(2)}})
    assert fc.p_range == (0, 2)
    assert fc.level(1, 0) == fc.level(0, 0) == BitSubspace.span(2, [0b01])
    assert fc.basis[0] == (0b01, 0b10) and fc.levels[0] == (0, 2)


@pytest.mark.parametrize("basis, levels, message", [
    ((0b11, 0b10), (0, 0), None),                  # valid: lowest bits 0 and 1
    ((0b11, 0b01), (0, 0), "not an adapted basis"),  # lowest bit 0 twice
    ((0b01,), (0,), "not an adapted basis"),         # too few vectors
    ((0b01, 0b100), (0, 0), "not an adapted basis"),  # outside the degree
    ((0b01, 0b10), (1, 0), "not ascending"),
    ((0b01, 0b10), (-2, 0), "not ascending from p=-1"),
    ((0b01, 0b10), (0, 1), "not exhaustive at p=0"),
])
def test_adapted_basis_shape(basis, levels, message):
    cx = ChainComplex.make({0: 2})
    if message is None:
        assert FilteredComplex(cx, (-1, 0), {0: basis}, {0: levels}).level(0, 0).dim == 2
    else:
        with pytest.raises(ComplexError, match=message):
            FilteredComplex(cx, (-1, 0), {0: basis}, {0: levels})


def test_boundary_raising_a_level_is_rejected_in_any_basis():
    # the edge's boundary u + w has coordinates 0b11 in the basis (u+w, w)
    cx = interval()
    FilteredComplex(cx, (0, 1), {0: (0b11, 0b10), 1: (0b1,)}, {0: (0, 1), 1: (0,)})
    with pytest.raises(ComplexError, match="at p=0, degree 1"):
        FilteredComplex(cx, (0, 1), {0: (0b01, 0b10), 1: (0b1,)}, {0: (0, 1), 1: (0,)})


def test_doc_round_trip(tmp_path):
    cx = interval()
    assert complex_from_doc(complex_to_doc(cx)).boundary[1].row_data == \
        cx.boundary[1].row_data
    fc = canonical_filtration(cx)
    doc = filtered_to_doc(fc)
    back = filtered_from_doc(json.loads(json.dumps(doc)))
    for p in range(-2, 2):
        for k in (0, 1):
            assert back.level(p, k).basis == fc.level(p, k).basis
    path = tmp_path / "fc.json"
    path.write_text(json.dumps(doc))
    assert load_filtered(str(path)).level(0, 0).basis == fc.level(0, 0).basis


def test_deligne_shift_is_valid_filtration():
    fc = trivial_filtration(interval())
    shifted = deligne_shift(fc)
    assert not shifted.diagnostics()
    # shifting the trivial filtration yields the canonical one level-by-level
    canon = canonical_filtration(interval())
    for k in (0, 1):
        for p in range(-3, 3):
            assert shifted.level(p, k).basis == canon.level(p, k).basis


def test_shift():
    cx = interval().shift(2)
    assert cx.degrees() == [2, 3]
    assert cx.betti_numbers() == {2: 1}
