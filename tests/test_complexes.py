import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    trivial_filtration,
)
from weightlab.gf2 import BitMatrix, BitSubspace, rank_kernel_image
from weightlab.toric import standard_fan, toric_cell_complex

from oracles import betti_numbers, from_dense, matrix_to_dense, oracle_complex_diagnostics


def circle():
    # one vertex, one edge, zero boundary
    return ChainComplex.make({0: 1, 1: 1})


def interval():
    return ChainComplex.make(
        {0: 2, 1: 1}, {1: from_dense([[1], [1]])}
    )


def test_betti():
    assert circle().betti_numbers() == {0: 1, 1: 1}
    assert interval().betti_numbers() == {0: 1}


def test_betti_matches_oracle():
    cx = interval()
    dense = {k: matrix_to_dense(m) for k, m in cx.boundary.items()}
    assert betti_numbers(dict(cx.dims), dense) == {0: 1, 1: 0}


def test_diagnostics_nonsquaring_boundary():
    d2 = from_dense([[1], [0]])
    d1 = from_dense([[1, 1]])
    msgs = complex_diagnostics({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})
    assert any("square" in m for m in msgs)
    with pytest.raises(ComplexError):
        ChainComplex({0: 1, 1: 2, 2: 1}, {1: d1, 2: d2})


def test_diagnostics_shape_mismatch():
    msgs = complex_diagnostics({0: 1, 1: 1}, {1: BitMatrix.zero(2, 1)})
    assert msgs


# ∂∂ nonzero only in the last column of d_2; d_1 missing below a
# nonzero d_2; d_1 one row too tall.
_LAST_COLUMN = ({0: 1, 1: 2, 2: 3},
                {1: from_dense([[1, 1]]),
                 2: BitMatrix.from_columns(2, [0b11, 0b00, 0b01])})
_MISSING = ({0: 2, 1: 2, 2: 1},
            {2: from_dense([[1], [1]])})
_SHAPE = ({0: 1, 1: 2, 2: 1},
          {1: BitMatrix.zero(2, 2), 2: from_dense([[1], [1]])})


@pytest.mark.parametrize("case, messages", [
    (_LAST_COLUMN, ["boundary squared is nonzero at degree 2"]),
    (_MISSING, []),
    (_SHAPE, ["boundary shape mismatch in degree 1"]),
])
def test_diagnostics_cases_match_the_row_wise_oracle(case, messages):
    assert complex_diagnostics(*case) == oracle_complex_diagnostics(*case) == messages


@st.composite
def boundary_data(draw):
    """Dimensions and boundaries of a random graded complex.  Each degree's
    boundary composes to zero with the one below it (its columns drawn
    from that one's kernel), or is random, missing, one row too tall, or
    closed but for one entry flipped in its last column."""
    lo = draw(st.integers(-2, 2))
    dims = {k: draw(st.integers(0, 4)) for k in range(lo, lo + draw(st.integers(1, 4)))}
    boundary = {}
    for k in sorted(dims):
        kind = draw(st.sampled_from(["closed", "random", "missing", "shape", "flip"]))
        if kind == "missing":
            continue
        rows, cols = dims.get(k - 1, 0) + (kind == "shape"), dims[k]
        below = boundary.get(k - 1)
        if kind in ("closed", "flip") and below is not None and below.cols == rows:
            kernel = rank_kernel_image(below)[1].basis
            columns = []
            for _ in range(cols):
                v = 0
                for b in draw(st.lists(st.sampled_from(kernel), max_size=3)) if kernel else ():
                    v ^= b
                columns.append(v)
        else:
            columns = [draw(st.integers(0, (1 << rows) - 1)) for _ in range(cols)]
        if kind == "flip" and rows and cols:
            columns[-1] ^= 1 << draw(st.integers(0, rows - 1))
        boundary[k] = BitMatrix.from_columns(rows, columns)
    return dims, boundary


@given(boundary_data())
def test_diagnostics_match_the_row_wise_oracle(case):
    assert complex_diagnostics(*case) == oracle_complex_diagnostics(*case)


def test_validation_forms_no_product_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product matrix was formed")

    monkeypatch.setattr(BitMatrix, "mul", refuse)
    tcc = toric_cell_complex(standard_fan("P", 3))
    assert tcc.complex.betti_numbers() == {0: 1, 1: 1, 2: 1, 3: 1}


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
    # with the unit basis (basis None) the coordinates are u, w themselves
    with pytest.raises(ComplexError, match="at p=0, degree 1"):
        FilteredComplex(cx, (0, 1), None, {0: (0, 1), 1: (0,)})
    fc = FilteredComplex(cx, (0, 1), None, {0: (0, 0), 1: (0,)})
    assert fc.boundary_columns(1) == [0b11] and fc.coordinates(0, 0b10) == 0b10
    assert fc.level(0, 0) == BitSubspace.full(2)


@pytest.mark.parametrize("levels, message", [
    ((0,), "not an adapted basis"),         # one level for two coordinates
    ((0, 0, 0), "not an adapted basis"),
    ((1, 0), "not ascending"),
    ((0, 1), "not exhaustive at p=0"),
])
def test_unit_basis_shape(levels, message):
    with pytest.raises(ComplexError, match=message):
        FilteredComplex(ChainComplex.make({0: 2}), (-1, 0), None, {0: levels})


def test_doc_round_trip():
    cx = interval()
    assert complex_from_doc(complex_to_doc(cx)).boundary[1] == cx.boundary[1]
    fc = canonical_filtration(cx)
    doc = filtered_to_doc(fc)
    back = filtered_from_doc(json.loads(json.dumps(doc)))
    for p in range(-2, 2):
        for k in (0, 1):
            assert back.level(p, k).basis == fc.level(p, k).basis


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
    """The interval, two degrees up."""
    cx = ChainComplex.make({2: 2, 3: 1}, {3: from_dense([[1], [1]])})
    assert cx.degrees() == [2, 3]
    assert cx.betti_numbers() == {2: 1}
