import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weightlab.gf2 import (
    BitMatrix,
    BitSubspace,
    DimensionError,
    Quotient,
    reduce_mod,
    rref,
    rref_prefixes,
    vec_from_bits,
    vec_from_string,
    vec_to_string,
)

import oracles
from oracles import (
    dense_rank,
    from_dense,
    image_of_subspace,
    intersect,
    inverse,
    matrix_to_dense,
    preimage,
    rank_kernel_image,
    span_vectors,
    subspace_from_bits,
    subspace_sum,
)


vectors6 = st.lists(st.integers(0, 63), max_size=8)


def test_vec_string_round_trip():
    assert vec_from_string("1011") == 0b1101
    assert vec_to_string(0b1101, 4) == "1011"
    assert vec_from_bits([1, 0, 1]) == 0b101
    for v in range(16):
        assert vec_from_string(vec_to_string(v, 4)) == v


@given(st.integers(0, 300), st.integers(0, 2 ** 320 - 1))
def test_vec_to_string_matches_one_shift_per_coordinate(width, v):
    # Widths from 0, and vectors both narrower and wider than the width.
    assert vec_to_string(v, width) == oracles.vec_to_string(v, width)


@pytest.mark.parametrize("bad", ["x1", "1 0", 101, ["1"]])
def test_vec_from_string_rejects_other_characters(bad):
    with pytest.raises(ValueError):
        vec_from_string(bad)


@given(vectors6)
def test_rref_preserves_span(vs):
    basis = rref(vs)
    dense = [[(v >> j) & 1 for j in range(6)] for v in vs]
    dense_basis = [[(v >> j) & 1 for j in range(6)] for v in basis]
    assert span_vectors(dense, 6) == span_vectors(dense_basis, 6)
    # echelon: strictly increasing pivots, each pivot cleared elsewhere
    pivots = [v & -v for v in basis]
    assert pivots == sorted(pivots)
    for i, v in enumerate(basis):
        for j, w in enumerate(basis):
            if i != j:
                assert w & pivots[i] == 0


@given(vectors6)
def test_rref_canonical_under_shuffle(vs):
    shuffled = list(vs)
    random.Random(0).shuffle(shuffled)
    assert rref(vs) == rref(shuffled)


@given(vectors6, st.data())
def test_rref_prefixes_are_the_rrefs_of_the_prefixes(vs, data):
    ends = sorted(data.draw(st.sets(st.integers(0, len(vs)))))
    assert rref_prefixes(vs, ends) == [rref(vs[:e]) for e in ends]


def test_reduce_mod():
    basis = rref([0b011, 0b101])
    assert reduce_mod(0b011, basis) == 0
    assert reduce_mod(0b110, basis) == 0
    assert reduce_mod(0b100, basis) != 0 or 0b100 in span_vectors(
        [[1, 1, 0], [1, 0, 1]]
    )


@st.composite
def bit_matrices(draw, max_dim=6):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    columns = draw(st.lists(st.integers(0, 2**r - 1), min_size=c, max_size=c))
    return BitMatrix(r, c, tuple(columns))


@given(bit_matrices())
def test_rank_matches_dense_oracle(m):
    dense = matrix_to_dense(m)
    expected = dense_rank(dense) if dense and dense[0] else 0
    assert m.rank() == expected


@given(bit_matrices(4), bit_matrices(4))
def test_mul_matches_dense(a, b):
    if a.cols != b.rows:
        with pytest.raises(DimensionError):
            a.mul(b)
        return
    prod = a.mul(b)
    da, db = matrix_to_dense(a), matrix_to_dense(b)
    for i in range(prod.rows):
        for j in range(prod.cols):
            want = sum(da[i][k] * db[k][j] for k in range(a.cols)) % 2
            assert prod.entry(i, j) == want


@given(bit_matrices(), st.data())
def test_column_kernels_match_dense(m, data):
    dense = matrix_to_dense(m)
    cols = [sum(dense[i][j] << i for i in range(m.rows)) for j in range(m.cols)]
    assert list(m.col_data) == cols
    assert BitMatrix.from_columns(m.rows, cols) == m
    assert from_dense(dense, m.cols) == m
    x = data.draw(st.integers(0, 2**m.cols - 1))
    want = [sum(dense[i][j] * ((x >> j) & 1) for j in range(m.cols)) % 2
            for i in range(m.rows)]
    assert m.mul_vec(x) == vec_from_bits(want)
    for bad in (1 << m.cols, -1):
        with pytest.raises(DimensionError):
            m.mul_vec(bad)
        with pytest.raises(DimensionError):
            BitMatrix.from_columns(m.rows, cols + [bad << m.rows])


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_entries_with_repeats_cancel(rows, cols, data):
    entries = data.draw(st.lists(st.tuples(
        st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0))),
        max_size=12)) if rows and cols else []
    dense = [[0] * cols for _ in range(rows)]
    for r, c in entries:
        dense[r][c] ^= 1
    m = BitMatrix.from_entries(rows, cols, entries)
    by_col = [[r for r, c in entries if c == j] for j in range(cols)]
    assert BitMatrix.from_column_indices(rows, by_col) == m
    assert matrix_to_dense(m) == dense
    assert sorted(m.entries()) == [
        (r, c) for r in range(rows) for c in range(cols) if dense[r][c]]
    if rows and cols:
        for bad in (rows, -1):
            with pytest.raises(DimensionError, match=rf"entry \({bad},{cols - 1}\)"):
                BitMatrix.from_column_indices(rows, by_col[:-1] + [[0, bad]])


def test_inverse():
    m = from_dense([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    inv = inverse(m)
    assert m.mul(inv) == BitMatrix.identity(3)
    assert inv.mul(m) == BitMatrix.identity(3)
    singular = from_dense([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        inverse(singular)


@given(st.integers(0, 5), st.data())
def test_inverse_matches_dense(n, data):
    m = BitMatrix(n, n, tuple(data.draw(
        st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))))
    dense = matrix_to_dense(m)
    if dense_rank(dense) < n:
        with pytest.raises(DimensionError):
            inverse(m)
        return
    inv = matrix_to_dense(inverse(m))
    assert [[sum(dense[i][k] * inv[k][j] for k in range(n)) % 2 for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


@given(bit_matrices())
def test_rank_kernel_image(m):
    rank, ker, img = rank_kernel_image(m)
    assert rank + ker.dim == m.cols
    assert img.dim == rank
    for v in ker.basis:
        assert m.mul_vec(v) == 0
    for j in range(m.cols):
        assert img.contains(m.col_data[j])


@given(vectors6, vectors6)
def test_modular_law(a_vecs, b_vecs):
    a = BitSubspace.span(6, a_vecs)
    b = BitSubspace.span(6, b_vecs)
    assert subspace_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@given(vectors6, vectors6)
def test_intersection_matches_enumeration(a_vecs, b_vecs):
    a = BitSubspace.span(6, a_vecs)
    b = BitSubspace.span(6, b_vecs)
    sa = subspace_from_bits(list(a.basis), 6)
    sb = subspace_from_bits(list(b.basis), 6)
    si = subspace_from_bits(list(intersect(a, b).basis), 6)
    assert si == sa & sb


@given(bit_matrices(5), vectors6)
def test_preimage(m, target_vecs):
    target = BitSubspace.span(m.rows, [v & (2**m.rows - 1) for v in target_vecs])
    pre = preimage(m, target)
    for v in pre.basis:
        assert target.contains(m.mul_vec(v))
    # maximality: every solution is in the preimage
    for x in range(2**m.cols):
        if target.contains(m.mul_vec(x)):
            assert pre.contains(x)


def test_image_of_subspace():
    m = from_dense([[1, 0, 1], [0, 1, 1]])
    sub = BitSubspace.span(3, [0b011, 0b100])
    img = image_of_subspace(m, sub)
    assert img.dim == 1  # both generators map to (1, 1)
    assert image_of_subspace(m, BitSubspace.span(3, [0b001, 0b010])).dim == 2


def test_quotient():
    num = BitSubspace.span(4, [0b0001, 0b0010, 0b0100])
    den = BitSubspace.span(4, [0b0001])
    q = Quotient(num, den)
    assert q.dim == 2
    assert q.coords(0b0001) == 0
    x = q.coords(0b0010)
    y = q.coords(0b0100)
    assert x and y and x != y
    assert q.coords(0b0011) == x  # shifting by the denominator is invisible
    assert q.coords(0b0110) == x ^ y  # coords are linear


def test_quotient_zero():
    sub = BitSubspace.span(3, [0b001])
    q = Quotient(sub, sub)
    assert q.dim == 0
    assert list(q.reps) == []
