import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weightlab.lattice
from weightlab.lattice import (
    Saturations,
    is_primitive,
    make_primitive,
    saturate_mod2,
    saturation_basis,
    identity,
    smith_normal_form,
)

from oracles import mat_mul, rational_rank, snf_saturate_mod2, unimodular_inverse


def det(m):
    """Fraction-exact determinant by elimination (test-local oracle)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


small_matrices = st.lists(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda m: len({len(r) for r in m}) == 1)

wide_matrices = st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
    min_size=1, max_size=5))


def _bits(*matrices):
    return max(abs(x).bit_length() for m in matrices for row in m for x in row)


@given(st.one_of(small_matrices, wide_matrices))
def test_snf_properties(m):
    u, d, v, v_inv = smith_normal_form(m)
    # Entries stay within the bit length of the input times its size.
    assert _bits(u, d, v, v_inv) <= max(_bits(m), 2) * len(m) * len(m[0])
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    assert mat_mul(v, v_inv) == identity(len(v))
    assert v_inv == unimodular_inverse(v)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert len(nz) == rational_rank(m)


def test_snf_ends_on_a_matrix_that_used_to_explode():
    # A clearing loop without reduction modulo a smallest pivot grew these
    # entries to about 28,000 bits and did not finish.
    m = [[-3, -4, 0, 4, 8, -4], [-8, -2, -1, -7, 5, 4], [8, -1, 8, 5, 8, 5],
         [-9, 3, 1, -4, -1, 6], [-9, 4, 9, -9, -8, 2], [9, -5, 9, -5, -5, -1]]
    u, d, v, v_inv = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert mat_mul(v, v_inv) == identity(6)
    assert [d[i][i] for i in range(6)] == [1, 1, 1, 1, 1, abs(det(m))]
    assert _bits(u, d, v, v_inv) <= _bits(m) * 36


def test_snf_divisibility_example():
    # 2x2 with gcd 1 but no entry equal to 1 exercises the repair step
    _, d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert d[0][0] == 1 and d[1][1] == 6


def test_unimodular_inverse():
    m = [[1, 2], [0, 1]]
    assert unimodular_inverse(m) == [[1, -2], [0, 1]]
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_saturation_basis():
    # span{(2,4)} saturates to span{(1,2)}
    basis = saturation_basis([[2, 4]], 2)
    assert len(basis) == 1
    x, y = basis[0]
    assert y == 2 * x and abs(x) == 1
    assert is_primitive(basis[0])


def test_saturate_mod2():
    # (2,4) ~ primitive (1,2); mod 2 that is (1,0)
    sub = saturate_mod2([[2, 4]], 2)
    assert sub.dim == 1
    assert sub.contains(0b01)
    # (0,2) ~ (0,1); mod 2 that is (0,1)
    sub = saturate_mod2([[0, 2]], 2)
    assert sub.contains(0b10)
    assert saturate_mod2([], 3).dim == 0


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=3))
def test_saturate_rank(vectors):
    sub = saturate_mod2(vectors, 3)
    assert sub.dim == rational_rank(vectors) if vectors else sub.dim == 0


@example(([[1, 1], [1, -1]], 2))  # index 2 in its saturation Z^2
@example(([[1, 0], [1, 3]], 2))  # index 3: independent mod 2
@example(([[2, 4]], 2))  # not primitive, zero mod 2
@example(([[3, 0], [0, 1]], 2))  # not primitive, independent mod 2
@example(([[1, 1, 0], [1, 0, 1], [0, 1, 1]], 3))  # index 2, rank 3
@example(([[0, 0, 0]], 3))
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=n + 1),
    st.just(n))))
def test_saturate_mod2_equals_the_smith_form_route(case):
    vectors, n = case
    assert saturate_mod2(vectors, n).basis == snf_saturate_mod2(vectors, n)


def test_saturate_mod2_takes_the_smith_form_only_for_dependent_reductions(monkeypatch):
    calls = []
    snf = weightlab.lattice.smith_normal_form
    monkeypatch.setattr(weightlab.lattice, "smith_normal_form",
                        lambda m: calls.append(m) or snf(m))
    saturate_mod2([[1, 0], [1, 3]], 2)
    saturate_mod2([[3, 0, 5], [0, 1, 0]], 3)
    assert calls == []
    saturate_mod2([[1, 1], [1, -1]], 2)
    assert calls == [[[1, 1], [1, -1]]]


@example(([[1, 0], [1, 2]], 2))  # dependent mod 2, the pair spans Z^2
@example(([[1, 0, 0], [1, 2, 0], [0, 0, 1]], 3))  # a third ray beside a Smith form
@example(([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]], 3))
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=5),
    st.just(n))))
def test_saturations_by_insertion_equal_the_smith_form_route(case):
    # Every subset looked up by ascending size in one table: each is
    # spanned by its own route, whatever the table already holds.
    vectors, n = case
    spans = Saturations(vectors, n)
    for size in range(len(vectors) + 1):
        for idx in itertools.combinations(range(len(vectors)), size):
            want = snf_saturate_mod2([vectors[i] for i in idx], n)
            assert spans[frozenset(idx)].basis == want, idx


def test_primitive():
    assert is_primitive([1, 2])
    assert not is_primitive([2, 4])
    assert make_primitive([2, 4]) == [1, 2]
    assert make_primitive([0, -3]) == [0, -1]
