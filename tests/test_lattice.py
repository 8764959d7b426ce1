from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightlab.lattice import (
    is_primitive,
    make_primitive,
    mat_mul,
    rational_rank,
    saturate_mod2,
    saturation_basis,
    identity,
    smith_normal_form,
)

from oracles import unimodular_inverse


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


@given(small_matrices)
def test_snf_properties(m):
    u, d, v, v_inv = smith_normal_form(m)
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


def test_primitive():
    assert is_primitive([1, 2])
    assert not is_primitive([2, 4])
    assert make_primitive([2, 4]) == [1, 2]
    assert make_primitive([0, -3]) == [0, -1]
