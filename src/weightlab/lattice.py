"""Exact integer lattice computations.

The one consumer-facing entry point is :func:`saturate_mod2`: given
integer vectors spanning a sublattice L of Z^n, compute the mod-2
reduction of the saturation (QL ∩ Z^n).  The saturation is a direct
summand of Z^n, so its mod-2 reduction always has the same dimension as
the rational rank of the generators — this is what makes mod-2 quotient
tori well defined for non-smooth cones.

Smith normal form is implemented from scratch because we need the
unimodular transform matrices, not just the diagonal.  It carries the
inverse of the column transform v alongside v (each column operation on
v is mirrored by the inverse row operation on v⁻¹), so the saturation
reads v⁻¹ off directly and no rational arithmetic is needed.
"""

from __future__ import annotations

from typing import Sequence

from .gf2 import BitSubspace, vec_from_bits


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    oi[j] += x * bk[j]
    return out


def rational_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def smith_normal_form(
    m: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Return (u, d, v, v_inv) with u·m·v = d in Smith normal form.

    u and v are unimodular and v·v_inv is the identity; d is diagonal
    with d[i][i] dividing d[i+1][i+1].
    """
    d = [list(row) for row in m]
    rows, cols = len(d), len(d[0]) if d else 0
    u = identity(rows)
    v = identity(cols)
    v_inv = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        for k in range(cols):
            d[dst][k] += q * d[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        # col dst += q * col src; on v_inv, row src -= q * row dst
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        for k in range(cols):
            v_inv[src][k] -= q * v_inv[dst][k]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # Find a pivot in the remaining block.
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Clear row and column t; repeat until clean (quotients may
        # reintroduce entries).
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # Enforce divisibility: if some later entry is not divisible by
        # the pivot, fold its row into row t and redo this pivot.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v, v_inv


def saturation_basis(vectors: Sequence[Sequence[int]], n: int) -> Matrix:
    """Integer basis of the saturation of the lattice spanned by vectors."""
    if not vectors:
        return []
    _, d, _, v_inv = smith_normal_form(vectors)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    # u·m·v = d, so m = u⁻¹·d·v⁻¹; the row space of m over Q equals that
    # of d·v⁻¹, whose saturation is spanned by the first `rank` rows of
    # v⁻¹ (d is diagonal).
    return [v_inv[i] for i in range(rank)]


def saturate_mod2(vectors: Sequence[Sequence[int]], n: int) -> BitSubspace:
    """Mod-2 reduction of the saturation of span_Z(vectors) in Z^n."""
    for v in vectors:
        if len(v) != n:
            raise ValueError("vector length does not match ambient rank")
    basis = saturation_basis(vectors, n)
    return BitSubspace.span(n, [vec_from_bits([x & 1 for x in row]) for row in basis])


def is_primitive(v: Sequence[int]) -> bool:
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def make_primitive(v: Sequence[int]) -> list[int]:
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector cannot be made primitive")
    return [x // g for x in v]
