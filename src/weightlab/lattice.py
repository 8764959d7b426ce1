"""Exact integer lattice computations.

The one consumer-facing entry point is :func:`saturate_mod2`: given
integer vectors spanning a sublattice L of Z^n, compute the mod-2
reduction of the saturation (QL ∩ Z^n).  The saturation is a direct
summand of Z^n, so its mod-2 reduction always has the same dimension as
the rational rank of the generators — this is what makes mod-2 quotient
tori well defined for non-smooth cones, and what lets the fan layer read
each cone's rank off the same subspace.

Most cones never need more than the mod-2 reductions of their rays.  If
the reductions are independent over GF(2), they span the answer:

- an integer relation with coprime coefficients reduces to a nonzero
  relation mod 2, so the vectors are independent over Q;
- their span L then has odd index in its saturation (an x outside L
  with 2x in L would give a relation mod 2), so L and the saturation,
  both of rank k, reduce to the same k-dimensional subspace.

Otherwise the saturation comes from the Smith normal form, implemented
from scratch because we need the unimodular transform matrices, not just
the diagonal.  It carries the inverse of the column transform v alongside
v (each column operation on v is mirrored by the inverse row operation on
v⁻¹), so the saturation reads v⁻¹ off directly and no rational arithmetic
is needed.  Both routes return the canonical RREF basis, so they agree
bit for bit.  The toric build's orbit walk (:func:`weightlab.toric._quotient`)
is the one route that adds a ray to a known span.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .gf2 import BitSubspace, vec_from_bits


Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        # Pivot on the smallest nonzero entry of the remaining block, then
        # reduce the rest of its row and column modulo it, to remainders
        # of at most half the pivot.  A nonzero remainder is smaller than
        # the pivot, so the pivot shrinks on every pass that is not clean
        # and the loop ends; a smallest pivot also keeps the quotients,
        # and so the entries, small (Havas–Majewski, J. Symb. Comp. 1997).
        piv = _smallest_entry(d, t)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if d[t][t] < 0:
            negate_row(t)
        p = d[t][t]
        clean = True
        for i in range(t + 1, rows):
            if d[i][t]:
                add_row(t, i, -((d[i][t] + p // 2) // p))
                clean = clean and not d[i][t]
        for j in range(t + 1, cols):
            if d[t][j]:
                add_col(t, j, -((d[t][j] + p // 2) // p))
                clean = clean and not d[t][j]
        if not clean:
            continue
        # Enforce divisibility: if some later entry is not divisible by
        # the pivot, fold its row into row t and redo this pivot.
        offender = None if p == 1 else next(
            (i for i in range(t + 1, rows)
             if any(d[i][j] % p for j in range(t + 1, cols))), None)
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return u, d, v, v_inv


def _smallest_entry(d: Matrix, t: int) -> tuple[int, int] | None:
    """The position of a nonzero entry of least absolute value in the
    block of d from (t, t), or None when the block is zero."""
    best, at = 0, None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (not best or x < best):
                if x == 1:
                    return i, j
                best, at = x, (i, j)
    return at


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
    return Saturations(vectors, n)[frozenset(range(len(vectors)))]


class Saturations(dict):
    """:func:`saturate_mod2` of subsets of a list of vectors in Z^n, keyed
    by the frozenset of their indices and computed on first lookup.  The
    vectors are reduced mod 2 once, here.  A subset is spanned from its
    reductions, and the Smith normal form runs only when those are
    dependent."""

    def __init__(self, vectors: Sequence[Sequence[int]], n: int) -> None:
        super().__init__()
        self.vectors, self.n = vectors, n
        self.reduced = [vec_from_bits(v) for v in vectors]

    def __missing__(self, idx: frozenset[int]) -> BitSubspace:
        vectors = [self.vectors[i] for i in sorted(idx)]
        if any(len(v) != self.n for v in vectors):
            raise ValueError("vector length does not match ambient rank")
        span = BitSubspace.span(self.n, [self.reduced[i] for i in idx])
        if span.dim < len(idx):
            span = BitSubspace.span(
                self.n, [vec_from_bits(row) for row in saturation_basis(vectors, self.n)])
        self[idx] = span
        return span


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


def make_primitive(v: Sequence[int]) -> list[int]:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector cannot be made primitive")
    return [x // g for x in v]
