"""Independent reference implementations used to cross-check results.

Everything here works on plain lists of 0/1 ints (no bit packing, no
code shared with the package under test) so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence


def dense_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on dense 0/1 lists."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] % 2:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def span_vectors(basis: list[list[int]], width: int | None = None) -> set[tuple[int, ...]]:
    """All vectors of the span, enumerated (small dims only)."""
    if width is None:
        width = len(basis[0]) if basis else 0
    if not basis:
        return {tuple([0] * width)}
    out = set()
    for coeffs in product((0, 1), repeat=len(basis)):
        v = [0] * width
        for c, b in zip(coeffs, basis):
            if c:
                v = [(a + x) % 2 for a, x in zip(v, b)]
        out.add(tuple(v))
    return out


def matrix_to_dense(m) -> list[list[int]]:
    """BitMatrix -> dense list of rows (test-side convenience)."""
    return [[(row >> j) & 1 for j in range(m.cols)] for row in m.row_data]


def betti_numbers(dims: dict[int, int], boundary_dense: dict[int, list[list[int]]]) -> dict[int, int]:
    """Mod-2 Betti numbers from dense boundary matrices by rank counting."""
    def rank(k: int) -> int:
        rows = boundary_dense.get(k)
        if not rows or not rows[0]:
            return 0
        return dense_rank(rows)
    out = {}
    for k, n in dims.items():
        out[k] = n - rank(k) - rank(k + 1)
    return out


def subspace_from_bits(basis: list[int], width: int) -> set[tuple[int, ...]]:
    dense = [[(b >> j) & 1 for j in range(width)] for b in basis]
    return span_vectors(dense) if dense else {tuple([0] * width)}


def unimodular_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (result is integral)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            x = a[i][j]
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(x))
        out.append(row)
    return out
