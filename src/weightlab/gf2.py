"""Exact linear algebra over the two-element field.

Vectors are Python ints used as bit vectors (bit i = coordinate i), so
row operations are single word-level XORs of arbitrary width.  All bases
are kept in reduced row-echelon form with lowest-index pivots, which
makes every derived object (kernels, images, sums, intersections,
quotient bases) canonical: equal subspaces have identical
representations.

Matrix kernels walk set bits, so they cost time in proportion to
nonzeros: a product XORs rows of the right factor, and ``mul_vec``
XORs columns taken from a per-matrix column table.  The table is built
on first use and is a cache that never changes a result; it takes no
part in equality, hashing or ``repr``.

Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class DimensionError(ValueError):
    """Raised when operand shapes or ambient dimensions do not match."""


def vec_from_bits(bits: Sequence[int]) -> int:
    v = 0
    for i, b in enumerate(bits):
        if b & 1:
            v |= 1 << i
    return v


def vec_from_string(s: str) -> int:
    """Parse a little-endian 0/1 string (char i = coordinate i)."""
    if not isinstance(s, str) or set(s) - {"0", "1"}:
        raise ValueError(f"{s!r} is not a string of 0s and 1s")
    return vec_from_bits([1 if c == "1" else 0 for c in s])


def vec_to_string(v: int, width: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(width))


def _pivot(v: int) -> int:
    """Index of the lowest set bit of a nonzero vector."""
    return (v & -v).bit_length() - 1


def _set_bits(v: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative vector, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, sorted by pivot index."""
    by_pivot: dict[int, int] = {}
    for v in vectors:
        for p, b in by_pivot.items():
            if (v >> p) & 1:
                v ^= b
        if v:
            p = _pivot(v)
            # Back-substitute into existing rows to stay fully reduced.
            for q in list(by_pivot):
                if (by_pivot[q] >> p) & 1:
                    by_pivot[q] ^= v
            by_pivot[p] = v
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def reduce_mod(v: int, basis: Sequence[int]) -> int:
    """Reduce v modulo an RREF basis (one pass suffices)."""
    for b in basis:
        if (v >> _pivot(b)) & 1:
            v ^= b
    return v


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2); rows stored as bit-packed ints (bit j = column j).

    Acts on column vectors: ``y = m.mul_vec(x)`` has bit i equal to the
    parity of ``rows[i] & x``.
    """

    rows: int
    cols: int
    row_data: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.row_data) != self.rows:
            raise DimensionError("row count mismatch")
        mask = (1 << self.cols) - 1
        if any(r & ~mask for r in self.row_data):
            raise DimensionError("row entries out of column range")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]
    ) -> "BitMatrix":
        """Build from unit entries (r, c); repeated entries cancel mod 2."""
        data = [0] * rows
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionError(f"entry ({r},{c}) out of bounds")
            data[r] ^= 1 << c
        return cls(rows, cols, tuple(data))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if rows else 0
        return cls(rows, cols, tuple(vec_from_bits(r) for r in dense))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[int]) -> "BitMatrix":
        data = [0] * rows
        for j, col in enumerate(columns):
            if col >> rows:
                raise DimensionError("column entries out of row range")
            for i in _set_bits(col):
                data[i] |= 1 << j
        return cls(rows, len(columns), tuple(data))

    def entry(self, r: int, c: int) -> int:
        return (self.row_data[r] >> c) & 1

    def entries(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in enumerate(self.row_data) for j in _set_bits(row)]

    @cached_property
    def _column_table(self) -> tuple[int, ...]:
        cols = [0] * self.cols
        for i, row in enumerate(self.row_data):
            for j in _set_bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    def column(self, j: int) -> int:
        return self._column_table[j]

    def columns(self) -> list[int]:
        return list(self._column_table)

    def mul_vec(self, x: int) -> int:
        if x >> self.cols:
            raise DimensionError("vector entries out of column range")
        cols = self._column_table
        y = 0
        for j in _set_bits(x):
            y ^= cols[j]
        return y

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        # Row i of the product is the sum of other's rows at row i's bits.
        b = other.row_data
        out = []
        for row in self.row_data:
            acc = 0
            for k in _set_bits(row):
                acc ^= b[k]
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def add(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return BitMatrix(
            self.rows, self.cols,
            tuple(a ^ b for a, b in zip(self.row_data, other.row_data)),
        )

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_data)

    def rank(self) -> int:
        return len(rref(self.row_data))

    def inverse(self) -> "BitMatrix":
        if self.rows != self.cols:
            raise DimensionError("inverse of non-square matrix")
        n = self.rows
        # Eliminate rows while mirroring the operations on an identity block.
        pairs: dict[int, tuple[int, int]] = {}
        for i in range(n):
            v, c = self.row_data[i], 1 << i
            for p, (bv, bc) in pairs.items():
                if (v >> p) & 1:
                    v ^= bv
                    c ^= bc
            if v == 0:
                raise DimensionError("matrix is singular")
            p = _pivot(v)
            for q in list(pairs):
                bv, bc = pairs[q]
                if (bv >> p) & 1:
                    pairs[q] = (bv ^ v, bc ^ c)
            pairs[p] = (v, c)
        inv_rows = [pairs[p][1] for p in range(n)]
        return BitMatrix(n, n, tuple(inv_rows))


@dataclass(frozen=True)
class BitSubspace:
    """Subspace of GF(2)^ambient_dim with canonical RREF basis."""

    ambient_dim: int
    basis: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        mask = (1 << self.ambient_dim) - 1
        if any(b == 0 or b & ~mask for b in self.basis):
            raise DimensionError("basis vector out of ambient range or zero")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[int]) -> "BitSubspace":
        return cls(ambient_dim, rref(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "BitSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "BitSubspace":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(_pivot(b) for b in self.basis)

    def contains(self, v: int) -> bool:
        return reduce_mod(v, self.basis) == 0

    def contains_subspace(self, other: "BitSubspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def reduce(self, v: int) -> int:
        return reduce_mod(v, self.basis)

    def vectors(self):
        """Enumerate all 2^dim vectors (intended for small dims in tests)."""
        for mask in range(1 << self.dim):
            v = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    v ^= self.basis[i]
                m >>= 1
                i += 1
            yield v

    def sum(self, other: "BitSubspace") -> "BitSubspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return BitSubspace.span(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "BitSubspace") -> "BitSubspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        # Kernel of (c, d) -> c·A + d·B over the stacked bases; the A-part
        # of each kernel vector lies in both spans.
        cols = list(self.basis) + list(other.basis)
        kernel = _kernel_of_columns(cols)
        na = len(self.basis)
        vecs = []
        for coeff in kernel:
            v = 0
            for i in range(na):
                if (coeff >> i) & 1:
                    v ^= self.basis[i]
            vecs.append(v)
        return BitSubspace.span(self.ambient_dim, vecs)


def _kernel_of_columns(cols: Sequence[int]) -> list[int]:
    """Kernel of the linear map e_j -> cols[j], as coefficient bit vectors."""
    pairs: dict[int, tuple[int, int]] = {}
    kernel = []
    for j, v in enumerate(cols):
        c = 1 << j
        for p, (bv, bc) in pairs.items():
            if (v >> p) & 1:
                v ^= bv
                c ^= bc
        if v == 0:
            kernel.append(c)
        else:
            pairs[_pivot(v)] = (v, c)
    return kernel


def rank_kernel_image(m: BitMatrix) -> tuple[int, BitSubspace, BitSubspace]:
    """Rank, kernel (in the domain) and image (in the codomain) of m."""
    cols = m.columns()
    kernel = BitSubspace.span(m.cols, _kernel_of_columns(cols))
    image = BitSubspace.span(m.rows, cols)
    return image.dim, kernel, image


def preimage(m: BitMatrix, target: BitSubspace) -> BitSubspace:
    """The subspace {x : m·x in target} of the domain of m."""
    if m.rows != target.ambient_dim:
        raise DimensionError("target ambient does not match codomain")
    residues = [target.reduce(m.mul_vec(1 << j)) for j in range(m.cols)]
    return BitSubspace.span(m.cols, _kernel_of_columns(residues))


def image_of_subspace(m: BitMatrix, sub: BitSubspace) -> BitSubspace:
    if m.cols != sub.ambient_dim:
        raise DimensionError("subspace ambient does not match domain")
    return BitSubspace.span(m.rows, [m.mul_vec(b) for b in sub.basis])


class Quotient:
    """Canonical basis and coordinates for a quotient N/D with D ⊆ N.

    Representatives are the vectors of N's canonical basis that survive
    progressive reduction against D, in pivot order, so the quotient
    basis is deterministic.
    """

    def __init__(self, numerator: BitSubspace, denominator: BitSubspace):
        if numerator.ambient_dim != denominator.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        if not numerator.contains_subspace(denominator):
            raise DimensionError("denominator is not contained in numerator")
        self.ambient_dim = numerator.ambient_dim
        self.numerator = numerator
        self.denominator = denominator
        self.reps: list[int] = []
        # Solver rows: (vector, coefficient) echelonized together. D's
        # basis carries coefficient 0 so its contribution is quotiented out.
        self._pairs: dict[int, tuple[int, int]] = {}
        for b in denominator.basis:
            self._insert(b, 0)
        for v in numerator.basis:
            if self._insert(v, 1 << len(self.reps)):
                self.reps.append(v)

    def _insert(self, v: int, c: int) -> bool:
        for p, (bv, bc) in self._pairs.items():
            if (v >> p) & 1:
                v ^= bv
                c ^= bc
        if v == 0:
            return False
        self._pairs[_pivot(v)] = (v, c)
        return True

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, x: int) -> int:
        """Coordinates of x + D in the canonical quotient basis."""
        c = 0
        for p, (bv, bc) in self._pairs.items():
            if (x >> p) & 1:
                x ^= bv
                c ^= bc
        if x != 0:
            raise DimensionError("vector is not in the numerator subspace")
        return c & ((1 << len(self.reps)) - 1)
