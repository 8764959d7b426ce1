"""Exact linear algebra over the two-element field.

Vectors are Python ints used as bit vectors (bit i = coordinate i), so
row operations are single word-level XORs of arbitrary width.  All bases
are kept in reduced row-echelon form with lowest-index pivots, which
makes every derived object (spans, kernels, quotient bases) canonical:
equal subspaces have identical representations.

A matrix is stored by columns and in no other layout: column j is a
bit vector of its rows.  Matrix kernels walk set bits, so they cost time
in proportion to nonzeros: ``mul_vec`` XORs the columns at the set bits
of its argument, a product applies that to each column of the right
factor, and ranks and kernels reduce the columns.

The module holds what the package computes with: vectors and their
text form, matrices and products, RREF bases and their prefixes,
subspaces with membership and reduction, column kernels and quotients.

Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """The little-endian 0/1 string of the first ``width`` coordinates of
    v: the binary digits of v, padded to ``width``, last ``width`` read
    backwards."""
    return format(v, f"0{width}b")[:-width - 1:-1]


def json_int(value, what: str, error: type[ValueError] = ValueError) -> int:
    """A number read from a JSON document: an integer and not a bool, so a
    float is refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _pivot(v: int) -> int:
    """Index of the lowest set bit of a nonzero vector."""
    return (v & -v).bit_length() - 1


def set_bits(v: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative vector, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def _pack(indices: Iterable[int]) -> int:
    """The vector with the given bits set; a repeated index cancels."""
    v = 0
    for i in indices:
        v ^= 1 << i
    return v


def _eliminate(by_pivot: dict[int, int], vectors: Iterable[int]) -> None:
    """Extend a fully reduced basis, keyed by pivot, by the vectors."""
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


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, sorted by pivot index."""
    by_pivot: dict[int, int] = {}
    _eliminate(by_pivot, vectors)
    return tuple(by_pivot[p] for p in sorted(by_pivot))


def rref_prefixes(vectors: Sequence[int], ends: Iterable[int]) -> list[tuple[int, ...]]:
    """``rref(vectors[:e])`` for each e of the ascending ``ends``, from one
    elimination of the vectors in order."""
    by_pivot: dict[int, int] = {}
    out = []
    start = 0
    for e in ends:
        _eliminate(by_pivot, vectors[start:e])
        start = e
        out.append(tuple(by_pivot[p] for p in sorted(by_pivot)))
    return out


def rref_insert(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """``rref(basis + (v,))`` for an RREF basis: v reduced by the basis,
    then, if it is not zero, cleared from the rows that have its pivot
    and put in its place by pivot."""
    v = reduce_mod(v, basis)
    if not v:
        return basis
    low = v & -v
    rows = [b ^ v if b & low else b for b in basis]
    rows.insert(sum(1 for b in basis if b & -b < low), v)
    return tuple(rows)


def reduce_mod(v: int, basis: Sequence[int]) -> int:
    """Reduce v modulo an RREF basis (one pass suffices)."""
    for b in basis:
        if (v >> _pivot(b)) & 1:
            v ^= b
    return v


@dataclass(frozen=True)
class BitMatrix:
    """Matrix over GF(2), stored by columns: bit i of ``col_data[j]`` is
    entry (i, j).

    Acts on column vectors: ``y = m.mul_vec(x)`` is the sum of the
    columns at the set bits of x.
    """

    rows: int
    cols: int
    col_data: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.col_data) != self.cols:
            raise DimensionError("column count mismatch")
        rows = self.rows
        if any(c >> rows for c in self.col_data):
            raise DimensionError("column entries out of row range")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]
    ) -> "BitMatrix":
        """Build from unit entries (r, c); repeated entries cancel mod 2."""
        by_col: list[list[int]] = [[] for _ in range(cols)]
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionError(f"entry ({r},{c}) out of bounds")
            by_col[c].append(r)
        return cls.from_column_indices(rows, by_col)

    @classmethod
    def from_column_indices(
        cls, rows: int, columns: Sequence[Sequence[int]]
    ) -> "BitMatrix":
        """Build from the row indices of the entries of each column;
        repeated entries cancel mod 2."""
        for j, col in enumerate(columns):
            if col and not 0 <= min(col) <= max(col) < rows:
                i = min(col) if min(col) < 0 else max(col)
                raise DimensionError(f"entry ({i},{j}) out of bounds")
        return cls(rows, len(columns), tuple(map(_pack, columns)))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[int]) -> "BitMatrix":
        return cls(rows, len(columns), tuple(columns))

    def entry(self, r: int, c: int) -> int:
        return (self.col_data[c] >> r) & 1

    def entries(self) -> list[tuple[int, int]]:
        return [(i, j) for j, col in enumerate(self.col_data) for i in set_bits(col)]

    def mul_vec(self, x: int) -> int:
        if x >> self.cols:
            raise DimensionError("vector entries out of column range")
        cols = self.col_data
        y = 0
        for j in set_bits(x):
            y ^= cols[j]
        return y

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions do not match")
        # Column j of the product is this matrix applied to other's column j.
        return BitMatrix(self.rows, other.cols, tuple(map(self.mul_vec, other.col_data)))

    def add(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return BitMatrix(
            self.rows, self.cols,
            tuple(a ^ b for a, b in zip(self.col_data, other.col_data)),
        )

    def is_zero(self) -> bool:
        return not any(self.col_data)

    def rank(self) -> int:
        return len(rref(self.col_data))


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


class _Echelon:
    """Vectors in echelon form, keyed by pivot, each with its combination
    (a coefficient bit vector): the solver of kernels and quotients."""

    def __init__(self) -> None:
        self._rows: dict[int, tuple[int, int]] = {}

    def reduce(self, v: int, c: int = 0) -> tuple[int, int]:
        """v reduced by the rows, and c plus their combinations; each row
        is clear at the pivots of earlier rows, so one pass suffices."""
        for p, (bv, bc) in self._rows.items():
            if (v >> p) & 1:
                v ^= bv
                c ^= bc
        return v, c

    def add(self, v: int, c: int) -> tuple[int, int]:
        """Reduce v with its combination c, and keep it unless it is zero."""
        v, c = self.reduce(v, c)
        if v:
            self._rows[_pivot(v)] = (v, c)
        return v, c

    def solve(self, v: int) -> int:
        """The combination that sums to v."""
        v, c = self.reduce(v)
        if v:
            raise DimensionError("vector is not in the span")
        return c


def kernel_of_columns(cols: Sequence[int]) -> list[int]:
    """Kernel of the linear map e_j -> cols[j], as coefficient bit vectors."""
    echelon = _Echelon()
    kernel = []
    for j, v in enumerate(cols):
        v, c = echelon.add(v, 1 << j)
        if not v:
            kernel.append(c)
    return kernel


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
        # D's basis carries coefficient 0, so its contribution is
        # quotiented out; representative i carries bit i.
        self._echelon = _Echelon()
        for b in denominator.basis:
            self._echelon.add(b, 0)
        for v in numerator.basis:
            if self._echelon.add(v, 1 << len(self.reps))[0]:
                self.reps.append(v)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, x: int) -> int:
        """Coordinates of x + D in the canonical quotient basis."""
        return self._echelon.solve(x)
