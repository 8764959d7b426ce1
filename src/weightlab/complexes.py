"""Filtered chain complexes over GF(2).

A :class:`ChainComplex` stores one boundary matrix per degree, in the
basis its producer chose.  A :class:`FilteredComplex` adds an increasing
filtration by subcomplexes, stored as an *adapted basis* of each degree:
vectors with one level each, sorted by ascending level, whose lowest set
bits are distinct and cover every coordinate.  F_p is the span of the
vectors of level <= p; below the level range it is zero and above it the
whole space, with no clamping code.  Distinct lowest set bits make the
coordinates of any vector a walk that clears its lowest set bit
(:meth:`FilteredComplex.coordinates`).

Both classes validate their defining identities on construction: ``∂∘∂
= 0``, and that no boundary image has a coordinate above its source's
level.  Producers emit adapted bases directly; a filtration given as
nested level subspaces, as in documents, goes through
:meth:`FilteredComplex.from_subspaces`, which also checks that it is
monotone and exhaustive.

Degrees may run over any finite integer range; filtration levels
likewise.  Outside the stored ranges everything is zero.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping

from .gf2 import (
    BitMatrix,
    BitSubspace,
    preimage,
    rank_kernel_image,
    vec_from_string,
    vec_to_string,
)


class ComplexError(ValueError):
    """Raised when chain-complex or filtration axioms fail."""


def complex_diagnostics(
    dims: Mapping[int, int], boundary: Mapping[int, BitMatrix]
) -> list[str]:
    """Violated chain-complex axioms, one message per finding."""
    out = []
    def dim(k: int) -> int:
        return dims.get(k, 0)
    for k, m in boundary.items():
        if m.cols != dim(k) or m.rows != dim(k - 1):
            out.append(f"boundary shape mismatch in degree {k}")
    if out:
        return out
    for k in sorted(dims):
        d_k = boundary.get(k, BitMatrix.zero(dim(k - 1), dim(k)))
        d_k1 = boundary.get(k + 1, BitMatrix.zero(dim(k), dim(k + 1)))
        if not d_k.mul(d_k1).is_zero():
            out.append(f"boundary squared is nonzero at degree {k + 1}")
    return out


@dataclass(frozen=True)
class ChainComplex:
    """Chain complex of GF(2) vector spaces with chosen bases.

    ``dims[k]`` is the dimension in degree k and ``boundary[k]`` maps
    degree k to degree k-1.  Degrees outside ``degree_range`` are zero.
    """

    dims: Mapping[int, int]
    boundary: Mapping[int, BitMatrix]

    def __post_init__(self) -> None:
        problems = complex_diagnostics(self.dims, self.boundary)
        if problems:
            raise ComplexError("; ".join(problems))

    @classmethod
    def make(
        cls,
        dims: Mapping[int, int],
        boundary: Mapping[int, BitMatrix] | None = None,
    ) -> "ChainComplex":
        dims = {k: n for k, n in dims.items() if n}
        boundary = {
            k: m for k, m in (boundary or {}).items() if m.rows and m.cols
        }
        return cls(dims, boundary)

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    @property
    def degree_range(self) -> tuple[int, int]:
        ks = self.degrees()
        return (ks[0], ks[-1]) if ks else (0, 0)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def d(self, k: int) -> BitMatrix:
        m = self.boundary.get(k)
        if m is None:
            m = BitMatrix.zero(self.dim(k - 1), self.dim(k))
        return m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def cycles(self, k: int) -> BitSubspace:
        return rank_kernel_image(self.d(k))[1]

    def boundaries(self, k: int) -> BitSubspace:
        return rank_kernel_image(self.d(k + 1))[2]

    def betti(self, k: int) -> int:
        return self.cycles(k).dim - self.boundaries(k).dim

    def betti_numbers(self) -> dict[int, int]:
        return {k: b for k in self.degrees() if (b := self.betti(k))}

    def shift(self, s: int) -> "ChainComplex":
        """Degree shift: degree k of the result is degree k - s of self."""
        return ChainComplex.make(
            {k + s: n for k, n in self.dims.items()},
            {k + s: m for k, m in self.boundary.items()},
        )


@dataclass(frozen=True)
class FilteredComplex:
    """Chain complex with an increasing filtration by subcomplexes.

    ``basis[k]`` is an adapted basis of degree k and ``levels[k]`` the
    level of each of its vectors, ascending; the lowest set bits of the
    vectors are distinct and cover every coordinate.  F_p in degree k is
    spanned by the vectors of level <= p, so it is zero below ``p_range``
    and the whole space above it.
    """

    complex: ChainComplex
    p_range: tuple[int, int]
    basis: Mapping[int, tuple[int, ...]]
    levels: Mapping[int, tuple[int, ...]]
    _by_pivot: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        problems = self.diagnostics()
        if problems:
            raise ComplexError("; ".join(problems))

    @classmethod
    def from_subspaces(
        cls,
        complex_: ChainComplex,
        levels: Mapping[int, Mapping[int, BitSubspace]],
    ) -> "FilteredComplex":
        """The filtered complex with F_p in degree k equal to levels[p][k].

        A level or a degree missing from ``levels`` inherits the level
        below it (zero below the lowest level); a degree missing from the
        top level is the whole space.  The basis vectors of each level
        whose lowest set bit is new complete the level below to an
        adapted basis.  Raises :class:`ComplexError` when the levels are
        not monotone or not exhaustive.
        """
        if not levels:
            raise ComplexError("filtration has no levels")
        out = [
            f"filtration ambient mismatch at p={p}, degree {k}"
            for p, by_k in levels.items() for k, sub in by_k.items()
            if sub.ambient_dim != complex_.dim(k)
        ]
        if out:
            raise ComplexError("; ".join(out))
        ps = sorted(levels)
        basis: dict[int, tuple[int, ...]] = {}
        at: dict[int, tuple[int, ...]] = {}
        for k in complex_.degrees():
            vectors: list[int] = []
            vector_levels: list[int] = []
            taken = 0  # lowest set bits of the vectors so far
            for p in ps:
                sub = levels[p].get(k)
                if sub is None:
                    if p < ps[-1]:
                        continue
                    sub = BitSubspace.full(complex_.dim(k))
                if not all(sub.contains(v) for v in vectors):
                    out.append(f"filtration not monotone at p={p}, degree {k}")
                    break
                for v in sub.basis:
                    if not taken & v & -v:
                        taken |= v & -v
                        vectors.append(v)
                        vector_levels.append(p)
            else:
                if len(vectors) != complex_.dim(k):
                    out.append(f"filtration not exhaustive in degree {k}")
            basis[k], at[k] = tuple(vectors), tuple(vector_levels)
        if out:
            raise ComplexError("; ".join(out))
        return cls(complex_, (ps[0], ps[-1]), basis, at)

    def diagnostics(self) -> list[str]:
        """Violated filtration axioms, one message per finding.

        The basis must be adapted and its levels ascending inside
        ``p_range``; then no boundary image may have a coordinate of a
        level above its source's level.
        """
        cx = self.complex
        p_min, p_max = self.p_range
        if p_min > p_max:
            return ["filtration has no levels"]
        out = []
        for k in sorted(set(self.basis) | set(cx.degrees())):
            n = cx.dim(k)
            vectors = self.basis.get(k, ())
            levels = self.levels.get(k, ())
            pivots = {(v & -v).bit_length() - 1 for v in vectors if 0 < v < 1 << n}
            if not len(vectors) == len(levels) == len(pivots) == n:
                out.append(f"filtration basis is not an adapted basis in degree {k}")
            elif list(levels) != sorted(levels) or levels and levels[0] < p_min:
                out.append(f"filtration levels not ascending from p={p_min} in degree {k}")
            elif levels and levels[-1] > p_max:
                out.append(f"filtration not exhaustive at p={p_max} in degree {k}")
        if out:
            return out
        for k in cx.degrees():
            if not cx.dim(k - 1):
                continue
            d, below = cx.d(k), self.levels[k - 1]
            raised = sorted({
                p for v, p in zip(self.basis[k], self.levels[k])
                if (c := self.coordinates(k - 1, d.mul_vec(v)))
                and below[c.bit_length() - 1] > p
            })
            out.extend(
                f"boundary does not preserve filtration at p={p}, degree {k}"
                for p in raised)
        return out

    def coordinates(self, k: int, x: int) -> int:
        """Coordinates of x in the adapted basis of degree k, as a bit
        vector over basis indices.  Each step clears the lowest set bit
        of x with the basis vector whose lowest set bit it is; that
        vector has no lower bit, so the walk ends."""
        by_pivot = self._by_pivot.get(k)
        if by_pivot is None:
            by_pivot = self._by_pivot[k] = {
                (v & -v).bit_length() - 1: i for i, v in enumerate(self.basis[k])}
        vectors = self.basis[k]
        c = 0
        while x:
            i = by_pivot[(x & -x).bit_length() - 1]
            x ^= vectors[i]
            c |= 1 << i
        return c

    def level(self, p: int, k: int) -> BitSubspace:
        """F_p in degree k, computed once per distinct subspace."""
        n = bisect_right(self.levels.get(k, ()), p)
        sub = self._spans.get((k, n))
        if sub is None:
            sub = self._spans[(k, n)] = BitSubspace.span(
                self.complex.dim(k), self.basis.get(k, ())[:n])
        return sub


def _unit_basis(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def canonical_filtration(complex_: ChainComplex) -> FilteredComplex:
    """The filtration whose first page carries homology on q = -2p.

    F_p in degree k is: everything if k > -p, the cycles if k = -p, and
    zero if k < -p.  Its adapted basis in degree k is a cycle basis at
    level -k and the remaining unit vectors at level -k+1.
    """
    ks = complex_.degrees()
    if not ks:
        return trivial_filtration(complex_)
    basis, levels = {}, {}
    for k in ks:
        cycles = complex_.cycles(k)
        taken = set(cycles.pivots())
        rest = tuple(
            e for i, e in enumerate(_unit_basis(complex_.dim(k))) if i not in taken)
        basis[k] = cycles.basis + rest
        levels[k] = (-k,) * cycles.dim + (1 - k,) * len(rest)
    return FilteredComplex(complex_, (-ks[-1], -ks[0]), basis, levels)


def trivial_filtration(complex_: ChainComplex, p: int = 0) -> FilteredComplex:
    ks = complex_.degrees()
    return FilteredComplex(
        complex_, (p, p),
        {k: _unit_basis(complex_.dim(k)) for k in ks},
        {k: (p,) * complex_.dim(k) for k in ks},
    )


def deligne_shift(fc: FilteredComplex) -> FilteredComplex:
    """The shifted (décalée) filtration on the same complex.

    The new level p in degree k is the part of the old level p + k whose
    boundary lies in the old level p + k - 1.
    """
    cx = fc.complex
    ks = cx.degrees()
    if not ks:
        return fc
    k_min, k_max = ks[0], ks[-1]
    p_min, p_max = fc.p_range
    levels: dict[int, dict[int, BitSubspace]] = {}
    for p in range(p_min - k_max, p_max - k_min + 1):
        levels[p] = {
            k: fc.level(p + k, k).intersect(
                preimage(cx.d(k), fc.level(p + k - 1, k - 1)))
            for k in ks
        }
    return FilteredComplex.from_subspaces(cx, levels)


# ---------------------------------------------------------------------------
# Serialization


def complex_to_doc(cx: ChainComplex) -> dict:
    ks = cx.degrees()
    return {
        "degree_range": list(cx.degree_range),
        "dims": {str(k): cx.dim(k) for k in ks},
        "boundary": {
            str(k): sorted(map(list, cx.d(k).entries()))
            for k in ks if cx.d(k).entries()
        },
    }


def complex_from_doc(doc: Mapping) -> ChainComplex:
    try:
        dims = {int(k): int(n) for k, n in doc.get("dims", {}).items()}
        if any(n < 0 for n in dims.values()):
            raise ValueError("negative dimension")
        boundary = {}
        for k_str, entries in doc.get("boundary", {}).items():
            k = int(k_str)
            boundary[k] = BitMatrix.from_entries(
                dims.get(k - 1, 0), dims.get(k, 0),
                [(int(r), int(c)) for r, c in entries],
            )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed complex document: {exc}") from exc
    return ChainComplex.make(dims, boundary)


def filtered_to_doc(fc: FilteredComplex) -> dict:
    doc = complex_to_doc(fc.complex)
    doc["filtration"] = {
        str(p): {
            str(k): [vec_to_string(b, fc.complex.dim(k))
                     for b in fc.level(p, k).basis]
            for k in fc.complex.degrees()
        }
        for p in range(fc.p_range[0], fc.p_range[1] + 1)
    }
    return doc


def filtered_from_doc(doc: Mapping) -> FilteredComplex:
    cx = complex_from_doc(doc)
    filt = doc.get("filtration")
    if not filt:
        return trivial_filtration(cx)
    try:
        levels = {
            int(p_str): {
                int(k_str): BitSubspace.span(
                    cx.dim(int(k_str)), [vec_from_string(s) for s in vecs])
                for k_str, vecs in by_deg.items()
            }
            for p_str, by_deg in filt.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed filtration: {exc}") from exc
    return FilteredComplex.from_subspaces(cx, levels)


def load_filtered(path: str) -> FilteredComplex:
    with open(path) as fh:
        return filtered_from_doc(json.load(fh))
