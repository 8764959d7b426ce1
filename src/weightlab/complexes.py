"""Filtered chain complexes over GF(2).

A :class:`ChainComplex` stores one boundary matrix per degree, in the
basis its producer chose.  A :class:`FilteredComplex` adds an increasing
filtration by subcomplexes, stored as an *adapted basis* of each degree:
vectors with one level each, sorted by ascending level, whose lowest set
bits are distinct and cover every coordinate.  F_p is the span of the
vectors of level <= p; below the level range it is zero and above it the
whole space, with no clamping code.  Distinct lowest set bits make the
coordinates of any vector a walk that clears its lowest set bit
(:meth:`FilteredComplex.coordinates`).  A producer whose coordinates are
already adapted (the toric build, trivial filtrations) stores no vectors:
its adapted basis is the unit basis, and its boundary columns are the
coordinates of the boundaries.  In the adapted bases F_p is a prefix of
the basis, so F_p ∩ ∂⁻¹F_t, the subspace the spectral sequence and the
shifted filtration are made of, is one kernel of a block of boundary
columns (:meth:`FilteredComplex.relative_cycles`); ``level`` and
``relative_cycles`` depend on p and t only through the prefix lengths
``level_dim`` counts.

Both classes validate their defining identities on construction: ``∂∘∂
= 0``, and that no boundary column has a coordinate above its source's
level.  Producers emit adapted bases directly; a filtration given as
nested level subspaces, as in documents, goes through
:meth:`FilteredComplex.from_subspaces`, which also checks that it is
monotone and exhaustive.

Block complexes have one totalization, :func:`totalize`: blocks placed
at degree shifts and joined by maps between them, the boundary each
block's own plus its maps out, the adapted bases side by side.  The
simple complex of a cubical diagram, the skeleton filtration of a
hyperresolution and the cell-basis toric complex are all built by it.

Degrees may run over any finite integer range; filtration levels
likewise.  Outside the stored ranges everything is zero.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .gf2 import (
    BitMatrix,
    BitSubspace,
    json_int,
    kernel_of_columns,
    rref_prefixes,
    vec_from_string,
    vec_to_string,
)


class ComplexError(ValueError):
    """Raised when chain-complex or filtration axioms fail."""


def complex_diagnostics(
    dims: Mapping[int, int], boundary: Mapping[int, BitMatrix]
) -> list[str]:
    """Violated chain-complex axioms, one message per finding.

    ∂∂ is checked column by column: each column of d_{k+1} picks columns
    of d_k to XOR, and the first nonzero sum ends the degree.  A missing
    boundary degree is zero."""
    out = []
    for k, m in boundary.items():
        if m.cols != dims.get(k, 0) or m.rows != dims.get(k - 1, 0):
            out.append(f"boundary shape mismatch in degree {k}")
    if out:
        return out
    for k in sorted(dims):
        if k not in boundary or k + 1 not in boundary:
            continue
        d_k = boundary[k].col_data
        for c in boundary[k + 1].col_data:
            acc = 0
            while c:
                low = c & -c
                acc ^= d_k[low.bit_length() - 1]
                c ^= low
            if acc:
                out.append(f"boundary squared is nonzero at degree {k + 1}")
                break
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

    def cycles(self, k: int) -> BitSubspace:
        return BitSubspace.span(self.dim(k), kernel_of_columns(self.d(k).col_data))

    def betti(self, k: int) -> int:
        return self.dim(k) - self.d(k).rank() - self.d(k + 1).rank()

    def betti_numbers(self) -> dict[int, int]:
        """The nonzero Betti numbers by degree.  No module of the package
        calls it; outside the tests, perfbench's output check
        (``perfbench/harness.py``) does, so it stays."""
        return {k: b for k in self.degrees() if (b := self.betti(k))}


@dataclass(frozen=True)
class FilteredComplex:
    """Chain complex with an increasing filtration by subcomplexes.

    ``basis[k]`` is an adapted basis of degree k and ``levels[k]`` the
    level of each of its vectors, ascending; the lowest set bits of the
    vectors are distinct and cover every coordinate.  ``basis`` None
    stands for the unit basis in every degree: the coordinates themselves
    are adapted.  F_p in degree k is spanned by the vectors of level <= p,
    so it is zero below ``p_range`` and the whole space above it.
    """

    complex: ChainComplex
    p_range: tuple[int, int]
    basis: Mapping[int, tuple[int, ...]] | None
    levels: Mapping[int, tuple[int, ...]]
    _by_pivot: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        ``p_range``; then no boundary column may have a coordinate of a
        level above its source's level.
        """
        cx = self.complex
        p_min, p_max = self.p_range
        if p_min > p_max:
            return ["filtration has no levels"]
        out = []
        for k in sorted(set(self.levels) | set(self.basis or ()) | set(cx.degrees())):
            n = cx.dim(k)
            levels = self.levels.get(k, ())
            if self.basis is None:
                adapted = len(levels) == n
            else:
                vectors = self.basis.get(k, ())
                pivots = {(v & -v).bit_length() - 1 for v in vectors if 0 < v < 1 << n}
                adapted = len(vectors) == len(levels) == len(pivots) == n
            if not adapted:
                out.append(f"filtration basis is not an adapted basis in degree {k}")
            elif list(levels) != sorted(levels) or levels and levels[0] < p_min:
                out.append(f"filtration levels not ascending from p={p_min} in degree {k}")
            elif levels and levels[-1] > p_max:
                out.append(f"filtration not exhaustive at p={p_max} in degree {k}")
        if out:
            return out
        for k in cx.degrees():
            if cx.dim(k - 1):
                out.extend(
                    f"boundary does not preserve filtration at p={p}, degree {k}"
                    for p in raised_levels(
                        self.levels[k], self.boundary_columns(k), self.levels[k - 1]))
        return out

    def vectors(self, k: int) -> tuple[int, ...]:
        """The adapted basis of degree k."""
        if self.basis is None:
            return _unit_basis(self.complex.dim(k))
        return self.basis.get(k, ())

    def boundary_columns(self, k: int) -> list[int]:
        """The boundary of degree k written in the adapted bases: item j
        is the coordinates of the boundary of basis vector j.  With the
        unit basis these are the matrix's own columns; any other basis
        writes them once per degree and returns the kept list, which
        callers read and do not change."""
        d = self.complex.d(k)
        if self.basis is None:
            return list(d.col_data)
        columns = self._columns.get(k)
        if columns is None:
            columns = self._columns[k] = [
                self.coordinates(k - 1, d.mul_vec(v)) for v in self.basis[k]]
        return columns

    def coordinates(self, k: int, x: int) -> int:
        """Coordinates of x in the adapted basis of degree k, as a bit
        vector over basis indices.  Each step clears the lowest set bit
        of x with the basis vector whose lowest set bit it is; that
        vector has no lower bit, so the walk ends."""
        if self.basis is None:
            return x
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

    def level_dim(self, p: int, k: int) -> int:
        """dim F_p in degree k: the number of basis vectors of level <= p."""
        return bisect_right(self.levels.get(k, ()), p)

    def level(self, p: int, k: int) -> BitSubspace:
        """F_p in degree k.  The unit basis is already reduced; any other
        basis is reduced once per degree, in order, and its RREF kept at
        every level boundary."""
        n = self.level_dim(p, k)
        sub = self._spans.get((k, n))
        if sub is None:
            dim = self.complex.dim(k)
            if self.basis is None:
                self._spans[(k, n)] = BitSubspace(dim, _unit_basis(n))
            else:
                levels = self.levels.get(k, ())
                ends = [i for i in range(len(levels) + 1)
                        if i in (0, len(levels)) or levels[i - 1] != levels[i]]
                for e, basis in zip(ends, rref_prefixes(self.basis.get(k, ()), ends)):
                    self._spans[(k, e)] = BitSubspace(dim, basis)
            sub = self._spans[(k, n)]
        return sub

    def relative_cycles(self, p: int, t: int, k: int) -> BitSubspace:
        """F_p K_k ∩ ∂⁻¹(F_t K_{k-1}): the chains of level <= p whose
        boundary has level <= t.

        In the adapted bases a combination of the first n vectors of
        degree k (those of level <= p) qualifies exactly when its boundary
        has no coordinate at index m or above, m the number of degree-(k-1)
        vectors of level <= t.  So the answer is one kernel: of the first n
        boundary columns shifted right by m, mapped back through the basis
        and reduced.  When t >= p (F_p is a subcomplex), when F_t is the
        whole of degree k-1 or when F_p is zero, the answer is F_p itself."""
        n, m = self.level_dim(p, k), self.level_dim(t, k - 1)
        if t >= p or m == self.complex.dim(k - 1) or not n:
            return self.level(p, k)
        kernel = kernel_of_columns([c >> m for c in self.boundary_columns(k)[:n]])
        if self.basis is not None:
            vectors = BitMatrix.from_columns(self.complex.dim(k), self.basis[k][:n])
            kernel = [vectors.mul_vec(c) for c in kernel]
        return BitSubspace.span(self.complex.dim(k), kernel)


def raised_levels(
    levels: Iterable[int], columns: Iterable[int], target_levels: Sequence[int]
) -> list[int]:
    """The levels of the source vectors whose column, in the adapted basis
    of a target with ascending ``target_levels``, has a coordinate of a
    higher level: the boundary's test and each diagram map's."""
    return sorted({p for c, p in zip(columns, levels)
                   if c and target_levels[c.bit_length() - 1] > p})


def _unit_basis(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def totalize(
    blocks: Mapping[Hashable, tuple[int, FilteredComplex]],
    maps: Mapping[tuple[Hashable, Hashable], Mapping[int, BitMatrix]],
) -> FilteredComplex:
    """The total filtered complex of blocks joined by maps.

    ``blocks[b] = (shift, fc)`` places degree i of fc in total degree
    i + shift, blocks in order; ``maps[(b, c)][i]`` maps degree i of block
    b to degree i of block c, whose shift is one lower.  The boundary is
    each block's own plus every map out of it, and the adapted bases of
    the blocks, side by side and sorted by level, filter the total.
    """
    dims: dict[int, int] = {}
    offsets: dict[tuple[Hashable, int], int] = {}  # (block, i) -> first index
    for b, (shift, fc) in blocks.items():
        for i in fc.complex.degrees():
            offsets[(b, i)] = dims.get(i + shift, 0)
            dims[i + shift] = offsets[(b, i)] + fc.complex.dim(i)
    pieces = [((b, i), (b, i - 1), blocks[b][1].complex.d(i)) for b, i in offsets]
    pieces += [((b, i), (c, i), m) for (b, c), by_i in maps.items() for i, m in by_i.items()]
    columns = {k: [0] * n for k, n in dims.items()}
    for src, dst, m in pieces:
        if src in offsets and dst in offsets:
            col0, row0 = offsets[src], offsets[dst]
            total_columns = columns[src[1] + blocks[src[0]][0]]
            for j, c in enumerate(m.col_data, col0):
                total_columns[j] ^= c << row0
    total = ChainComplex.make(dims, {
        k: BitMatrix(dims.get(k - 1, 0), dims[k], tuple(cols))
        for k, cols in columns.items()})
    by_level: dict[int, list[tuple[int, int]]] = {}
    for (b, i), col0 in offsets.items():
        shift, fc = blocks[b]
        by_level.setdefault(i + shift, []).extend(
            (p, v << col0) for v, p in zip(fc.vectors(i), fc.levels[i]))
    basis, levels = {}, {}
    for k, pairs in by_level.items():
        pairs.sort(key=lambda pv: pv[0])
        levels[k] = tuple(p for p, _ in pairs)
        basis[k] = tuple(v for _, v in pairs)
    p_range = (min((fc.p_range[0] for _, fc in blocks.values()), default=0),
               max((fc.p_range[1] for _, fc in blocks.values()), default=-1))
    return FilteredComplex(total, p_range, basis, levels)


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
    return FilteredComplex(
        complex_, (p, p), None,
        {k: (p,) * complex_.dim(k) for k in complex_.degrees()},
    )


def deligne_shift(fc: FilteredComplex) -> FilteredComplex:
    """The shifted (décalée) filtration on the same complex.

    The new level p in degree k is the part of the old level p + k whose
    boundary lies in the old level p + k - 1: one
    :meth:`FilteredComplex.relative_cycles` per level and degree.
    """
    cx = fc.complex
    ks = cx.degrees()
    if not ks:
        return fc
    k_min, k_max = ks[0], ks[-1]
    p_min, p_max = fc.p_range
    levels = {p: {k: fc.relative_cycles(p + k, p + k - 1, k) for k in ks}
              for p in range(p_min - k_max, p_max - k_min + 1)}
    return FilteredComplex.from_subspaces(cx, levels)


# ---------------------------------------------------------------------------
# Serialization


def complex_to_doc(cx: ChainComplex) -> dict:
    ks = cx.degrees()
    return {
        "degree_range": list(cx.degree_range),
        "dims": {str(k): cx.dim(k) for k in ks},
        "boundary": {
            str(k): sorted(map(list, entries))
            for k in ks if (entries := cx.d(k).entries())
        },
    }


def int_keys(table: Mapping, what: str) -> dict:
    """The table with each key read by ``int``.  Two keys naming one
    integer, such as ``"0"`` and ``"00"``, are refused rather than the
    last one kept; then a key that is not its integer written plainly,
    such as ``" 1"``, ``"+1"`` or ``"1_0"`` (which ``int`` reads as 10),
    is refused rather than read."""
    out, first = {}, {}
    for key, value in table.items():
        k = int(key)
        if k in first:
            raise ValueError(f"{what} {first[k]!r} and {key!r} both name {k}")
        first[k], out[k] = key, value
    for k, key in first.items():
        if key != str(k):
            raise ValueError(f"{what} {key!r} is not written as {str(k)!r}")
    return out


def complex_from_doc(doc: Mapping) -> ChainComplex:
    """The complex of a document.  A total dimension, or a span of the
    degrees holding cells, above ``toric.MAX_CELLS``, read at call time,
    is refused before anything of that size is allocated."""
    from . import toric  # toric imports this module

    try:
        dims = {k: json_int(n, "a dimension")
                for k, n in int_keys(doc.get("dims", {}), "dims keys").items()}
        if any(n < 0 for n in dims.values()):
            raise ValueError("negative dimension")
        if (total := sum(dims.values())) > toric.MAX_CELLS:
            raise ValueError(f"the complex has {total} cells, more than "
                             f"the {toric.MAX_CELLS} the build allows")
        _check_span("degrees holding cells", [k for k, n in dims.items() if n])
        boundary = {}
        for k, entries in int_keys(doc.get("boundary", {}), "boundary keys").items():
            boundary[k] = BitMatrix.from_entries(
                dims.get(k - 1, 0), dims.get(k, 0),
                [(json_int(r, "a row index"), json_int(c, "a column index"))
                 for r, c in entries],
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


def _check_span(what: str, values: list[int]) -> None:
    """Refuse values spread wider than ``toric.MAX_CELLS``: pages list every
    level between the ends, so output grows with the span, not the cells."""
    from . import toric  # toric imports this module

    if values and (span := max(values) - min(values)) > toric.MAX_CELLS:
        raise ValueError(f"the {what} span {span}, more than the "
                         f"{toric.MAX_CELLS} the build allows")


def filtered_from_doc(doc: Mapping) -> FilteredComplex:
    """The filtered complex of a document.  Filtration levels spanning
    more than ``toric.MAX_CELLS`` are refused before any is read."""
    cx = complex_from_doc(doc)
    filt = doc.get("filtration")
    if not filt:
        return trivial_filtration(cx)
    try:
        by_level = int_keys(filt, "filtration levels")
        _check_span("filtration levels", list(by_level))
        levels = {
            p: {
                k: BitSubspace.span(
                    cx.dim(k), [vec_from_string(s) for s in _level_list(vecs)])
                for k, vecs in int_keys(by_deg, f"filtration level {p} degrees").items()
            }
            for p, by_deg in by_level.items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise ComplexError(f"malformed filtration: {exc}") from exc
    return FilteredComplex.from_subspaces(cx, levels)


def _level_list(vecs) -> list:
    """A level's vectors in one degree: a JSON list, so a string is
    refused rather than read as one vector per character."""
    if not isinstance(vecs, list):
        raise ValueError(f"the vectors of a filtration level must be a list, not {vecs!r}")
    return vecs
