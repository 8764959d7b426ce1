"""Euler calculus on finite cell complexes.

Constructible functions (integer weights on open cells), the link
operator, the parity chain boundary, Euler-characteristic pushforward,
restriction/closure/pullback of chains, and the codimension-one
averaging operator.

Cells are slightly more general than plain simplices: a cell is a
sorted vertex tuple plus a copy index, so models like the two-vertex /
two-edge circle (two parallel edges) are expressible, and products of
complexes give cube-like cells as pairs.  What the operators actually
consume is just the face partial order and the dimension of each cell,
so all of them work uniformly across these shapes.

The link operator on a weight function a is

    (La)(sigma) = a(sigma) * (1 + (-1)^(s-1)) + sum_{tau > sigma} a(tau) * (-1)^(dim tau - 1)

with s = dim sigma and the sum over all proper cofaces: the link sphere
of a point in the open cell sigma is S^(s-1) joined with the link of
sigma, and the open part of the join lying in tau contributes
(-1)^(dim tau - 1) to the compactly-supported Euler characteristic
regardless of s.  L satisfies L(L(a)) = 2 L(a), which is what makes the
parity boundary square to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .gf2 import BitMatrix


class EulerError(ValueError):
    pass


# A cell is ("s", vertex_tuple, copy) for simplex-like cells or
# ("x", cell_a, cell_b) for product cells.
Cell = tuple


def simplex_cell(vertices: Iterable[int], copy: int = 0) -> Cell:
    return ("s", tuple(sorted(vertices)), copy)


class CellComplex:
    """Finite cell complex given by dimensions and the face partial order."""

    def __init__(self, dims: Mapping[Cell, int], faces: Mapping[Cell, frozenset]):
        self.dims = dict(dims)
        self.faces = {c: frozenset(faces.get(c, ())) for c in self.dims}
        for c, fs in self.faces.items():
            for f in fs:
                if f not in self.dims:
                    raise EulerError(f"cell {c} has unknown face {f}")
                if self.dims[f] >= self.dims[c]:
                    raise EulerError(f"face {f} of {c} does not drop dimension")
        self.cofaces: dict[Cell, frozenset] = {c: frozenset() for c in self.dims}
        acc: dict[Cell, set] = {c: set() for c in self.dims}
        for c, fs in self.faces.items():
            for f in fs:
                acc[f].add(c)
        self.cofaces = {c: frozenset(s) for c, s in acc.items()}
        self._products: dict[CellComplex, CellComplex] = {}

    @classmethod
    def from_simplices(cls, simplices: Iterable[tuple[Sequence[int], int]]) -> "CellComplex":
        """Closure of the given (vertex set, copy) simplices.

        Implied faces (proper subsets) are added with copy 0, so copy
        indices are meaningful only for maximal parallel cells.
        """
        dims: dict[Cell, int] = {}
        seen: set[Cell] = set()
        for vs, copy in simplices:
            vs = tuple(sorted(set(vs)))
            if not vs:
                raise EulerError("empty simplex")
            cell = ("s", vs, copy)
            if cell in seen:
                raise EulerError(f"duplicate simplex {vs} copy {copy}")
            seen.add(cell)
            dims[cell] = len(vs) - 1
            for r in range(1, len(vs)):
                for sub in itertools.combinations(vs, r):
                    dims.setdefault(("s", sub, 0), r - 1)
        faces = {}
        for cell in dims:
            _, vs, _ = cell
            faces[cell] = frozenset(
                ("s", sub, 0)
                for r in range(1, len(vs))
                for sub in itertools.combinations(vs, r)
            )
        return cls(dims, faces)

    @classmethod
    def simplicial(cls, simplices: Iterable[Sequence[int]]) -> "CellComplex":
        return cls.from_simplices([(vs, 0) for vs in simplices])

    @classmethod
    def product(cls, a: "CellComplex", b: "CellComplex") -> "CellComplex":
        """The product complex, built once per operand pair.

        Maps and functions are tied to their complex by identity, so
        products of the same operands must be the same object for maps
        between them to compose.  The product is cached on ``a``, keyed
        by ``b``.
        """
        cached = a._products.get(b)
        if cached is not None:
            return cached
        closure_a = {ca: a.faces[ca] | {ca} for ca in a.dims}
        closure_b = {cb: b.faces[cb] | {cb} for cb in b.dims}
        dims = {}
        faces = {}
        for ca, da in a.dims.items():
            for cb, db in b.dims.items():
                dims[("x", ca, cb)] = da + db
                faces[("x", ca, cb)] = frozenset(
                    ("x", fa, fb)
                    for fa in closure_a[ca] for fb in closure_b[cb]
                    if (fa, fb) != (ca, cb))
        product = a._products[b] = cls(dims, faces)
        return product

    def dim(self, c: Cell) -> int:
        return self.dims[c]

    def cells(self, k: int | None = None) -> list[Cell]:
        out = [c for c in self.dims if k is None or self.dims[c] == k]
        return sorted(out, key=lambda c: (self.dims[c], str(c)))

    def top_dim(self) -> int:
        return max(self.dims.values()) if self.dims else -1

    def boundary_matrix(self, k: int) -> BitMatrix:
        """Incidence matrix of codimension-one faces (mod 2)."""
        rows = self.cells(k - 1)
        cols = self.cells(k)
        idx = {c: i for i, c in enumerate(rows)}
        entries = []
        for j, c in enumerate(cols):
            for f in self.faces[c]:
                if self.dims[f] == k - 1:
                    entries.append((idx[f], j))
        return BitMatrix.from_entries(len(rows), len(cols), entries)


@dataclass(frozen=True)
class ConstructibleFunction:
    complex: CellComplex
    weights: Mapping[Cell, int]

    def __post_init__(self) -> None:
        for c, v in self.weights.items():
            if c not in self.complex.dims:
                raise EulerError(f"weight on unknown cell {c}")
            if not isinstance(v, int):
                raise EulerError("weights must be integers")

    def value(self, c: Cell) -> int:
        return self.weights.get(c, 0)

    def support(self) -> list[Cell]:
        return sorted((c for c, v in self.weights.items() if v),
                      key=lambda c: (self.complex.dims[c], str(c)))

    @classmethod
    def indicator(cls, cx: CellComplex, cells: Iterable[Cell]) -> "ConstructibleFunction":
        return cls(cx, {c: 1 for c in cells})

    @classmethod
    def constant(cls, cx: CellComplex, value: int = 1) -> "ConstructibleFunction":
        return cls(cx, {c: value for c in cx.dims})


@dataclass(frozen=True)
class CellChain:
    complex: CellComplex
    k: int
    members: frozenset

    def __post_init__(self) -> None:
        for c in self.members:
            if self.complex.dims.get(c) != self.k:
                raise EulerError(f"chain member {c} is not a {self.k}-cell")

    def __add__(self, other: "CellChain") -> "CellChain":
        if other.complex is not self.complex or other.k != self.k:
            raise EulerError("chains not compatible")
        return CellChain(self.complex, self.k,
                         self.members.symmetric_difference(other.members))


@dataclass(frozen=True)
class SimpMap:
    """Cellwise map: every open cell maps onto an open cell of the target."""

    source: CellComplex
    target: CellComplex
    assignment: Mapping[Cell, Cell]

    def __post_init__(self) -> None:
        for c in self.source.dims:
            if c not in self.assignment:
                raise EulerError(f"map not defined on cell {c}")
        for c, d in self.assignment.items():
            if d not in self.target.dims:
                raise EulerError(f"image cell {d} not in target")
            if self.target.dims[d] > self.source.dims[c]:
                raise EulerError(f"map raises dimension on {c}")
            for f in self.source.faces[c]:
                img = self.assignment[f]
                if img != d and img not in self.target.faces[d]:
                    raise EulerError(f"map not face-compatible at {f} < {c}")

    def __call__(self, c: Cell) -> Cell:
        return self.assignment[c]

    def compose(self, other: "SimpMap") -> "SimpMap":
        """self after other (other applied first)."""
        if other.target is not self.source:
            raise EulerError("maps not composable")
        return SimpMap(other.source, self.target,
                       {c: self.assignment[d] for c, d in other.assignment.items()})

    @classmethod
    def product(cls, f: "SimpMap", g: "SimpMap") -> "SimpMap":
        src = CellComplex.product(f.source, g.source)
        dst = CellComplex.product(f.target, g.target)
        return cls(src, dst, {
            ("x", ca, cb): ("x", f.assignment[ca], g.assignment[cb])
            for ca in f.source.dims for cb in g.source.dims
        })

    @classmethod
    def identity(cls, cx: CellComplex) -> "SimpMap":
        return cls(cx, cx, {c: c for c in cx.dims})


# ---------------------------------------------------------------------------
# Operators


def link(phi: ConstructibleFunction) -> ConstructibleFunction:
    cx = phi.complex
    out = {}
    for c in cx.dims:
        s = cx.dims[c]
        val = phi.value(c) * (0 if s % 2 == 0 else 2)
        for tau in cx.cofaces[c]:
            a = phi.value(tau)
            if a:
                val += a if (cx.dims[tau] - 1) % 2 == 0 else -a
        if val:
            out[c] = val
    return ConstructibleFunction(cx, out)


def chain_boundary(c: CellChain) -> CellChain:
    if c.k == 0:
        return CellChain(c.complex, 0, frozenset())
    lam = link(ConstructibleFunction.indicator(c.complex, c.members))
    members = frozenset(
        w for w in c.complex.cells(c.k - 1) if lam.value(w) % 2 == 1)
    return CellChain(c.complex, c.k - 1, members)


def euler_integral(phi: ConstructibleFunction) -> int:
    return sum(v if phi.complex.dims[c] % 2 == 0 else -v
               for c, v in phi.weights.items())


def pushforward_cf(f: SimpMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    if phi.complex is not f.source:
        raise EulerError("function lives on a different complex")
    out: dict[Cell, int] = {}
    for c, v in phi.weights.items():
        if not v:
            continue
        d = f.assignment[c]
        sign = 1 if (f.source.dims[c] - f.target.dims[d]) % 2 == 0 else -1
        out[d] = out.get(d, 0) + sign * v
    return ConstructibleFunction(f.target, {d: v for d, v in out.items() if v})


def pushforward_chain(f: SimpMap, c: CellChain) -> CellChain:
    for m in c.members:
        if f.target.dims[f.assignment[m]] != c.k:
            raise EulerError(f"map collapses chain member {m}")
    img = pushforward_cf(f, ConstructibleFunction.indicator(f.source, c.members))
    members = frozenset(
        d for d in f.target.cells(c.k) if img.value(d) % 2 == 1)
    return CellChain(f.target, c.k, members)


def restrict(c: CellChain, is_open: Callable[[Cell], bool]) -> CellChain:
    """Restriction of a chain to an open subset (complement of a closed one)."""
    cx = c.complex
    for cell in cx.dims:
        if is_open(cell):
            for tau in cx.cofaces[cell]:
                if not is_open(tau):
                    raise EulerError(f"predicate is not open at {cell} < {tau}")
    return CellChain(cx, c.k, frozenset(m for m in c.members if is_open(m)))


def closure(c: CellChain, ambient: CellComplex | None = None) -> CellChain:
    """Closure of a chain inside the ambient complex.

    Chains are degree-homogeneous, so the added closure cells (which
    have strictly lower dimension) do not change the member set.
    """
    ambient = ambient or c.complex
    for m in c.members:
        if ambient.dims.get(m) != c.k:
            raise EulerError(f"member {m} missing from ambient complex")
    return CellChain(ambient, c.k, c.members)


def pullback(
    pi: SimpMap,
    c: CellChain,
    exceptional: Iterable[Cell],
    center: Iterable[Cell],
) -> CellChain:
    """Pullback of a chain along a map that is a bijection off a center.

    ``center`` is the closed subset Y of the target, ``exceptional`` the
    closed subset of the source over Y; off these, pi must restrict to a
    cellwise bijection.  The pullback restricts c away from Y, transports
    it through the inverse bijection, and takes the closure upstairs.
    """
    if c.complex is not pi.target:
        raise EulerError("chain lives on a different complex")
    center = set(center)
    exceptional = set(exceptional)
    inverse: dict[Cell, Cell] = {}
    for s in pi.source.dims:
        if s in exceptional:
            continue
        t = pi.assignment[s]
        if t in center:
            raise EulerError(f"cell {s} outside the exceptional set maps into the center")
        if t in inverse:
            raise EulerError(f"map is not injective off the exceptional set at {t}")
        inverse[t] = s
    off = restrict(c, lambda cell: cell not in center)
    members = set()
    for m in off.members:
        if m not in inverse:
            raise EulerError(f"cell {m} has no preimage off the exceptional set")
        members.add(inverse[m])
    return closure(CellChain(pi.source, c.k, frozenset(members)))


def half_boundary(
    phi: ConstructibleFunction, w_cells: Iterable[Cell]
) -> ConstructibleFunction:
    """Average of phi over the local components along a codimension-one set.

    Values are stored doubled (the true averaged value times two) to
    stay in integer arithmetic: the returned weight at w is the plain
    sum over incident top cells of the support.
    """
    cx = phi.complex
    support = phi.support()
    if not support:
        return ConstructibleFunction(cx, {})
    k = max(cx.dims[c] for c in support)
    if any(cx.dims[c] != k for c in support):
        raise EulerError("function support is not pure-dimensional")
    w_cells = list(w_cells)
    for w in w_cells:
        if cx.dims[w] != k - 1:
            raise EulerError(f"cell {w} is not codimension one in the support")
    out = {}
    for w in w_cells:
        val = sum(phi.value(z) for z in cx.cofaces[w] if cx.dims[z] == k)
        if val:
            out[w] = val
    return ConstructibleFunction(cx, out)


# ---------------------------------------------------------------------------
# Fixtures used across tests and the check suites


def circle_complex() -> CellComplex:
    """Two vertices, two parallel edges: the minimal circle model."""
    return CellComplex.from_simplices([
        ((0,), 0), ((1,), 0), ((0, 1), 0), ((0, 1), 1),
    ])


def fold_map() -> SimpMap:
    """The double-cover-like fold of the circle model onto itself:
    both edges land on edge copy 0, vertices stay fixed."""
    cx = circle_complex()
    e0 = simplex_cell((0, 1), 0)
    e1 = simplex_cell((0, 1), 1)
    return SimpMap(cx, cx, {
        simplex_cell((0,)): simplex_cell((0,)),
        simplex_cell((1,)): simplex_cell((1,)),
        e0: e0,
        e1: e0,
    })


# ---------------------------------------------------------------------------
# Serialization


def _cell_from_doc(entry) -> tuple[Sequence[int], int]:
    if isinstance(entry, Mapping):
        return list(entry["vertices"]), int(entry.get("copy", 0))
    return list(entry), 0


def complex_from_doc(doc: Mapping) -> CellComplex:
    simplices = [_cell_from_doc(e) for e in doc.get("simplices", [])]
    return CellComplex.from_simplices(simplices)


def function_from_doc(doc: Mapping, cx: CellComplex) -> ConstructibleFunction:
    weights = {}
    for e in doc.get("weights", []):
        vs, copy = _cell_from_doc(e["simplex"] if "simplex" in e else e["cell"])
        weights[simplex_cell(vs, copy)] = int(e["value"])
    return ConstructibleFunction(cx, weights)


def chain_from_doc(doc: Mapping, cx: CellComplex) -> CellChain:
    members = frozenset(
        simplex_cell(*_cell_from_doc(e)) for e in doc.get("members", []))
    return CellChain(cx, int(doc["k"]), members)


def map_from_doc(doc: Mapping, src: CellComplex, dst: CellComplex) -> SimpMap:
    assignment = {}
    for e in doc.get("cells", []):
        f_vs, f_copy = _cell_from_doc(e["from"])
        t_vs, t_copy = _cell_from_doc(e["to"])
        assignment[simplex_cell(f_vs, f_copy)] = simplex_cell(t_vs, t_copy)
    return SimpMap(src, dst, assignment)


def function_to_doc(phi: ConstructibleFunction) -> dict:
    weights = []
    for c in phi.support():
        kind, vs, copy = c
        if kind != "s":
            raise EulerError("only simplex-like cells serialize")
        entry = {"simplex": list(vs), "value": phi.weights[c]}
        if copy:
            entry["simplex"] = {"vertices": list(vs), "copy": copy}
        weights.append(entry)
    return {"weights": weights}
