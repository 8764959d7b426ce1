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
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

from . import gf2
from .gf2 import BitMatrix, InputError, _built, json_int, json_list, json_object


class EulerError(InputError):
    pass


# A cell is ("s", vertex_tuple, copy) for simplex-like cells or
# ("x", cell_a, cell_b) for product cells.
Cell = tuple


def simplex_cell(vertices: Iterable[int], copy: int = 0) -> Cell:
    return ("s", tuple(sorted(vertices)), copy)


class CellComplex:
    """Finite cell complex given by dimensions and the face partial order.

    A complex is held in numbered form: ``_cells`` lists the cells,
    ``_dims`` their dimensions, ``_ids`` numbers them and ``_face_ids``
    holds the numbers of each cell's faces.  The operators work on the
    numbers, so a cell (a nested tuple for product cells) is hashed once
    per construction instead of once per incidence.
    :meth:`from_simplices` and :meth:`product` number their cells as they
    build them; the constructor takes caller-supplied tables and
    validates them.  The cell-keyed ``dims``, ``faces`` and ``cofaces``,
    the closures, the cells' text (``_names``) and the sorted cell lists
    are built on first use; a builder that already holds the text may set
    ``_names`` itself.
    """

    def __init__(self, dims: Mapping[Cell, int], faces: Mapping[Cell, frozenset]):
        cells = list(dims)
        ids = {c: i for i, c in enumerate(cells)}
        face_sets = [frozenset(faces.get(c, ())) for c in cells]
        self._cells, self._dims, self._ids = cells, list(dims.values()), ids
        self._face_ids = [[ids.get(f) for f in fs] for fs in face_sets]
        self.faces = dict(zip(cells, face_sets))
        dim_of = self._dims.__getitem__
        for c, d, face_ids in zip(self._cells, self._dims, self._face_ids):
            if face_ids and (None in face_ids or max(map(dim_of, face_ids)) >= d):
                raise EulerError(self._face_fault(c))

    @classmethod
    def _numbered(cls, cells: list[Cell], dims: list[int], ids: dict[Cell, int],
                  face_ids: list[list[int]]) -> "CellComplex":
        """A complex from its numbered form, which must be valid."""
        cx = cls.__new__(cls)
        cx._cells, cx._dims, cx._ids, cx._face_ids = cells, dims, ids, face_ids
        return cx

    def _face_fault(self, c: Cell) -> str:
        """The message for the first faulty face of c: an unknown face,
        the least by text, else the first face in cell order that does
        not drop dimension."""
        unknown = [f for f in self.faces[c] if f not in self._ids]
        if unknown:
            return f"cell {c} has unknown face {min(unknown, key=str)}"
        i = self._ids[c]
        j = next(j for j in sorted(self._face_ids[i]) if self._dims[j] >= self._dims[i])
        return f"face {self._cells[j]} of {c} does not drop dimension"

    def __iter__(self):
        """The cells in numbering order, the order of ``dims``."""
        return iter(self._cells)

    @cached_property
    def dims(self) -> dict[Cell, int]:
        return dict(zip(self._cells, self._dims))

    @cached_property
    def faces(self) -> dict[Cell, frozenset]:
        """The faces of each cell."""
        cell_of = self._cells.__getitem__
        return {c: frozenset(map(cell_of, face_ids))
                for c, face_ids in zip(self._cells, self._face_ids)}

    @cached_property
    def cofaces(self) -> dict[Cell, frozenset]:
        """The cells of which each cell is a face."""
        up: list[set] = [set() for _ in self._cells]
        for c, face_ids in zip(self._cells, self._face_ids):
            for j in face_ids:
                up[j].add(c)
        return {c: frozenset(s) for c, s in zip(self._cells, up)}

    @cached_property
    def _closures(self) -> list[frozenset]:
        """The numbers of each cell's closure: its faces and itself."""
        return [frozenset(face_ids).union((i,)) for i, face_ids in enumerate(self._face_ids)]

    @cached_property
    def _names(self) -> list[str]:
        """The text of each cell, by number."""
        return list(map(str, self._cells))

    @cached_property
    def _sorted_ids(self) -> dict[int, list[int]]:
        """Cell numbers by dimension, each list ordered by the cells' text."""
        names = self._names
        by_dim: dict[int, list[int]] = {}
        for i in sorted(range(len(names)), key=lambda i: (self._dims[i], names[i])):
            by_dim.setdefault(self._dims[i], []).append(i)
        return by_dim

    @cached_property
    def _products(self) -> WeakKeyDictionary[CellComplex, CellComplex]:
        # Weak keys: the square of a complex is cached on it and keyed by
        # it, and a strong key would make that a reference cycle, keeping
        # the complex and all its products alive until the cycle collector
        # runs.
        return WeakKeyDictionary()

    @classmethod
    def from_simplices(cls, simplices: Iterable[tuple[Sequence[int], int]]) -> "CellComplex":
        """Closure of the given (vertex set, copy) simplices.

        Implied faces (proper subsets) are added with copy 0, so copy
        indices are meaningful only for maximal parallel cells.  The cells
        are numbered in order of first appearance: each simplex, then its
        new proper faces by size in ``combinations`` order.  A simplex
        whose closure alone, or simplices whose closures together, have
        more face incidences than ``gf2.MAX_CELLS`` are refused.
        """
        limit = gf2.MAX_CELLS
        cells: list[Cell] = []
        dims: list[int] = []
        ids: dict[Cell, int] = {}
        face_ids: list = []
        faces_of: dict[tuple, list[int]] = {}  # vertex tuple -> its proper faces' numbers
        given: set[Cell] = set()
        incidences = 0
        for vs, copy in simplices:
            vs = tuple(sorted(set(vs)))
            if not vs:
                raise EulerError("empty simplex")
            cell = ("s", vs, copy)
            if cell in given:
                raise EulerError(f"duplicate simplex {vs} copy {copy}")
            given.add(cell)
            n = len(vs)
            # The closure of n vertices has 3^n - 2^(n+1) + 1 face incidences;
            # past the first bound 2^n alone exceeds the limit.
            if n > limit.bit_length() + 1 or 3 ** n - 2 ** (n + 1) + 1 > limit:
                raise EulerError(f"simplex {vs} has more face incidences in its "
                                 f"closure than the {limit} the build allows")
            if cell in ids:
                continue
            i = ids[cell] = len(cells)
            cells.append(cell)
            dims.append(n - 1)
            face_ids.append(None)
            own = faces_of.get(vs)
            if own is None:
                own = faces_of[vs] = []
                fresh = []  # (position in own, vertex tuple) of the faces new here
                for r in range(1, n):
                    for sub in itertools.combinations(vs, r):
                        f = ("s", sub, 0)
                        j = ids.get(f)
                        if j is None:
                            j = ids[f] = len(cells)
                            cells.append(f)
                            dims.append(r - 1)
                            face_ids.append(None)
                            fresh.append((len(own), sub))
                        own.append(j)
                template = _face_template(n)
                for t, sub in fresh:
                    face_ids[own[t]] = faces_of[sub] = [own[u] for u in template[t]]
                    incidences += len(template[t])
            face_ids[i] = own
            incidences += len(own)
            if incidences > limit:
                raise EulerError(f"the simplices have {incidences} face incidences, "
                                 f"more than the {limit} the build allows")
        return cls._numbered(cells, dims, ids, face_ids)

    @classmethod
    def simplicial(cls, simplices: Iterable[Sequence[int]]) -> "CellComplex":
        return cls.from_simplices([(vs, 0) for vs in simplices])

    @classmethod
    def product(cls, a: "CellComplex", b: "CellComplex") -> "CellComplex":
        """The product complex, built once per operand pair.

        Cell ``(ia, ib)`` is numbered ``ia * nb + ib``, so the faces of a
        product cell, the pairs from the two closures but the cell itself,
        are numbered by arithmetic.  Maps and functions are tied to their
        complex by identity, so products of the same operands must be the
        same object for maps between them to compose.  The product is
        cached on ``a``, keyed weakly by ``b``.
        """
        cached = a._products.get(b)
        if cached is not None:
            return cached
        nb = len(b._cells)
        cells = [("x", ca, cb) for ca in a._cells for cb in b._cells]
        dims = [da + db for da in a._dims for db in b._dims]
        closures_b = [face_ids + [ib] for ib, face_ids in enumerate(b._face_ids)]
        face_ids = []
        for ia, faces_a in enumerate(a._face_ids):
            rows = [ja * nb for ja in faces_a]
            rows.append(ia * nb)
            for closure_b in closures_b:
                pairs = [row + jb for row in rows for jb in closure_b]
                pairs.pop()  # the last pair is the cell itself
                face_ids.append(pairs)
        product = a._products[b] = cls._numbered(
            cells, dims, {c: i for i, c in enumerate(cells)}, face_ids)
        return product

    def cells(self, k: int | None = None) -> list[Cell]:
        """The cells of dimension k (all cells if k is None), ordered by
        dimension and then by their text."""
        by_dim = self._sorted_ids
        ids = by_dim.get(k, []) if k is not None else [
            i for d in sorted(by_dim) for i in by_dim[d]]
        return [self._cells[i] for i in ids]

    def top_dim(self) -> int:
        return max(self._dims, default=-1)

    def boundary_matrix(self, k: int) -> BitMatrix:
        """Incidence matrix of codimension-one faces (mod 2)."""
        rows = self._sorted_ids.get(k - 1, [])
        cols = self._sorted_ids.get(k, [])
        row_of = {i: r for r, i in enumerate(rows)}
        entries = [(row_of[f], col) for col, i in enumerate(cols)
                   for f in self._face_ids[i] if self._dims[f] == k - 1]
        return BitMatrix.from_entries(len(rows), len(cols), entries)


@cache
def _face_template(n: int) -> list[list[int]]:
    """For the nonempty proper subsets of n positions, by size in
    ``combinations`` order: the places in that list of each subset's own
    nonempty proper subsets, in the same order."""
    subsets = [s for r in range(1, n) for s in itertools.combinations(range(n), r)]
    place = {s: t for t, s in enumerate(subsets)}
    return [[place[sub] for r in range(1, len(s)) for sub in itertools.combinations(s, r)]
            for s in subsets]


@dataclass(frozen=True)
class ConstructibleFunction:
    complex: CellComplex
    weights: Mapping[Cell, int]

    def __post_init__(self) -> None:
        weights = self.weights
        if weights.keys() <= self.complex._ids.keys() and all(
                map(isinstance, weights.values(), itertools.repeat(int))):
            return
        for c, v in weights.items():
            if c not in self.complex._ids:
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
        return cls(cx, dict.fromkeys(cx, value))


@dataclass(frozen=True)
class CellChain:
    complex: CellComplex
    k: int
    members: frozenset

    def __post_init__(self) -> None:
        if self.k < 0:
            raise EulerError(f"a chain's degree k must not be negative, not {self.k}")
        ids, dims, k = self.complex._ids, self.complex._dims, self.k
        bad = [c for c in self.members if c not in ids or dims[ids[c]] != k]
        if bad:
            # The first in cell order, unknown cells last by their text.
            c = min(bad, key=lambda c: (ids.get(c, len(dims)), str(c)))
            raise EulerError(f"chain member {c} is not a {k}-cell")


@dataclass(frozen=True)
class SimpMap:
    """Cellwise map: every open cell maps onto an open cell of the target.

    Construction checks the map and keeps, as ``_image``, the number of
    each source cell's image in the target.
    """

    source: CellComplex
    target: CellComplex
    assignment: Mapping[Cell, Cell]

    def __post_init__(self) -> None:
        image = self._image_ids()
        if image is None:
            raise EulerError(self._first_fault())
        object.__setattr__(self, "_image", image)

    def _image_ids(self) -> list[int] | None:
        """The number of each source cell's image, or None if the map is
        not a cellwise map: the assignment must cover exactly the source
        cells, land in the target, not raise dimension, and send the
        faces of each cell into the closure of its image."""
        src, dst, assignment = self.source, self.target, self.assignment
        if len(assignment) != len(src._cells):
            return None
        try:
            image = [dst._ids[assignment[c]] for c in src._cells]
        except KeyError:
            return None
        closures, dst_dims, image_of = dst._closures, dst._dims, image.__getitem__
        for t, d, face_ids in zip(image, src._dims, src._face_ids):
            if dst_dims[t] > d or not closures[t].issuperset(map(image_of, face_ids)):
                return None
        return image

    def _first_fault(self) -> str:
        """The message for the first fault, in assignment order and then
        in the cell order of the faces, of a map that :meth:`_image_ids`
        refused."""
        for c in self.source.dims:
            if c not in self.assignment:
                return f"map not defined on cell {c}"
        src = self.source
        for c, d in self.assignment.items():
            if c not in self.source.dims:
                return f"map assigns cell {c}, which is not in the source"
            if d not in self.target.dims:
                return f"image cell {d} not in target"
            if self.target.dims[d] > self.source.dims[c]:
                return f"map raises dimension on {c}"
            for j in sorted(src._face_ids[src._ids[c]]):
                f = src._cells[j]
                img = self.assignment[f]
                if img != d and img not in self.target.faces[d]:
                    return f"map not face-compatible at {f} < {c}"
        raise AssertionError("a refused map has no fault")

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
        """The product map, numbered as :meth:`CellComplex.product` numbers
        its cells.  A product of cellwise maps is cellwise, so it is not
        checked again."""
        src = CellComplex.product(f.source, g.source)
        dst = CellComplex.product(f.target, g.target)
        nt = len(g.target._cells)
        image = [ft * nt + gt for ft in f._image for gt in g._image]
        return _built(cls, source=src, target=dst, _image=image,
                      assignment=dict(zip(src._cells, map(dst._cells.__getitem__, image))))

    @classmethod
    def identity(cls, cx: CellComplex) -> "SimpMap":
        return cls(cx, cx, {c: c for c in cx})


# ---------------------------------------------------------------------------
# Operators


def _link_numbers(cx: CellComplex, weights: Mapping[Cell, int]) -> list[int]:
    """The link operator on weights over cells of cx, one value per cell
    number, pushed forward from the support: a cell tau of weight a adds
    a * (1 + (-1)^(dim tau - 1)) to itself and a * (-1)^(dim tau - 1) to
    each of its faces, which sums to the formula of the module docstring
    at every cell."""
    ids, dims, face_ids = cx._ids, cx._dims, cx._face_ids
    out = [0] * len(dims)
    for tau, a in weights.items():
        if not a:
            continue
        i = ids[tau]
        if dims[i] % 2:
            out[i] += 2 * a
        else:
            a = -a
        for j in face_ids[i]:
            out[j] += a
    return out


def link(phi: ConstructibleFunction) -> ConstructibleFunction:
    """The link operator of the module docstring, zero values dropped."""
    cx = phi.complex
    return _built(ConstructibleFunction, complex=cx, weights={
        c: v for c, v in zip(cx._cells, _link_numbers(cx, phi.weights)) if v})


def chain_boundary(c: CellChain) -> CellChain:
    """The parity boundary: the (k-1)-cells where the link of the
    chain's indicator function is odd."""
    cx = c.complex
    if c.k == 0:
        return _built(CellChain, complex=cx, k=0, members=frozenset())
    k = c.k - 1
    lam = _link_numbers(cx, dict.fromkeys(c.members, 1))
    return _built(CellChain, complex=cx, k=k, members=frozenset(
        w for w, d, v in zip(cx._cells, cx._dims, lam) if v % 2 and d == k))


def euler_integral(phi: ConstructibleFunction) -> int:
    return sum(v if phi.complex.dims[c] % 2 == 0 else -v
               for c, v in phi.weights.items())


def pushforward_cf(f: SimpMap, phi: ConstructibleFunction) -> ConstructibleFunction:
    if phi.complex is not f.source:
        raise EulerError("function lives on a different complex")
    src, dst, image = f.source, f.target, f._image
    out: dict[int, int] = {}
    for c, v in phi.weights.items():
        if not v:
            continue
        i = src._ids[c]
        t = image[i]
        sign = 1 if (src._dims[i] - dst._dims[t]) % 2 == 0 else -1
        out[t] = out.get(t, 0) + sign * v
    return _built(ConstructibleFunction, complex=dst,
                  weights={dst._cells[t]: v for t, v in out.items() if v})


def pushforward_chain(f: SimpMap, c: CellChain) -> CellChain:
    if c.complex is not f.source:
        raise EulerError("chain lives on a different complex")
    ids, image, dims = f.source._ids, f._image, f.target._dims
    collapsed = [m for m in c.members if dims[image[ids[m]]] != c.k]
    if collapsed:
        raise EulerError(f"map collapses chain member {min(collapsed, key=ids.__getitem__)}")
    # Every member lands on a k-cell, so the image lives on k-cells.
    img = pushforward_cf(f, ConstructibleFunction.indicator(f.source, c.members))
    return CellChain(f.target, c.k, frozenset(d for d, v in img.weights.items() if v % 2))


def restrict(c: CellChain, is_open: Callable[[Cell], bool]) -> CellChain:
    """Restriction of a chain to an open subset (complement of a closed one)."""
    cx = c.complex
    flags = list(map(is_open, cx._cells))
    is_flagged = flags.__getitem__
    if any(any(map(is_flagged, face_ids))
           for ok, face_ids in zip(flags, cx._face_ids) if not ok):
        # An open face of a closed cell: name the first open cell in cell
        # order, and its first closed coface.
        i, j = min((i, j) for j, (ok, face_ids) in enumerate(zip(flags, cx._face_ids))
                   if not ok for i in face_ids if flags[i])
        raise EulerError(f"predicate is not open at {cx._cells[i]} < {cx._cells[j]}")
    return CellChain(cx, c.k, frozenset(m for m in c.members if flags[cx._ids[m]]))


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
    w_cells = list(w_cells)
    for w in w_cells:
        if w not in cx._ids:
            raise EulerError(f"cell {w} is not in the complex")
    support = phi.support()
    if not support:
        return ConstructibleFunction(cx, {})
    k = max(cx.dims[c] for c in support)
    if any(cx.dims[c] != k for c in support):
        raise EulerError("function support is not pure-dimensional")
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


# Documents come from outside: every shape and type is checked here, so
# that a malformed document raises EulerError and never a KeyError or
# TypeError from deeper down.


def _field(entry, key: str, what: str):
    if key not in json_object(entry, what, error=EulerError):
        raise EulerError(f"{what} {entry!r} has no {key!r}")
    return entry[key]


def _cell_from_doc(entry) -> tuple[list[int], int]:
    """(vertices, copy) of a cell written as a vertex list or as
    {"vertices": [...], "copy": c}."""
    if isinstance(entry, Mapping):
        vertices = _field(entry, "vertices", "cell")
        copy = json_int(entry.get("copy", 0), "a cell's copy", EulerError)
    else:
        vertices, copy = entry, 0
    if not isinstance(vertices, list):
        raise EulerError(f"cell {entry!r} is not a vertex list")
    return [json_int(v, "a vertex", EulerError) for v in vertices], copy


def _assign(table: dict, cell: Cell, value, what: str) -> None:
    if table.setdefault(cell, value) != value:
        raise EulerError(f"{what} gives cell {cell} two values")


def _entries(doc, what: str, key: str) -> list:
    """The list ``doc[key]`` of the document named ``what``, empty when
    the key is missing."""
    return json_list(json_object(doc, what, error=EulerError).get(key, []), repr(key),
                     error=EulerError)


def complex_from_doc(doc: Mapping) -> CellComplex:
    entries = _entries(doc, "complex document", "simplices")
    return CellComplex.from_simplices([_cell_from_doc(e) for e in entries])


def function_from_doc(doc: Mapping, cx: CellComplex) -> ConstructibleFunction:
    weights: dict[Cell, int] = {}
    for e in _entries(doc, "function document", "weights"):
        if "simplex" not in json_object(e, "weight", error=EulerError) and "cell" not in e:
            raise EulerError(f"weight {e!r} has no 'simplex' or 'cell'")
        cell = simplex_cell(*_cell_from_doc(e["simplex"] if "simplex" in e else e["cell"]))
        value = json_int(_field(e, "value", "weight"), "a weight", EulerError)
        _assign(weights, cell, value, "the function")
    return ConstructibleFunction(cx, weights)


def chain_from_doc(doc: Mapping, cx: CellComplex) -> CellChain:
    if "k" not in json_object(doc, "chain document", error=EulerError):
        raise EulerError("chain document has no 'k'")
    members: dict[Cell, None] = {}
    for e in _entries(doc, "chain document", "members"):
        cell = simplex_cell(*_cell_from_doc(e))
        # Mod 2 a cell listed twice is zero: refused rather than read.
        if cell in members:
            raise EulerError(f"the chain lists cell {cell} twice")
        members[cell] = None
    return CellChain(cx, json_int(doc["k"], "a chain's k", EulerError), frozenset(members))


def map_from_doc(doc: Mapping, src: CellComplex, dst: CellComplex) -> SimpMap:
    assignment: dict[Cell, Cell] = {}
    for e in _entries(doc, "map document", "cells"):
        _assign(assignment, simplex_cell(*_cell_from_doc(_field(e, "from", "map entry"))),
                simplex_cell(*_cell_from_doc(_field(e, "to", "map entry"))), "the map")
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
