"""Property suites over the fixture corpus.

These back the ``check`` CLI command, and pytest reads the same
registry, :data:`SUITES`.  A suite is a list of entries, each called
with one :class:`ToricCorpus` and giving one :class:`CheckResult`, run
in order.  The toric and fcomplex entries are :class:`Property` objects:
a title, the fan set they run over and a function of one fan,
``(name, fan, tcc, ss) -> list of fault strings``, so that a property is
written once and can be run on any fan.  The cubical and euler checks
make their own inputs and return their result whole; they are called
with the corpus too, which only the additivity checks read.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Callable, Iterable

from .complexes import ChainComplex, canonical_filtration, trivial_filtration
from .cubical import (
    CubicalDiagram,
    additivity_check,
    is_acyclic,
    simple_filtered,
    skeleton_filtration,
)
from .euler import (
    Cell,
    CellChain,
    CellComplex,
    ConstructibleFunction,
    SimpMap,
    chain_boundary,
    circle_complex,
    euler_integral,
    fold_map,
    link,
    pushforward_cf,
    restrict,
    simplex_cell,
)
from .fixtures import (
    all_hyperres,
    fan_corpus,
    klein_square,
    smooth_complete_corpus,
)
from .gf2 import BitMatrix, BitSubspace
from .pages import (
    SpectralSequence,
    decalage_mismatches,
    purity_collapse_report,
    reindexed_page,
    virtual_poincare,
)
from .toric import (
    Fan,
    ToricCellComplex,
    _level_order,
    _orbit_map,
    orbit_sum_poly,
    standard_fan,
    toric_cell_complex,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, ok, detail if not ok else "")


class ToricCorpus:
    """The fans the toric and fcomplex suites run over, with each fan's
    toric cell complex and the spectral sequence of its filtration, and
    the complexes of the standard fans the cubical suite reads.

    Each is built on first use and shared by the checks that read it.
    :func:`run_suite` makes one corpus per call, so a request builds each
    object once and nothing outlives the call.  A name denotes one fan in
    both fixture corpora.
    """

    def __init__(self) -> None:
        self._complexes: dict[str, ToricCellComplex] = {}
        self._sequences: dict[str, SpectralSequence] = {}
        self._standard: dict[tuple[str, int], ToricCellComplex] = {}

    @cached_property
    def fans(self) -> dict[str, Fan]:
        return fan_corpus()

    @cached_property
    def smooth_complete(self) -> dict[str, Fan]:
        return smooth_complete_corpus(self.fans)

    def fan(self, name: str) -> Fan:
        return self.fans[name] if name in self.fans else self.smooth_complete[name]

    def complex(self, name: str) -> ToricCellComplex:
        if name not in self._complexes:
            self._complexes[name] = toric_cell_complex(self.fan(name))
        return self._complexes[name]

    def standard(self, name: str, param: int) -> ToricCellComplex:
        """The toric cell complex of ``standard_fan(name, param)``, without
        reading the fixture corpus."""
        key = (name, param)
        if key not in self._standard:
            self._standard[key] = toric_cell_complex(standard_fan(name, param))
        return self._standard[key]

    def sequence(self, name: str) -> SpectralSequence:
        """The spectral sequence of the fan's toric filtration."""
        if name not in self._sequences:
            self._sequences[name] = SpectralSequence(self.complex(name).filtered)
        return self._sequences[name]


@dataclass(frozen=True)
class FanSet:
    """The corpus fans a property runs over: those of the fan corpus, or
    of the smooth complete corpus, of lattice rank at most ``max_rank``."""

    smooth_complete: bool = False
    max_rank: int | None = None

    def names(self, corpus: ToricCorpus) -> list[str]:
        fans = corpus.smooth_complete if self.smooth_complete else corpus.fans
        return [name for name, fan in fans.items()
                if self.max_rank is None or fan.n <= self.max_rank]


ALL_FANS = FanSet()
SMOOTH_COMPLETE = FanSet(smooth_complete=True)
RANK_2 = FanSet(max_rank=2)
RANK_3 = FanSet(max_rank=3)


@dataclass(frozen=True)
class Property:
    """A check that holds fan by fan.  ``on_fan(name, fan, tcc, ss)``
    lists the faults on one fan, given its toric cell complex and the
    spectral sequence of its toric filtration.  Called with a corpus, the
    property runs over the fans of its set and fails with their faults,
    joined by "; "."""

    title: str
    fans: FanSet
    # An annotation, never evaluated: a typing alias made at import would
    # stay in typing's cache and keep these modules alive after a reimport.
    on_fan: Callable[[str, Fan, ToricCellComplex, SpectralSequence], list[str]]

    def faults(self, corpus: ToricCorpus, name: str) -> list[str]:
        """The faults on one corpus fan."""
        return self.on_fan(name, corpus.fan(name), corpus.complex(name),
                           corpus.sequence(name))

    def __call__(self, corpus: ToricCorpus) -> CheckResult:
        faults = [fault for name in self.fans.names(corpus)
                  for fault in self.faults(corpus, name)]
        return _result(self.title, not faults, "; ".join(faults))


def per_fan(title: str, fans: FanSet) -> Callable[[Callable], Property]:
    """Make the decorated function of one fan the property ``title``
    over ``fans``."""
    return lambda on_fan: Property(title, fans, on_fan)


# ---------------------------------------------------------------------------
# toric suite


@per_fan("toric boundary squares to zero", ALL_FANS)
def check_boundary_squares_zero(name, fan, tcc, ss) -> list[str]:
    cx = tcc.complex
    return [f"{name} degree {k + 1}" for k in cx.degrees()
            if not cx.d(k).mul(cx.d(k + 1)).is_zero()]


def coset_indicators(tcc: ToricCellComplex, cid: str, q: int) -> list[int]:
    """The indicator vectors of the cosets of the subgroups of T_cid
    generated by q of its standard generators, as degree-codim(cid)
    chains: the paper's definition of the cone's part of T_{-q}."""
    k = tcc.fan.codim(cid)
    base = tcc.cell_index(cid, 0)
    vecs = []
    for s in itertools.combinations(range(k), q):
        s_mask = sum(1 << i for i in s)
        for g in range(1 << k):
            if g & s_mask:
                continue  # one representative per coset
            vec, t = 0, s_mask
            while True:
                vec |= 1 << (base + (g | t))
                if not t:
                    break
                t = (t - 1) & s_mask
            vecs.append(vec)
    return vecs


@per_fan("toric filtration quotients are binomial", ALL_FANS)
def check_filtration_binomials(name, fan, tcc, ss) -> list[str]:
    """The toric filtration is spanned by coset indicators, both as the
    levels of ``filtered`` written in the cell basis and as the levels of
    ``cell_filtered``, and its per-cone quotient dimensions are binomial."""
    bad = []
    fc, cells = tcc.filtered, tcc.cell_filtered
    for k in fc.complex.degrees():
        n = fc.complex.dim(k)
        cids = [cid for cid in fan.cone_ids() if fan.codim(cid) == k]
        # The build's coordinates in the cells: a_S of the c-th cone,
        # at block position b = c·2^k + S, is the sum of its cells t ⊆ S.
        aug = [sum(1 << tcc.cell_index(cids[b >> k], t) for t in range(1 << k) if t & b == t)
               for b in _level_order(k, len(cids))]
        prev = dict.fromkeys(cids, 0)
        for q in range(k, -1, -1):
            by_cone = {cid: coset_indicators(tcc, cid, q) for cid in cids}
            for cid, vecs in by_cone.items():
                dim = BitSubspace.span(n, vecs).dim
                if dim - prev[cid] != comb(k, q):
                    bad.append(f"{name}/{cid} q={q}: {dim - prev[cid]} != C({k},{q})")
                prev[cid] = dim
            span = BitSubspace.span(n, [v for vecs in by_cone.values() for v in vecs])
            if span != BitSubspace.span(n, aug[:fc.level(-q, k).dim]):
                bad.append(f"{name} degree {k}: augmentation level {-q} is not the coset span")
            if span != cells.level(-q, k):
                bad.append(f"{name} degree {k}: cell level {-q} is not the coset span")
    return bad


@per_fan("cell counts are sums of 2^codim", ALL_FANS)
def check_cell_counts(name, fan, tcc, ss) -> list[str]:
    """Both builds have 2^{dim T_σ} cells in degree codim σ for each cone
    σ, with the orbit group T_σ read from ``tcc.groups``."""
    want = Counter()
    for cid, group in tcc.groups.items():
        want[fan.codim(cid)] += 1 << group.dim
    builds = (tcc.filtered.complex, tcc.complex)
    return [f"{name} degree {k}" for k in sorted(set(want).union(*(cx.dims for cx in builds)))
            if any(cx.dim(k) != want[k] for cx in builds)]


@per_fan("virtual polynomial equals the orbit sum", ALL_FANS)
def check_orbit_additivity(name, fan, tcc, ss) -> list[str]:
    got, want = virtual_poincare(ss), orbit_sum_poly(fan)
    return [f"{name}: {got} != {want}"] if got != want else []


@per_fan("smooth complete fixtures are pure", SMOOTH_COMPLETE)
def check_purity_smooth_complete(name, fan, tcc, ss) -> list[str]:
    return [] if purity_collapse_report(ss, fan.n).is_pure else [name]


@per_fan("second page equals the limit in rank <= 3", RANK_3)
def check_collapse_low_dim(name, fan, tcc, ss) -> list[str]:
    return [] if reindexed_page(ss, 2) == reindexed_page(ss, ss.r_inf + 1) else [name]


@per_fan("pages lie in the support triangle", ALL_FANS)
def check_support_triangle(name, fan, tcc, ss) -> list[str]:
    return [] if purity_collapse_report(ss, fan.n).support_ok else [name]


@per_fan("limit page sums to homology", ALL_FANS)
def check_convergence(name, fan, tcc, ss) -> list[str]:
    cx = tcc.filtered.complex
    inf = ss.infinity_page()
    return [f"{name} degree {k}" for k in cx.degrees()
            if sum(d for (p, q), d in inf.items() if p + q == k) != cx.betti(k)]


@per_fan("orbit maps are path independent", ALL_FANS)
def check_orbit_map_paths(name, fan, tcc, ss) -> list[str]:
    bad = []
    groups = tcc.groups
    for cid in fan.cone_ids():
        for mid in fan.covers(cid):
            for top in fan.covers(mid):
                composites = set()
                for other in fan.covers(cid):
                    if top in fan.covers(other):
                        m = _orbit_map(groups[other], groups[top]).mul(
                            _orbit_map(groups[cid], groups[other]))
                        composites.add(m)
                if len(composites) > 1:
                    bad.append(f"{name}: {cid} -> {top}")
    return bad


@per_fan("top graded piece counts cones", ALL_FANS)
def check_positive_part(name, fan, tcc, ss) -> list[str]:
    """The p = 0 graded piece of the cell basis has one dimension per cone."""
    cells = tcc.cell_filtered
    return [f"{name} degree {k}" for k in cells.complex.degrees()
            if cells.level(0, k).dim - cells.level(-1, k).dim
            != sum(1 for cid in fan.cone_ids() if fan.codim(cid) == k)]


# ---------------------------------------------------------------------------
# fcomplex suite


@per_fan("canonical filtration pages sit on q = -2p", ALL_FANS)
def check_canonical_antidiagonal(name, fan, tcc, ss) -> list[str]:
    cx = tcc.filtered.complex
    page = SpectralSequence(canonical_filtration(cx)).page(1)
    bad = [f"{name} at ({p},{q})" for (p, q), d in page.items()
           if q != -2 * p or d != cx.betti(-p)]
    bad += [f"{name} missing degree {k}" for k in cx.degrees()
            if cx.betti(k) and (-k, 2 * k) not in page]
    return bad


@per_fan("shifted filtration matches reindexed pages", RANK_2)
def check_deligne_comparison_toric(name, fan, tcc, ss) -> list[str]:
    return [f"{name} page {r}" for r in sorted({m[0] for m in decalage_mismatches(ss)})]


@per_fan("differentials compute the next page", RANK_2)
def check_page_homology(name, fan, tcc, ss) -> list[str]:
    """d^r squares to zero and computes the next page, as matrices.

    The entries and differentials come from a spectral sequence of the
    property's own, dropped after the fan: no other property reads them,
    and in the shared sequences the caches of every small fan would be
    held at once."""
    bad = []
    ss = SpectralSequence(tcc.filtered)
    for r in range(0, ss.r_inf + 1):
        for (p, q) in ss.page(r):
            d_out = ss.differential(r, p, q)
            d_in = ss.differential(r, p + r, q - r + 1)
            if not d_out.mul(d_in).is_zero():
                bad.append(f"{name} d^{r} at ({p},{q}) does not square to zero")
                continue
            if ss.dim(r + 1, p, q) != ss.dim(r, p, q) - d_out.rank() - d_in.rank():
                bad.append(f"{name} page {r + 1} at ({p},{q}) is not homology")
    return bad


@per_fan("reindexed pages are first quadrant", RANK_2)
def check_reindex_first_quadrant(name, fan, tcc, ss) -> list[str]:
    return [f"{name} page {r} at ({pp},{qq})"
            for r in range(2, ss.r_inf + 2)
            for (pp, qq) in reindexed_page(ss, r) if pp < 0 or qq < 0]


# ---------------------------------------------------------------------------
# cubical suite


def _identity_square() -> CubicalDiagram:
    fc = canonical_filtration(_circle_chain_complex())
    n0, n1 = fc.complex.dim(0), fc.complex.dim(1)
    ident = {0: BitMatrix.identity(n0), 1: BitMatrix.identity(n1)}
    return CubicalDiagram(0, {0: fc, 1: fc}, {(1, 0): ident})


def _circle_chain_complex() -> ChainComplex:
    return ChainComplex.make(
        {0: 2, 1: 2},
        {1: BitMatrix.from_entries(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])},
    )


def check_klein_square_acyclic(corpus: ToricCorpus) -> CheckResult:
    ok = is_acyclic(SpectralSequence(simple_filtered(klein_square())))
    return _result("blowup square total complex is acyclic", ok)


def check_identity_cone_acyclic(corpus: ToricCorpus) -> CheckResult:
    ok = is_acyclic(SpectralSequence(simple_filtered(_identity_square())))
    return _result("cone of the identity is acyclic", ok)


def check_additivity_trivial(corpus: ToricCorpus) -> CheckResult:
    x = corpus.standard("P", 1).filtered
    empty = trivial_filtration(ChainComplex.make({}, {}))
    diagram = CubicalDiagram(0, {0: x, 1: empty}, {(1, 0): {}})
    report = additivity_check(diagram, x)
    return _result("additivity with an empty center", report.ok,
                   str(report.mismatches))


def check_additivity_toric(corpus: ToricCorpus) -> CheckResult:
    """Two fixed points inside the projective line leave a split torus."""
    x = corpus.standard("P", 1).filtered
    y = trivial_filtration(ChainComplex.make({0: 2}, {}))
    # The two degree-0 cells of the line's toric complex are the two
    # torus-fixed points; include them identically.
    incl = {0: BitMatrix.identity(2)}
    diagram = CubicalDiagram(0, {0: x, 1: y}, {(1, 0): incl})
    complement = corpus.standard("trivial", 1).filtered
    report = additivity_check(diagram, complement)
    return _result("additivity for fixed points in the line", report.ok,
                   str(report.mismatches))


def check_additivity_full(corpus: ToricCorpus) -> CheckResult:
    x = corpus.standard("P", 1).filtered
    ident = {k: BitMatrix.identity(x.complex.dim(k)) for k in x.complex.degrees()}
    diagram = CubicalDiagram(0, {0: x, 1: x}, {(1, 0): ident})
    ok = is_acyclic(SpectralSequence(simple_filtered(diagram)))
    return _result("removing everything leaves an acyclic complement", ok)


def check_hyperres_homology(corpus: ToricCorpus) -> CheckResult:
    want = {"single": {0: 1, 1: 1}, "wedge1": {0: 1, 1: 2}, "wedge2": {0: 1, 1: 3}}
    bad = []
    for name, h in all_hyperres().items():
        total = skeleton_filtration(h).complex
        got = {k: total.betti(k) for k in total.degrees() if total.betti(k)}
        if got != want[name]:
            bad.append(f"{name}: {got}")
    return _result("hyperresolution totals have the expected homology",
                   not bad, ", ".join(bad))


def check_hyperres_compare(corpus: ToricCorpus) -> CheckResult:
    bad = []
    for name, h in all_hyperres().items():
        mismatches = decalage_mismatches(SpectralSequence(skeleton_filtration(h)))
        if mismatches:
            bad.append(f"{name}: {mismatches}")
    return _result("hyperresolution pages match the shifted filtration",
                   not bad, "; ".join(bad))


def check_hyperres_convergence(corpus: ToricCorpus) -> CheckResult:
    bad = []
    for name, h in all_hyperres().items():
        fc = skeleton_filtration(h)
        ss = SpectralSequence(fc)
        inf = ss.infinity_page()
        for k in fc.complex.degrees():
            total = sum(d for (p, q), d in inf.items() if p + q == k)
            if total != fc.complex.betti(k):
                bad.append(f"{name} degree {k}")
    return _result("hyperresolution pages converge to homology", not bad, ", ".join(bad))


# ---------------------------------------------------------------------------
# euler suite

# What the randomized checks draw: the most vertices of a random complex,
# and each check's case count and seed.
MAX_VERTICES = 6
LINK_PAIRS, LINK_SEED = 1000, 20240817
BOUNDARY_CHAINS, BOUNDARY_SEED = 200, 9
FOLD_MAX_K = 4
FUBINI_CASES, FUBINI_SEED = 200, 31


def random_simplicial_complex(rng: random.Random) -> CellComplex:
    n = rng.randint(1, MAX_VERTICES)
    vertices = list(range(n))
    simplices = [(v,) for v in vertices]
    for _ in range(rng.randint(0, 8)):
        size = rng.randint(2, min(4, n)) if n >= 2 else 1
        simplices.append(tuple(rng.sample(vertices, size)))
    return table_complex(set(tuple(sorted(s)) for s in simplices))


@cache
def _face_table() -> tuple[dict[tuple[int, ...], int], tuple[Cell, ...], tuple[int, ...],
                           tuple[tuple[int, ...], ...]]:
    """The nonempty faces of the simplex on ``range(MAX_VERTICES)``: each
    vertex tuple's place, and by place its cell, its dimension and the
    places of its proper faces by size in ``combinations`` order."""
    simplices = [vs for r in range(1, MAX_VERTICES + 1)
                 for vs in itertools.combinations(range(MAX_VERTICES), r)]
    place = {vs: t for t, vs in enumerate(simplices)}
    faces = tuple(tuple(place[sub] for r in range(1, len(vs))
                        for sub in itertools.combinations(vs, r)) for vs in simplices)
    return (place, tuple(map(simplex_cell, simplices)),
            tuple(len(vs) - 1 for vs in simplices), faces)


def table_complex(simplices: Iterable[tuple[int, ...]]) -> CellComplex:
    """The closure of sorted vertex tuples on ``range(MAX_VERTICES)``,
    numbered from the face table exactly as :meth:`CellComplex.simplicial`
    numbers it: each simplex not yet present, then its new proper faces.
    A repeated simplex adds nothing.  No such closure reaches the
    face-incidence cap that ``from_simplices`` enforces."""
    place, table_cells, table_dims, table_faces = _face_table()
    number: list[int | None] = [None] * len(table_cells)
    order: list[int] = []
    for vs in simplices:
        t = place[vs]
        if number[t] is None:
            number[t] = len(order)
            order.append(t)
            for f in table_faces[t]:
                if number[f] is None:
                    number[f] = len(order)
                    order.append(f)
    cells = [table_cells[t] for t in order]
    face_ids = [[number[f] for f in table_faces[t]] for t in order]
    return CellComplex._numbered(cells, [table_dims[t] for t in order],
                                 dict(zip(cells, range(len(cells)))), face_ids)


def random_function(rng: random.Random, cx: CellComplex) -> ConstructibleFunction:
    weights = {c: rng.randint(-3, 3) for c in cx if rng.random() < 0.7}
    return ConstructibleFunction(cx, weights)


def check_link_idempotence(corpus: ToricCorpus) -> CheckResult:
    rng = random.Random(LINK_SEED)
    for i in range(LINK_PAIRS):
        cx = random_simplicial_complex(rng)
        phi = random_function(rng, cx)
        lam = link(phi)
        twice = link(lam)
        if twice.weights != {c: 2 * v for c, v in lam.weights.items() if v}:
            return _result("link operator satisfies L(L) = 2L", False, f"pair {i}")
    return _result("link operator satisfies L(L) = 2L", True)


def check_boundary_oracle(corpus: ToricCorpus) -> CheckResult:
    rng = random.Random(BOUNDARY_SEED)
    for i in range(BOUNDARY_CHAINS):
        cx = random_simplicial_complex(rng)
        top = cx.top_dim()
        if top < 1:
            continue
        k = rng.randint(1, top)
        k_cells = cx.cells(k)
        members = frozenset(c for c in k_cells if rng.random() < 0.5)
        got = chain_boundary(CellChain(cx, k, members))
        m = cx.boundary_matrix(k)
        vec = 0
        for j, c in enumerate(k_cells):
            if c in members:
                vec |= 1 << j
        img = m.mul_vec(vec)
        want = frozenset(
            c for j, c in enumerate(cx.cells(k - 1)) if (img >> j) & 1)
        if got.members != want:
            return _result("parity boundary matches the incidence oracle",
                           False, f"chain {i}")
        again = chain_boundary(got)
        if again.members and got.k >= 1:
            return _result("parity boundary matches the incidence oracle",
                           False, f"boundary of boundary nonzero at chain {i}")
    return _result("parity boundary matches the incidence oracle", True)


def check_fold_pushforward(corpus: ToricCorpus) -> CheckResult:
    fold = fold_map()
    # On fold's own circle, so that all 2^k maps of each k share one
    # (memoized) product complex circle^k.
    ident = SimpMap.identity(fold.source)
    edge0 = simplex_cell((0, 1), 0)
    bad = []
    for k in range(1, FOLD_MAX_K + 1):
        for s_set in itertools.chain.from_iterable(
                itertools.combinations(range(k), q) for q in range(k + 1)):
            s = set(s_set)
            f = None
            for i in range(k):
                factor = ident if i in s else fold
                f = factor if f is None else SimpMap.product(f, factor)
            phi = pushforward_cf(f, ConstructibleFunction.constant(f.source))
            # On open top cells the value must be 2^(k-|S|) on the cells
            # whose folded coordinates sit on the positive edge, else 0.
            for cell in f.target.cells(k):
                coords = _product_coords(cell, k)
                want = (1 << (k - len(s))) if all(
                    coords[i] == edge0 for i in range(k) if i not in s) else 0
                if phi.value(cell) != want:
                    bad.append(f"k={k} S={sorted(s)} cell={cell}")
    return _result("fold pushforward matches the torus formula", not bad,
                   "; ".join(bad[:3]))


def _product_coords(cell, k: int) -> list:
    coords = []
    for _ in range(k - 1):
        assert cell[0] == "x"
        coords.append(cell[2])
        cell = cell[1]
    coords.append(cell)
    return list(reversed(coords))


def check_euler_fubini(corpus: ToricCorpus) -> CheckResult:
    rng = random.Random(FUBINI_SEED)
    circle = circle_complex()
    maps = [fold_map(), SimpMap.identity(circle),
            SimpMap.product(fold_map(), fold_map())]
    for i in range(FUBINI_CASES):
        f = maps[i % len(maps)]
        phi = random_function(rng, f.source)
        if euler_integral(pushforward_cf(f, phi)) != euler_integral(phi):
            return _result("pushforward preserves the Euler integral", False, f"case {i}")
    return _result("pushforward preserves the Euler integral", True)


def check_pushforward_functorial(corpus: ToricCorpus) -> CheckResult:
    fold = fold_map()
    tower = fold.compose(fold)
    rng = random.Random(5)
    for i in range(100):
        phi = random_function(rng, fold.source)
        lhs = pushforward_cf(tower, phi)
        rhs = pushforward_cf(fold, pushforward_cf(fold, phi))
        if {c: v for c, v in lhs.weights.items() if v} != \
           {c: v for c, v in rhs.weights.items() if v}:
            return _result("pushforward is functorial", False, f"case {i}")
    return _result("pushforward is functorial", True)


def check_restriction_boundary(corpus: ToricCorpus) -> CheckResult:
    rng = random.Random(12)
    for i in range(200):
        cx = random_simplicial_complex(rng)
        top = cx.top_dim()
        if top < 1:
            continue
        k = rng.randint(1, top)
        members = frozenset(c for c in cx.cells(k) if rng.random() < 0.5)
        # Open star of a random vertex: a canonical open subset.
        vs = cx.cells(0)
        v = vs[rng.randrange(len(vs))]
        is_open = cx.cofaces[v].union((v,)).__contains__
        c = CellChain(cx, k, members)
        lhs = chain_boundary(restrict(c, is_open))
        # Restriction truncates the complex, so compare members inside U only.
        rhs = restrict(chain_boundary(c), is_open)
        lhs_in = frozenset(m for m in lhs.members if is_open(m))
        if lhs_in != rhs.members:
            return _result("boundary commutes with open restriction", False, f"case {i}")
    return _result("boundary commutes with open restriction", True)


# ---------------------------------------------------------------------------
# suite registry


SUITES: dict[str, list[Callable[[ToricCorpus], CheckResult]]] = {
    "toric": [
        check_boundary_squares_zero,
        check_filtration_binomials,
        check_cell_counts,
        check_orbit_additivity,
        check_purity_smooth_complete,
        check_collapse_low_dim,
        check_support_triangle,
        check_convergence,
        check_orbit_map_paths,
        check_positive_part,
    ],
    "fcomplex": [
        check_canonical_antidiagonal,
        check_deligne_comparison_toric,
        check_page_homology,
        check_reindex_first_quadrant,
    ],
    "cubical": [
        check_klein_square_acyclic,
        check_identity_cone_acyclic,
        check_additivity_trivial,
        check_additivity_toric,
        check_additivity_full,
        check_hyperres_homology,
        check_hyperres_compare,
        check_hyperres_convergence,
    ],
    "euler": [
        check_link_idempotence,
        check_boundary_oracle,
        check_fold_pushforward,
        check_euler_fubini,
        check_pushforward_functorial,
        check_restriction_boundary,
    ],
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, every suite for "all", none for "none", each entry
    on one :class:`ToricCorpus`, made here."""
    if name == "none":
        return []
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    corpus = ToricCorpus()
    return [check(corpus) for suite in names for check in SUITES[suite]]
