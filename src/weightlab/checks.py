"""Property suites over the fixture corpus.

These back the ``check`` CLI command and are reused by the test suite.
Each check returns a :class:`CheckResult`; a suite is a list of named
thunks, run in order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from .complexes import ChainComplex, FilteredComplex, canonical_filtration, trivial_filtration
from .cubical import (
    CubicalDiagram,
    additivity_check,
    is_acyclic,
    simple_filtered,
    skeleton_filtration,
)
from .euler import (
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
from .gf2 import BitSubspace
from .pages import (
    SpectralSequence,
    decalage_mismatches,
    purity_collapse_report,
    reindexed_page,
    virtual_poincare,
)
from .toric import (
    ToricCellComplex,
    orbit_map,
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


# ---------------------------------------------------------------------------
# toric suite


def check_boundary_squares_zero() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        cx = toric_cell_complex(fan).complex
        for k in cx.degrees():
            if not cx.d(k).mul(cx.d(k + 1)).is_zero():
                bad.append(f"{name} degree {k + 1}")
    return _result("toric boundary squares to zero", not bad, ", ".join(bad))


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


def check_filtration_binomials() -> CheckResult:
    """The toric filtration is spanned by coset indicators, and its
    per-cone quotient dimensions are binomial."""
    bad = []
    for name, fan in fan_corpus().items():
        tcc = toric_cell_complex(fan)
        for k in tcc.complex.degrees():
            n = tcc.complex.dim(k)
            cids = [cid for cid in fan.cone_ids() if fan.codim(cid) == k]
            prev = dict.fromkeys(cids, 0)
            for q in range(k, -1, -1):
                by_cone = {cid: coset_indicators(tcc, cid, q) for cid in cids}
                for cid, vecs in by_cone.items():
                    dim = BitSubspace.span(n, vecs).dim
                    if dim - prev[cid] != comb(k, q):
                        bad.append(f"{name}/{cid} q={q}: {dim - prev[cid]} != C({k},{q})")
                    prev[cid] = dim
                span = BitSubspace.span(n, [v for vecs in by_cone.values() for v in vecs])
                if span != tcc.filtered.level(-q, k):
                    bad.append(f"{name} degree {k}: level {-q} is not the coset span")
    return _result("toric filtration quotients are binomial", not bad, "; ".join(bad))


def check_cell_counts() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        tcc = toric_cell_complex(fan)
        for k in tcc.complex.degrees():
            want = sum(1 << fan.codim(cid) for cid in fan.cone_ids()
                       if fan.codim(cid) == k)
            if tcc.complex.dim(k) != want:
                bad.append(f"{name} degree {k}")
    return _result("cell counts are sums of 2^codim", not bad, ", ".join(bad))


def check_orbit_additivity() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        got = virtual_poincare(SpectralSequence(toric_cell_complex(fan).filtered))
        want = orbit_sum_poly(fan)
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    return _result("virtual polynomial equals the orbit sum", not bad, "; ".join(bad))


def check_purity_smooth_complete() -> CheckResult:
    bad = []
    for name, fan in smooth_complete_corpus().items():
        report = purity_collapse_report(
            SpectralSequence(toric_cell_complex(fan).filtered), fan.n)
        if not report.is_pure:
            bad.append(name)
    return _result("smooth complete fixtures are pure", not bad, ", ".join(bad))


def check_collapse_low_dim() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        if fan.n > 3:
            continue
        ss = SpectralSequence(toric_cell_complex(fan).filtered)
        if reindexed_page(ss, 2) != reindexed_page(ss, ss.r_inf + 1):
            bad.append(name)
    return _result("second page equals the limit in rank <= 3", not bad, ", ".join(bad))


def check_support_triangle() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        report = purity_collapse_report(
            SpectralSequence(toric_cell_complex(fan).filtered), fan.n)
        if not report.support_ok:
            bad.append(name)
    return _result("pages lie in the support triangle", not bad, ", ".join(bad))


def check_convergence() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        tcc = toric_cell_complex(fan)
        ss = SpectralSequence(tcc.filtered)
        inf = ss.infinity_page()
        for k in tcc.complex.degrees():
            total = sum(d for (p, q), d in inf.items() if p + q == k)
            if total != tcc.complex.betti(k):
                bad.append(f"{name} degree {k}")
    return _result("limit page sums to homology", not bad, ", ".join(bad))


def check_orbit_map_paths() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        for cid in fan.cone_ids():
            for mid in fan.covers(cid):
                for top in fan.covers(mid):
                    composites = set()
                    for other in fan.covers(cid):
                        if top in fan.covers(other):
                            m = orbit_map(fan, other, top).mul(
                                orbit_map(fan, cid, other))
                            composites.add(m.row_data)
                    if len(composites) > 1:
                        bad.append(f"{name}: {cid} -> {top}")
    return _result("orbit maps are path independent", not bad, ", ".join(bad))


def check_positive_part() -> CheckResult:
    """The p = 0 graded piece has one dimension per cone."""
    bad = []
    for name, fan in fan_corpus().items():
        tcc = toric_cell_complex(fan)
        for k in tcc.complex.degrees():
            top = tcc.filtered.level(0, k).dim
            below = tcc.filtered.level(-1, k).dim
            count = sum(1 for cid in fan.cone_ids() if fan.codim(cid) == k)
            if top - below != count:
                bad.append(f"{name} degree {k}")
    return _result("top graded piece counts cones", not bad, ", ".join(bad))


# ---------------------------------------------------------------------------
# fcomplex suite


def _small_toric_filtered() -> dict[str, FilteredComplex]:
    return {
        name: toric_cell_complex(fan).filtered
        for name, fan in fan_corpus().items()
        if fan.n <= 2
    }


def check_canonical_antidiagonal() -> CheckResult:
    bad = []
    for name, fan in fan_corpus().items():
        cx = toric_cell_complex(fan).complex
        ss = SpectralSequence(canonical_filtration(cx))
        page = ss.page(1)
        for (p, q), d in page.items():
            if q != -2 * p or d != cx.betti(-p):
                bad.append(f"{name} at ({p},{q})")
        for k in cx.degrees():
            if cx.betti(k) and (-k, 2 * k) not in page:
                bad.append(f"{name} missing degree {k}")
    return _result("canonical filtration pages sit on q = -2p", not bad, ", ".join(bad))


def check_deligne_comparison_toric() -> CheckResult:
    bad = []
    for name, fc in _small_toric_filtered().items():
        pages = sorted({m[0] for m in decalage_mismatches(SpectralSequence(fc))})
        bad.extend(f"{name} page {r}" for r in pages)
    return _result("shifted filtration matches reindexed pages", not bad, ", ".join(bad))


def check_page_homology() -> CheckResult:
    """d^r squares to zero and computes the next page, as matrices."""
    from .gf2 import rank_kernel_image
    bad = []
    for name, fc in _small_toric_filtered().items():
        ss = SpectralSequence(fc)
        for r in range(0, ss.r_inf + 1):
            page = ss.page(r)
            for (p, q) in page:
                d_out = ss.differential(r, p, q)
                d_in = ss.differential(r, p + r, q - r + 1)
                if not d_out.mul(d_in).is_zero():
                    bad.append(f"{name} d^{r} at ({p},{q}) does not square to zero")
                    continue
                rank_out = d_out.rank()
                rank_in = d_in.rank()
                next_dim = ss.dim(r + 1, p, q)
                if next_dim != ss.dim(r, p, q) - rank_out - rank_in:
                    bad.append(f"{name} page {r + 1} at ({p},{q}) is not homology")
    return _result("differentials compute the next page", not bad, "; ".join(bad))


def check_reindex_first_quadrant() -> CheckResult:
    bad = []
    for name, fc in _small_toric_filtered().items():
        ss = SpectralSequence(fc)
        for r in range(2, ss.r_inf + 2):
            for (pp, qq), d in reindexed_page(ss, r).items():
                if pp < 0 or qq < 0:
                    bad.append(f"{name} page {r} at ({pp},{qq})")
    return _result("reindexed pages are first quadrant", not bad, ", ".join(bad))


# ---------------------------------------------------------------------------
# cubical suite


def _identity_square() -> CubicalDiagram:
    from .gf2 import BitMatrix
    fc = canonical_filtration(_circle_chain_complex())
    n0, n1 = fc.complex.dim(0), fc.complex.dim(1)
    ident = {0: BitMatrix.identity(n0), 1: BitMatrix.identity(n1)}
    return CubicalDiagram(0, {0: fc, 1: fc}, {(1, 0): ident})


def _circle_chain_complex() -> ChainComplex:
    from .gf2 import BitMatrix
    return ChainComplex.make(
        {0: 2, 1: 2},
        {1: BitMatrix.from_entries(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])},
    )


def check_klein_square_acyclic() -> CheckResult:
    ok = is_acyclic(SpectralSequence(simple_filtered(klein_square())))
    return _result("blowup square total complex is acyclic", ok)


def check_identity_cone_acyclic() -> CheckResult:
    ok = is_acyclic(SpectralSequence(simple_filtered(_identity_square())))
    return _result("cone of the identity is acyclic", ok)


def check_additivity_trivial() -> CheckResult:
    from .gf2 import BitMatrix
    x = toric_cell_complex(standard_fan("P", 1)).filtered
    empty = trivial_filtration(ChainComplex.make({}, {}))
    diagram = CubicalDiagram(0, {0: x, 1: empty}, {(1, 0): {}})
    report = additivity_check(diagram, x)
    return _result("additivity with an empty center", report.ok,
                   str(report.mismatches))


def check_additivity_toric() -> CheckResult:
    """Two fixed points inside the projective line leave a split torus."""
    from .gf2 import BitMatrix
    x = toric_cell_complex(standard_fan("P", 1)).filtered
    y = trivial_filtration(ChainComplex.make({0: 2}, {}))
    # The two degree-0 cells of the line's toric complex are the two
    # torus-fixed points; include them identically.
    incl = {0: BitMatrix.identity(2)}
    diagram = CubicalDiagram(0, {0: x, 1: y}, {(1, 0): incl})
    complement = toric_cell_complex(standard_fan("trivial", 1)).filtered
    report = additivity_check(diagram, complement)
    return _result("additivity for fixed points in the line", report.ok,
                   str(report.mismatches))


def check_additivity_full() -> CheckResult:
    from .gf2 import BitMatrix
    x = toric_cell_complex(standard_fan("P", 1)).filtered
    ident = {k: BitMatrix.identity(x.complex.dim(k)) for k in x.complex.degrees()}
    diagram = CubicalDiagram(0, {0: x, 1: x}, {(1, 0): ident})
    ok = is_acyclic(SpectralSequence(simple_filtered(diagram)))
    return _result("removing everything leaves an acyclic complement", ok)


def check_hyperres_homology() -> CheckResult:
    want = {"single": {0: 1, 1: 1}, "wedge1": {0: 1, 1: 2}, "wedge2": {0: 1, 1: 3}}
    bad = []
    for name, h in all_hyperres().items():
        total = skeleton_filtration(h).complex
        got = {k: total.betti(k) for k in total.degrees() if total.betti(k)}
        if got != want[name]:
            bad.append(f"{name}: {got}")
    return _result("hyperresolution totals have the expected homology",
                   not bad, ", ".join(bad))


def check_hyperres_compare() -> CheckResult:
    bad = []
    for name, h in all_hyperres().items():
        mismatches = decalage_mismatches(SpectralSequence(skeleton_filtration(h)))
        if mismatches:
            bad.append(f"{name}: {mismatches}")
    return _result("hyperresolution pages match the shifted filtration",
                   not bad, "; ".join(bad))


def check_hyperres_convergence() -> CheckResult:
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


def random_simplicial_complex(rng: random.Random, max_vertices: int = 6) -> CellComplex:
    n = rng.randint(1, max_vertices)
    vertices = list(range(n))
    simplices = [(v,) for v in vertices]
    for _ in range(rng.randint(0, 8)):
        size = rng.randint(2, min(4, n)) if n >= 2 else 1
        simplices.append(tuple(rng.sample(vertices, size)))
    return CellComplex.simplicial(set(tuple(sorted(s)) for s in simplices))


def random_function(rng: random.Random, cx: CellComplex) -> ConstructibleFunction:
    weights = {c: rng.randint(-3, 3) for c in cx.dims if rng.random() < 0.7}
    return ConstructibleFunction(cx, weights)


def check_link_idempotence(pairs: int = 1000, seed: int = 20240817) -> CheckResult:
    rng = random.Random(seed)
    for i in range(pairs):
        cx = random_simplicial_complex(rng)
        phi = random_function(rng, cx)
        lam = link(phi)
        twice = link(lam)
        want = {c: 2 * v for c, v in lam.weights.items()}
        if {c: v for c, v in twice.weights.items() if v} != {c: v for c, v in want.items() if v}:
            return _result("link operator satisfies L(L) = 2L", False, f"pair {i}")
    return _result("link operator satisfies L(L) = 2L", True)


def check_boundary_oracle(chains: int = 200, seed: int = 9) -> CheckResult:
    rng = random.Random(seed)
    for i in range(chains):
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


def check_fold_pushforward(max_k: int = 4) -> CheckResult:
    fold = fold_map()
    # On fold's own circle, so that all 2^k maps of each k share one
    # (memoized) product complex circle^k.
    ident = SimpMap.identity(fold.source)
    edge0 = simplex_cell((0, 1), 0)
    bad = []
    for k in range(1, max_k + 1):
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


def check_euler_fubini(count: int = 200, seed: int = 31) -> CheckResult:
    rng = random.Random(seed)
    circle = circle_complex()
    maps = [fold_map(), SimpMap.identity(circle),
            SimpMap.product(fold_map(), fold_map())]
    for i in range(count):
        f = maps[i % len(maps)]
        phi = random_function(rng, f.source)
        if euler_integral(pushforward_cf(f, phi)) != euler_integral(phi):
            return _result("pushforward preserves the Euler integral", False, f"case {i}")
    return _result("pushforward preserves the Euler integral", True)


def check_pushforward_functorial() -> CheckResult:
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


def check_restriction_boundary() -> CheckResult:
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
        is_open = lambda c: c == v or v in cx.faces[c]
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


SUITES: dict[str, list[Callable[[], CheckResult]]] = {
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
    if name == "none":
        return []
    if name == "all":
        thunks = [t for suite in SUITES.values() for t in suite]
    elif name in SUITES:
        thunks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return [t() for t in thunks]
