import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weightlab
from weightlab import checks, gf2
from weightlab.euler import (
    CellChain,
    CellComplex,
    ConstructibleFunction,
    EulerError,
    SimpMap,
    chain_boundary,
    circle_complex,
    closure,
    euler_integral,
    fold_map,
    half_boundary,
    link,
    pullback,
    pushforward_cf,
    pushforward_chain,
    restrict,
    simplex_cell,
)

from oracles import (
    dense_rank,
    matrix_to_dense,
    oracle_chain_boundary,
    oracle_link,
    oracle_map_fault,
    oracle_product_tables,
    oracle_restrict_fault,
    oracle_simplex_order,
    oracle_simplex_tables,
    oracle_sorted_cells,
)


def interval():
    return CellComplex.simplicial([(0, 1)])


def triangle_boundary():
    return CellComplex.simplicial([(0, 1), (1, 2), (0, 2)])


def full_triangle():
    return CellComplex.simplicial([(0, 1, 2)])


def test_link_of_interval():
    lam = link(ConstructibleFunction.constant(interval()))
    assert lam.value(simplex_cell((0, 1))) == 2
    assert lam.value(simplex_cell((0,))) == 1
    assert lam.value(simplex_cell((1,))) == 1


def test_link_of_closed_circle():
    # 1-manifold: the link of the constant 1 is constantly 2
    lam = link(ConstructibleFunction.constant(triangle_boundary()))
    for c in triangle_boundary().cells():
        assert lam.value(c) == 2


def test_link_twice_is_double():
    cx = full_triangle()
    phi = ConstructibleFunction(cx, {simplex_cell((0, 1, 2)): 3,
                                     simplex_cell((0, 1)): -1})
    lam = link(phi)
    twice = link(lam)
    for c in cx.dims:
        assert twice.value(c) == 2 * lam.value(c)


@given(st.dictionaries(st.integers(0, 6), st.integers(-3, 3), max_size=7))
def test_link_idempotence_random_weights(vals):
    cx = CellComplex.simplicial([(0, 1, 2), (1, 2, 3), (3, 4), (5,), (4, 5, 6)])
    cells = cx.cells()
    phi = ConstructibleFunction(
        cx, {cells[i % len(cells)]: v for i, v in vals.items()})
    lam = link(phi)
    assert link(lam).weights == {c: 2 * v for c, v in lam.weights.items() if v}


def test_chain_boundary():
    cx = interval()
    edge = CellChain(cx, 1, frozenset([simplex_cell((0, 1))]))
    bd = chain_boundary(edge)
    assert bd.members == {simplex_cell((0,)), simplex_cell((1,))}
    # fundamental cycle of the circle has zero boundary
    circ = triangle_boundary()
    cyc = CellChain(circ, 1, frozenset(circ.cells(1)))
    assert chain_boundary(cyc).members == frozenset()
    # degree zero chains have empty boundary
    pt = CellChain(cx, 0, frozenset([simplex_cell((0,))]))
    assert chain_boundary(pt).members == frozenset()


def test_chain_boundary_matches_incidence_matrix():
    cx = CellComplex.simplicial([(0, 1, 2), (2, 3), (1, 3)])
    for k in (1, 2):
        cells = cx.cells(k)
        chain = CellChain(cx, k, frozenset(cells[::2]))
        bd = chain_boundary(chain)
        m = cx.boundary_matrix(k)
        x = sum(1 << j for j, c in enumerate(cells) if c in chain.members)
        y = m.mul_vec(x)
        rows = cx.cells(k - 1)
        expected = {rows[i] for i in range(len(rows)) if (y >> i) & 1}
        assert bd.members == expected


def test_boundary_squared_zero():
    cx = full_triangle()
    top = CellChain(cx, 2, frozenset(cx.cells(2)))
    assert chain_boundary(chain_boundary(top)).members == frozenset()


def test_euler_integral():
    assert euler_integral(ConstructibleFunction.constant(interval())) == 1
    # indicator of the open edge
    cx = interval()
    assert euler_integral(
        ConstructibleFunction.indicator(cx, [simplex_cell((0, 1))])) == -1
    assert euler_integral(ConstructibleFunction.constant(triangle_boundary())) == 0


def test_parallel_edges_circle():
    cx = circle_complex()
    assert len(cx.cells(0)) == 2 and len(cx.cells(1)) == 2
    m = matrix_to_dense(cx.boundary_matrix(1))
    assert dense_rank(m) == 1  # betti (1, 1)


def test_duplicate_simplices_rejected():
    with pytest.raises(EulerError, match="duplicate"):
        CellComplex.from_simplices([((0, 1), 0), ((0, 1), 0)])


def test_simpmap_validation():
    cx = interval()
    with pytest.raises(EulerError, match="raises dimension"):
        SimpMap(cx, cx, {
            simplex_cell((0,)): simplex_cell((0, 1)),
            simplex_cell((1,)): simplex_cell((1,)),
            simplex_cell((0, 1)): simplex_cell((0, 1)),
        })
    with pytest.raises(EulerError, match="not defined"):
        SimpMap(cx, cx, {simplex_cell((0,)): simplex_cell((0,))})


def test_fold_pushforward_function():
    f = fold_map()
    out = pushforward_cf(f, ConstructibleFunction.constant(f.source))
    e0 = simplex_cell((0, 1), 0)
    e1 = simplex_cell((0, 1), 1)
    assert out.value(e0) == 2  # both edges land here
    assert out.value(e1) == 0
    assert out.value(simplex_cell((0,))) == 1
    # pushforward preserves the Euler integral
    assert euler_integral(out) == euler_integral(
        ConstructibleFunction.constant(f.source))


def test_fold_pushforward_chain():
    f = fold_map()
    cyc = CellChain(f.source, 1, frozenset(f.source.cells(1)))
    # the two edges collide mod 2: degree-two covers kill the cycle
    assert pushforward_chain(f, cyc).members == frozenset()
    ident = SimpMap.identity(f.source)
    assert pushforward_chain(ident, cyc).members == cyc.members
    # a chain on another complex is refused, even one whose cells f maps
    elsewhere = CellChain(circle_complex(), 1, cyc.members)
    with pytest.raises(EulerError, match="^chain lives on a different complex$"):
        pushforward_chain(f, elsewhere)


def test_pushforward_functorial():
    f = fold_map()
    phi = ConstructibleFunction(f.source, {simplex_cell((0, 1), 1): 5})
    twice = pushforward_cf(f, pushforward_cf(f, phi))
    once = pushforward_cf(f.compose(f), phi)
    assert twice.weights == once.weights


def test_restrict_requires_open_set():
    cx = interval()
    edge = simplex_cell((0, 1))
    chain = CellChain(cx, 1, frozenset([edge]))
    # the open star of vertex 0: {v0, edge}
    star = {simplex_cell((0,)), edge}
    out = restrict(chain, lambda c: c in star)
    assert out.members == {edge}
    # {v0} alone is not open (the edge is a coface outside the set)
    with pytest.raises(EulerError, match="not open"):
        restrict(chain, lambda c: c == simplex_cell((0,)))


def test_closure_reembeds():
    small = interval()
    big = full_triangle()
    chain = CellChain(small, 1, frozenset([simplex_cell((0, 1))]))
    out = closure(chain, big)
    assert out.complex is big and out.members == chain.members
    with pytest.raises(EulerError):
        closure(CellChain(small, 0, frozenset([simplex_cell((1,))])),
                CellComplex.simplicial([(0,)]))


def test_pullback_bijection_off_center():
    # target: a "V" (two edges glued at a); source: two disjoint edges,
    # the map identifies the two copies of the middle vertex.
    target = CellComplex.simplicial([(0, 1), (0, 2)])
    source = CellComplex.simplicial([(1, 3), (2, 4)])
    pi = SimpMap(source, target, {
        simplex_cell((3,)): simplex_cell((0,)),
        simplex_cell((4,)): simplex_cell((0,)),
        simplex_cell((1,)): simplex_cell((1,)),
        simplex_cell((2,)): simplex_cell((2,)),
        simplex_cell((1, 3)): simplex_cell((0, 1)),
        simplex_cell((2, 4)): simplex_cell((0, 2)),
    })
    chain = CellChain(target, 1, frozenset(target.cells(1)))
    center = [simplex_cell((0,))]
    exceptional = [simplex_cell((3,)), simplex_cell((4,))]
    up = pullback(pi, chain, exceptional, center)
    assert up.members == frozenset(source.cells(1))
    # cells over the center must be listed as exceptional
    with pytest.raises(EulerError, match="maps into the center"):
        pullback(pi, chain, [], center)
    # and the map must be injective off the exceptional set
    f = fold_map()
    cyc = CellChain(f.target, 1, frozenset([simplex_cell((0, 1), 0)]))
    with pytest.raises(EulerError, match="not injective"):
        pullback(f, cyc, [], [])


def test_half_boundary():
    cx = triangle_boundary()
    verts = cx.cells(0)
    phi = ConstructibleFunction(cx, {c: 2 for c in cx.cells(1)})
    out = half_boundary(phi, verts)
    # true averaged value is 2 at every vertex; stored doubled
    assert all(out.value(v) == 4 for v in verts)
    one_edge = ConstructibleFunction(cx, {cx.cells(1)[0]: 2})
    out = half_boundary(one_edge, verts)
    assert sorted(out.weights.values()) == [2, 2]  # value 1, stored doubled
    with pytest.raises(EulerError, match="pure"):
        half_boundary(ConstructibleFunction.constant(cx), verts)
    for phi in (one_edge, ConstructibleFunction(cx, {})):
        with pytest.raises(EulerError, match=r"^cell \('s', \(7,\), 0\) is not in the complex$"):
            half_boundary(phi, [*verts, simplex_cell((7,))])


def test_a_chain_of_negative_degree_is_refused():
    cx = interval()
    with pytest.raises(EulerError, match=r"^a chain's degree k must not be negative, not -1$"):
        CellChain(cx, -1, frozenset())
    empty = chain_boundary(CellChain(cx, 0, frozenset(cx.cells(0))))
    assert (empty.k, empty.members) == (0, frozenset())


def test_product_complex():
    sq = CellComplex.product(interval(), interval())
    # 3 x 3 cells; top cell is the open square
    assert len(sq.cells()) == 9
    assert sq.top_dim() == 2
    assert euler_integral(ConstructibleFunction.constant(sq)) == 1


def test_product_maps_compose():
    f = fold_map()
    ff = SimpMap.product(f, f)
    assert ff.source is ff.target is CellComplex.product(f.source, f.source)
    twice = ff.compose(ff)
    e0, e1 = simplex_cell((0, 1), 0), simplex_cell((0, 1), 1)
    assert twice(("x", e1, e1)) == ("x", e0, e0)
    assert twice.assignment == ff.assignment  # the fold is idempotent


def test_pushforward_along_product_map():
    f = fold_map()
    torus = CellComplex.product(f.source, f.source)
    out = pushforward_cf(SimpMap.product(f, f), ConstructibleFunction.constant(torus))
    e0 = simplex_cell((0, 1), 0)
    # four open squares fold onto one
    assert out.value(("x", e0, e0)) == 4
    assert euler_integral(out) == euler_integral(ConstructibleFunction.constant(torus))


# ---------------------------------------------------------------------------
# The numbered operators against the cell-keyed oracles


@st.composite
def simplex_lists(draw, copies=True, size=4, count=8):
    """(vertex set, copy) simplices on at most seven vertices, at most
    ``count`` of at most ``size`` vertices, each pair at most once; with
    copies, parallel cells up to copy 2."""
    out = {}
    for vs in draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=size),
                            min_size=1, max_size=count)):
        copy = draw(st.integers(0, 2)) if copies else 0
        out[(tuple(sorted(set(vs))), copy)] = None
    return list(out)


def _circle_power(k):
    cx = circle_complex()
    out = cx
    for _ in range(k - 1):
        out = CellComplex.product(out, cx)
    return out


complexes = st.one_of(
    simplex_lists(copies=False).map(CellComplex.from_simplices),
    simplex_lists().map(CellComplex.from_simplices),
    st.integers(1, 3).map(_circle_power),
)


# Products of two small complexes, with parallel copies: cells are pairs,
# and a product cell has faces from both closures.
small_products = st.tuples(
    *[simplex_lists(size=3, count=3).map(CellComplex.from_simplices)] * 2,
).map(lambda ab: CellComplex.product(*ab))


@given(complexes, st.data())
def test_link_matches_the_pull_form(cx, data):
    cells = list(cx.dims)
    weights = data.draw(st.dictionaries(
        st.sampled_from(cells), st.integers(-3, 3), max_size=len(cells)))
    got = link(ConstructibleFunction(cx, weights)).weights
    assert list(got.items()) == list(oracle_link(cx, weights).items())


@given(st.one_of(simplex_lists().map(CellComplex.from_simplices), small_products), st.data())
def test_the_link_kernel_matches_the_reference_and_builds_valid_objects(cx, data):
    """link and chain_boundary share one kernel and, like pushforward_cf,
    build their outputs without the constructors' checks: each output
    must equal the reference and pass those checks."""
    cells = list(cx)
    assert cells == list(cx.dims)
    weights = data.draw(st.dictionaries(
        st.sampled_from(cells), st.integers(-3, 3), max_size=len(cells)))
    phi = ConstructibleFunction(cx, weights)
    lam = link(phi)
    assert lam.weights == oracle_link(cx, weights)
    assert ConstructibleFunction(cx, lam.weights) == lam

    k = data.draw(st.integers(0, cx.top_dim()))
    members = frozenset(data.draw(st.lists(
        st.sampled_from([c for c in cells if cx.dims[c] == k]), unique=True)))
    got = chain_boundary(CellChain(cx, k, members))
    assert (got.k, got.members) == (max(k - 1, 0), oracle_chain_boundary(cx, k, members))
    assert CellChain(cx, got.k, got.members) == got

    point = CellComplex.simplicial([(0,)])
    out = pushforward_cf(SimpMap(cx, point, dict.fromkeys(cx, simplex_cell((0,)))), phi)
    assert out.weights == ({simplex_cell((0,)): euler_integral(phi)}
                           if euler_integral(phi) else {})
    assert ConstructibleFunction(point, out.weights) == out


@given(simplex_lists())
def test_simplex_complex_order_is_first_appearance(simplices):
    cx = CellComplex.from_simplices(simplices)
    assert list(cx.dims) == oracle_simplex_order(simplices)
    for c in cx.dims:
        vs = c[1]
        assert cx.faces[c] == {("s", sub, 0) for r in range(1, len(vs))
                               for sub in itertools.combinations(vs, r)}
    _assert_sorted_cells(cx)


@given(simplex_lists(), st.integers(1, 2))
def test_product_order_pairs_the_operands_in_order(simplices, k):
    a = CellComplex.from_simplices(simplices)
    b = _circle_power(k)
    for first, second in ((a, b), (b, a)):
        cx = CellComplex.product(first, second)
        assert list(cx.dims) == [("x", p, q) for p in first.dims for q in second.dims]
        _assert_sorted_cells(cx)


def _assert_sorted_cells(cx):
    assert cx.cells() == oracle_sorted_cells(cx.dims)
    for k in range(-1, cx.top_dim() + 2):
        assert cx.cells(k) == oracle_sorted_cells(cx.dims, k)
        rows, cols = cx.cells(k - 1), cx.cells(k)
        want = {(rows.index(f), j) for j, c in enumerate(cols)
                for f in cx.faces[c] if cx.dims[f] == k - 1}
        m = cx.boundary_matrix(k)
        assert {(i, j) for i, row in enumerate(matrix_to_dense(m))
                for j, x in enumerate(row) if x} == want


def _vertex_map_images(source, vertex_map):
    """Each simplex-like cell to the simplex spanned by its vertices'
    images, copy 0: a valid map into a full simplex."""
    return {c: simplex_cell({vertex_map[v] for v in c[1]}) for c in source.dims}


@st.composite
def maps(draw):
    """A cellwise map, valid or with one cell mutated: reassigned to any
    target cell, dropped, or joined by a cell outside the source."""
    kind = draw(st.sampled_from(["simplicial", "product"]))
    if kind == "simplicial":
        source = CellComplex.from_simplices(draw(simplex_lists()))
        m = draw(st.integers(1, 4))
        target = CellComplex.simplicial([range(m)])
        verts = sorted({v for c in source.dims for v in c[1]})
        vertex_map = {v: draw(st.integers(0, m - 1)) for v in verts}
        assignment = _vertex_map_images(source, vertex_map)
    else:
        f = fold_map()
        factors = [draw(st.sampled_from([f, SimpMap.identity(f.source)]))
                   for _ in range(draw(st.integers(2, 3)))]
        g = factors[0]
        for h in factors[1:]:
            g = SimpMap.product(g, h)
        source, target, assignment = g.source, g.target, dict(g.assignment)
    mutation = draw(st.sampled_from(["none", "reassign", "drop", "foreign"]))
    cells = list(source.dims)
    if mutation == "reassign":
        assignment[draw(st.sampled_from(cells))] = draw(st.sampled_from(list(target.dims)))
    elif mutation == "drop":
        del assignment[draw(st.sampled_from(cells))]
    elif mutation == "foreign":
        assignment[simplex_cell((99,))] = draw(st.sampled_from(list(target.dims)))
    return source, target, assignment


@given(maps(), st.data())
def test_maps_match_the_face_scan(case, data):
    source, target, assignment = case
    want = oracle_map_fault(source, target, assignment)
    try:
        f = SimpMap(source, target, assignment)
    except EulerError as exc:
        assert str(exc) == want
        return
    assert want is None
    cells = list(source.dims)
    weights = dict(zip(cells, data.draw(st.lists(
        st.integers(-3, 3), min_size=len(cells), max_size=len(cells)))))
    expected = {}
    for c, v in weights.items():
        d = assignment[c]
        sign = 1 if (source.dims[c] - target.dims[d]) % 2 == 0 else -1
        expected[d] = expected.get(d, 0) + sign * v
    out = pushforward_cf(f, ConstructibleFunction(source, weights))
    assert out.weights == {d: v for d, v in expected.items() if v}
    assert ConstructibleFunction(target, out.weights) == out


def test_map_with_a_cell_outside_the_source_is_refused():
    f = fold_map()
    assignment = {**f.assignment, simplex_cell((7,)): simplex_cell((0,))}
    with pytest.raises(EulerError, match=r"map assigns cell \('s', \(7,\), 0\)"):
        SimpMap(f.source, f.target, assignment)


def test_cell_complex_refuses_a_broken_face_order():
    a, b = simplex_cell((0,)), simplex_cell((0, 1))
    with pytest.raises(EulerError, match=r"cell \('s', \(0, 1\), 0\) has unknown face "
                                         r"\('s', \(9,\), 0\)"):
        CellComplex({a: 0, b: 1}, {b: frozenset({a, simplex_cell((9,))})})
    with pytest.raises(EulerError, match=r"face \('s', \(0, 1\), 0\) of \('s', \(0,\), 0\) "
                                         r"does not drop dimension"):
        CellComplex({a: 0, b: 1}, {a: frozenset({b})})
    c = simplex_cell((1,))
    with pytest.raises(EulerError, match=r"face \('s', \(1,\), 0\) of \('s', \(0,\), 0\) "
                                         r"does not drop dimension"):
        CellComplex({a: 0, c: 0}, {a: frozenset({c})})


def test_products_do_not_keep_their_operands_alive():
    gc.disable()
    try:
        cx = circle_complex()
        square = CellComplex.product(cx, cx)
        assert CellComplex.product(cx, cx) is square
        refs = [weakref.ref(cx), weakref.ref(square)]
        del cx, square
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Numbered construction against the validating constructor


def _assert_same_complex(cx, generic):
    assert cx._cells == generic._cells
    assert cx.dims == generic.dims
    assert cx.faces == generic.faces
    assert cx.cofaces == generic.cofaces
    assert cx.cells() == generic.cells()
    for k in range(-1, cx.top_dim() + 2):
        assert cx.cells(k) == generic.cells(k)
        # Equal shapes and equal column words: the same matrix, entry for
        # entry, without expanding the product's large boundaries densely.
        assert cx.boundary_matrix(k) == generic.boundary_matrix(k)


def _outcome(op, *args):
    """The members an operator returns, or the message it refuses with."""
    try:
        return op(*args).members
    except EulerError as exc:
        return str(exc)


def _assert_same_chains(cx, generic, data):
    """chain_boundary and restrict agree on the two complexes, and
    restrict refuses a predicate that is not open as the coface scan does."""
    cells = list(cx.dims)
    opened = data.draw(st.sets(st.sampled_from(cells)))
    if data.draw(st.booleans()):  # close the set upwards: an open predicate
        opened |= {tau for c in opened for tau in cx.cofaces[c]}
    fault = oracle_restrict_fault(cx, opened.__contains__)
    for k in range(cx.top_dim() + 1):
        members = frozenset(data.draw(st.sets(st.sampled_from(cx.cells(k)))))
        chains = CellChain(cx, k, members), CellChain(generic, k, members)
        assert _outcome(chain_boundary, chains[0]) == _outcome(chain_boundary, chains[1])
        got = _outcome(restrict, chains[0], opened.__contains__)
        assert got == _outcome(restrict, chains[1], opened.__contains__)
        assert got == (fault or frozenset(members & opened))


@given(simplex_lists(), st.data())
def test_simplices_are_numbered_as_the_constructor_numbers_their_tables(simplices, data):
    cx = CellComplex.from_simplices(simplices)
    generic = CellComplex(*oracle_simplex_tables(simplices))
    _assert_same_complex(cx, generic)
    _assert_same_chains(cx, generic, data)
    # pushforward_chain into a full simplex along a vertex map
    m = data.draw(st.integers(1, 4))
    targets = CellComplex.simplicial([range(m)]), CellComplex(*oracle_simplex_tables([(range(m), 0)]))
    verts = sorted({v for c in cx.dims for v in c[1]})
    assignment = _vertex_map_images(cx, {v: data.draw(st.integers(0, m - 1)) for v in verts})
    k = data.draw(st.integers(0, cx.top_dim()))
    members = frozenset(data.draw(st.sets(st.sampled_from(cx.cells(k)))))
    got = [_outcome(pushforward_chain, SimpMap(src, dst, assignment), CellChain(src, k, members))
           for src, dst in zip((cx, generic), targets)]
    assert got[0] == got[1]


@given(st.one_of(simplex_lists().map(CellComplex.from_simplices),
                 st.integers(1, 2).map(_circle_power)),
       st.one_of(simplex_lists(copies=False).map(CellComplex.from_simplices),
                 st.integers(1, 2).map(_circle_power)),
       st.data())
def test_products_are_numbered_as_the_constructor_numbers_their_tables(a, b, data):
    cx = CellComplex.product(a, b)
    generic = CellComplex(*oracle_product_tables(a, b))
    _assert_same_complex(cx, generic)
    _assert_same_chains(cx, generic, data)


def test_circle_powers_are_numbered_as_the_constructor_numbers_their_tables():
    circle = circle_complex()
    power = circle
    for _ in range(2):
        generic = CellComplex(*oracle_product_tables(power, circle))
        power = CellComplex.product(power, circle)
        _assert_same_complex(power, generic)


@given(st.lists(st.sampled_from(["fold", "identity"]), min_size=2, max_size=3))
def test_product_maps_are_the_maps_their_assignments_define(factors):
    fold = fold_map()
    maps = {"fold": fold, "identity": SimpMap.identity(fold.source)}
    f = maps[factors[0]]
    for name in factors[1:]:
        f = SimpMap.product(f, maps[name])
        checked = SimpMap(f.source, f.target, dict(f.assignment))
        assert f._image == checked._image
        assert list(f.assignment) == f.source._cells


def test_chain_operators_do_not_sort_the_cells(monkeypatch):
    cx = checks.random_simplicial_complex(random.Random(4))
    assert cx.top_dim() >= 1
    v = cx.cells(0)[0]
    star = cx.cofaces[v] | {v}
    chain = CellChain(cx, cx.top_dim(), frozenset(cx.cells(cx.top_dim())))
    want = chain_boundary(chain), restrict(chain, star.__contains__)

    def refuse(self):
        raise AssertionError("a chain operator sorted the cells")

    monkeypatch.setattr(CellComplex, "_sorted_ids", property(refuse))
    assert chain_boundary(chain).members == want[0].members
    assert restrict(chain, star.__contains__).members == want[1].members
    assert pushforward_chain(SimpMap.identity(cx), chain).members == chain.members


# ---------------------------------------------------------------------------
# The face-incidence cap


def test_a_simplex_whose_closure_passes_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(gf2, "MAX_CELLS", 50)
    cx = CellComplex.simplicial([range(4)])  # 3^4 - 2^5 + 1 = 50 incidences
    assert sum(map(len, cx.faces.values())) == 50
    with pytest.raises(EulerError, match=r"^simplex \(0, 1, 2, 3, 4\) has more face incidences "
                                         r"in its closure than the 50 the build allows$"):
        CellComplex.simplicial([range(5)])


def test_simplices_whose_closures_pass_the_cap_together_are_refused(monkeypatch):
    monkeypatch.setattr(gf2, "MAX_CELLS", 99)
    with pytest.raises(EulerError, match=r"^the simplices have 100 face incidences, "
                                         r"more than the 99 the build allows$"):
        CellComplex.simplicial([range(4), range(4, 8)])
    # copies of one simplex count their own faces again
    monkeypatch.setattr(gf2, "MAX_CELLS", 63)
    with pytest.raises(EulerError, match="have 64 face incidences"):
        CellComplex.from_simplices([(range(4), 0), (range(4), 1)])


@given(simplex_lists())
def test_the_cap_counts_every_face_incidence(simplices):
    incidences = sum(map(len, CellComplex.from_simplices(simplices).faces.values()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2, "MAX_CELLS", incidences)
        CellComplex.from_simplices(simplices)
        if incidences:
            patch.setattr(gf2, "MAX_CELLS", incidences - 1)
            with pytest.raises(EulerError, match="face incidences"):
                CellComplex.from_simplices(simplices)


_FAULTS_IN_A_CHILD = """
from weightlab.euler import (
    CellChain, CellComplex, EulerError, SimpMap, pushforward_chain, restrict,
    simplex_cell as s)

triangle = CellComplex.from_simplices([((0, 1, 2), 0)])
target = CellComplex.from_simplices([((0, 1), 0), ((2,), 0), ((3,), 0)])
point = CellComplex.from_simplices([((0,), 0)])
to_vertex = {0: s((2,)), 1: s((3,)), 2: s((2,))}
assignment = {c: to_vertex[c[1][0]] if len(c[1]) == 1 else s((0, 1)) for c in triangle.dims}
a, b, c, e = s((0,)), s((0, 1)), s((1,)), s((2,))
builds = [
    lambda: SimpMap(triangle, target, assignment),
    lambda: restrict(CellChain(triangle, 0, frozenset()), {s((0,))}.__contains__),
    lambda: CellComplex({a: 0, b: 1}, {b: frozenset({a, s((8,)), s((9,))})}),
    lambda: CellComplex({a: 0, c: 0, e: 0}, {a: frozenset({c, e})}),
    lambda: CellChain(triangle, 1, frozenset({s((9,)), c, b, a})),
    lambda: pushforward_chain(SimpMap(triangle, point, dict.fromkeys(triangle, s((0,)))),
                              CellChain(triangle, 1, frozenset(triangle.cells(1)))),
]
for build in builds:
    try:
        build()
    except EulerError as exc:
        print(exc)
"""


def test_euler_faults_do_not_depend_on_the_hash_seed():
    # Cells hold strings, so frozensets of cells iterate in an order
    # that changes with the process's hash seed; a fault is named by
    # cell order instead.
    src = str(Path(weightlab.__file__).resolve().parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _FAULTS_IN_A_CHILD], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(8)
    }
    assert len(outputs) == 1
    assert outputs.pop().splitlines() == [
        "map not face-compatible at ('s', (0,), 0) < ('s', (0, 1, 2), 0)",
        "predicate is not open at ('s', (0,), 0) < ('s', (0, 1, 2), 0)",
        "cell ('s', (0, 1), 0) has unknown face ('s', (8,), 0)",
        "face ('s', (1,), 0) of ('s', (0,), 0) does not drop dimension",
        "chain member ('s', (0,), 0) is not a 1-cell",
        "map collapses chain member ('s', (0, 1), 0)",
    ]
