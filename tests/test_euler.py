import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from oracles import dense_rank, matrix_to_dense


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
