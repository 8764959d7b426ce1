import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weightlab.complexes import (
    ChainComplex,
    ComplexError,
    canonical_filtration,
    trivial_filtration,
)
import weightlab.complexes
import weightlab.cubical
import weightlab.toric
from weightlab.cubical import (
    CubicalDiagram,
    Hyperresolution,
    additivity_check,
    diagram_from_doc,
    diagram_to_doc,
    hyperres_from_doc,
    hyperres_to_doc,
    is_acyclic,
    simple_filtered,
    skeleton_filtration,
)
from weightlab.fixtures import all_hyperres, corpus_fan, klein_square
from weightlab.gf2 import BitMatrix
from weightlab.pages import SpectralSequence, decalage_mismatches
from weightlab.toric import standard_fan, toric_cell_complex

from oracles import from_dense, matrix_to_dense, oracle_totalize, rank_kernel_image


def circle():
    # one vertex, one edge
    return ChainComplex.make({0: 1, 1: 1})


def point():
    return ChainComplex.make({0: 1})


def identity_cone(cx):
    """The single-map diagram X --id--> X."""
    fc = canonical_filtration(cx)
    maps = {
        (1, 0): {k: BitMatrix.identity(cx.dim(k)) for k in cx.degrees()}
    }
    return CubicalDiagram(0, {0: fc, 1: fc}, maps)


def test_identity_cone_is_acyclic():
    assert is_acyclic(SpectralSequence(simple_filtered(identity_cone(circle()))))
    assert is_acyclic(SpectralSequence(simple_filtered(identity_cone(point()))))


def test_simple_total_dims():
    d = identity_cone(circle())
    fc = simple_filtered(d)
    # blocks: (0-object at its own degree) + (1-object shifted up by 0)
    # degree k gathers dim_k(X) + dim_{k}(Y) placed at k - 1 + 1
    assert sum(fc.complex.dims.values()) == 2 * sum(circle().dims.values())
    # sanity on is_acyclic
    assert not is_acyclic(SpectralSequence(trivial_filtration(circle())))


def test_klein_square_homology_pattern():
    d = klein_square()
    dims = {s: [d.objects[s].complex.betti(k) for k in range(3)] for s in range(4)}
    assert dims[0] == [1, 1, 1]  # projective plane
    assert dims[1] == [1, 2, 1]  # Klein bottle
    assert dims[2] == [1, 0, 0]  # point
    assert dims[3] == [1, 1, 0]  # circle


def test_klein_square_acyclic():
    assert is_acyclic(SpectralSequence(simple_filtered(klein_square())))


def test_diagram_requires_all_vertices():
    fc = canonical_filtration(circle())
    with pytest.raises(ComplexError):
        CubicalDiagram(0, {0: fc}, {})


def test_diagram_rejects_non_chain_map():
    cx = ChainComplex.make({0: 2, 1: 1}, {1: from_dense([[1], [1]])})
    fc = canonical_filtration(cx)
    bad = {(1, 0): {0: from_dense([[1, 0], [0, 0]]),
                    1: from_dense([[0]])}}
    with pytest.raises(ComplexError, match="chain map"):
        CubicalDiagram(0, {0: fc, 1: fc}, bad)


@pytest.mark.parametrize("src_level, dst_level", [(1, 0), (0, 0), (0, 1)])
def test_diagram_maps_may_not_raise_levels(src_level, dst_level):
    pt = point()
    diagram = (0, {1: trivial_filtration(pt, src_level), 0: trivial_filtration(pt, dst_level)},
               {(1, 0): {0: BitMatrix.identity(1)}})
    if dst_level <= src_level:
        CubicalDiagram(*diagram)
    else:
        with pytest.raises(ComplexError,
                           match=f"map 1->0 does not preserve level p={src_level} in degree 0"):
            CubicalDiagram(*diagram)


def test_diagram_reports_each_failed_axiom_in_edge_then_square_order():
    # Over the interval 3, map 3->1 folds both ends onto a point and map
    # 3->2 keeps one end, so it is no chain map; map 1->0 lifts level 0
    # to level 1; and the square 3->0 is [1 1] through 1 but 0 through 2.
    pt, interval = point(), ChainComplex.make({0: 2, 1: 1}, {1: from_dense([[1], [1]])})
    objects = {0: trivial_filtration(pt, 1), 1: trivial_filtration(pt, 0),
               2: trivial_filtration(pt, 0), 3: trivial_filtration(interval, 0)}
    maps = {(1, 0): {0: BitMatrix.identity(1)},
            (3, 1): {0: from_dense([[1, 1]])},
            (3, 2): {0: from_dense([[1, 0]])}}
    with pytest.raises(ComplexError) as exc:
        CubicalDiagram(1, objects, maps)
    assert str(exc.value) == (
        "map 1->0 does not preserve level p=0 in degree 0; "
        "map 3->2 is not a chain map; "
        "square 3->0 does not commute in degree 0")


def test_additivity_two_points_in_line():
    # X = P^1 (a circle), Y = the two torus-fixed points; the complement
    # is the 1-torus, whose filtered complex is the trivial-fan one.
    x = toric_cell_complex(standard_fan("P", 1)).filtered
    y_cx = ChainComplex.make({0: 2})
    y = trivial_filtration(y_cx, 0)
    # inclusion sends the two points to the two degree-0 cells of X
    incl = {(1, 0): {0: BitMatrix.identity(2)}}
    diagram = CubicalDiagram(0, {0: x, 1: y}, incl)
    complement = toric_cell_complex(standard_fan("trivial", 1)).filtered
    report = additivity_check(diagram, complement)
    assert report.ok, report.mismatches


def test_additivity_full_subobject():
    # Y = X: the complement is empty, and the cone is acyclic.
    x = toric_cell_complex(standard_fan("P", 1)).filtered
    diagram = CubicalDiagram(0, {0: x, 1: x}, {
        (1, 0): {k: BitMatrix.identity(x.complex.dim(k))
                 for k in x.complex.degrees()}
    })
    assert is_acyclic(SpectralSequence(simple_filtered(diagram)))


def test_hyperres_total_homology():
    expected = {"single": {0: 1, 1: 1}, "wedge1": {0: 1, 1: 2}, "wedge2": {0: 1, 1: 3}}
    for name, h in all_hyperres().items():
        fc = skeleton_filtration(h)
        assert fc.complex.betti_numbers() == expected[name], name


def test_hyperres_weight_compare():
    for name, h in all_hyperres().items():
        mismatches = decalage_mismatches(SpectralSequence(skeleton_filtration(h)))
        assert not mismatches, (name, mismatches)


def test_hyperres_rejects_broken_simplicial_identity():
    pt = point()
    two = ChainComplex.make({0: 2})
    three = ChainComplex.make({0: 3})
    # d0, d1 from level 1 agree; level 2 face maps violate d_0 d_1 = d_0 d_0
    faces = {
        (1, 0): {0: from_dense([[1, 0]])},
        (1, 1): {0: from_dense([[0, 1]])},
        (2, 0): {0: from_dense([[1, 0, 0], [0, 1, 0]])},
        (2, 1): {0: from_dense([[0, 0, 1], [0, 1, 0]])},
        (2, 2): {0: from_dense([[0, 1, 0], [1, 0, 0]])},
    }
    try:
        Hyperresolution((pt, two, three), faces)
    except ComplexError as exc:
        assert "simplicial" in str(exc)
    else:
        # if these matrices happen to satisfy the identities, force a failure
        pytest.fail("expected a simplicial-identity violation")


def test_skeleton_filtration_levels():
    h = all_hyperres()["wedge1"]
    fc = skeleton_filtration(h)
    assert fc.p_range == (0, len(h.levels) - 1)


def test_diagram_doc_round_trip():
    d = klein_square()
    back = diagram_from_doc(json.loads(json.dumps(diagram_to_doc(d))))
    assert back.n == d.n
    for s in d.vertex_masks():
        assert back.objects[s].complex.dims == d.objects[s].complex.dims
    assert is_acyclic(SpectralSequence(simple_filtered(back)))


def test_hyperres_doc_round_trip():
    h = all_hyperres()["wedge2"]
    back = hyperres_from_doc(json.loads(json.dumps(hyperres_to_doc(h))))
    assert len(back.levels) == len(h.levels)
    assert skeleton_filtration(back).complex.betti_numbers() == \
        skeleton_filtration(h).complex.betti_numbers()




def _assert_totalize_matches_oracle(blocks, maps):
    total = weightlab.complexes.totalize(blocks, maps).complex
    dims, entries = oracle_totalize(blocks, maps)
    assert total.dims == dims
    for k in dims:
        dense = matrix_to_dense(total.d(k))
        assert {(r, c) for r, row in enumerate(dense) for c, x in enumerate(row) if x} \
            == entries[k]


def _combination(vectors, pick):
    out = 0
    for i, v in enumerate(vectors):
        if pick >> i & 1:
            out ^= v
    return out


def _random_matrix(draw, rows, cols, span=None):
    """A rows x cols matrix whose columns are drawn from the span of
    ``span``, by default the whole space."""
    span = [1 << i for i in range(rows)] if span is None else span
    picks = draw(st.lists(st.integers(0, 2 ** len(span) - 1), min_size=cols, max_size=cols))
    return BitMatrix(rows, cols, tuple(_combination(span, p) for p in picks))


@st.composite
def square_diagrams(draw):
    """A diagram of shape 0 or 1: a random complex X in degrees 0..2 at
    every vertex, and on every edge one chain map g = ∂h + h∂, plus the
    identity or not, so that every square commutes."""
    n = [draw(st.integers(1, 3)) for _ in range(3)]
    d1 = _random_matrix(draw, n[0], n[1])
    d2 = _random_matrix(draw, n[1], n[2], rank_kernel_image(d1)[1].basis)
    cx = ChainComplex.make(dict(enumerate(n)), {1: d1, 2: d2})
    h = {k: _random_matrix(draw, n[k + 1], n[k]) for k in (0, 1)}
    g, plus_identity = {}, draw(st.booleans())
    for k in range(3):
        m = BitMatrix.identity(n[k]) if plus_identity else BitMatrix.zero(n[k], n[k])
        if k < 2:
            m = m.add(cx.d(k + 1).mul(h[k]))
        if k > 0:
            m = m.add(h[k - 1].mul(cx.d(k)))
        g[k] = m
    shape = draw(st.integers(0, 1))
    vertices = range(1 << (shape + 1))
    edges = [(s, s ^ 1 << i) for s in vertices for i in range(shape + 1) if s >> i & 1]
    fc = trivial_filtration(cx)
    return CubicalDiagram(shape, dict.fromkeys(vertices, fc), dict.fromkeys(edges, g))


@given(square_diagrams())
def test_totalize_matches_the_entry_assembly_on_random_diagrams(d):
    _assert_totalize_matches_oracle(
        {s: (s.bit_count() - 1, d.objects[s]) for s in sorted(d.objects)}, d.maps)


def _totalize_calls(monkeypatch, module, run):
    """The (blocks, maps) of every ``totalize`` call that ``run`` makes
    through ``module``."""
    calls = []
    totalize = weightlab.complexes.totalize
    monkeypatch.setattr(module, "totalize",
                        lambda blocks, maps: calls.append((blocks, maps)) or totalize(blocks, maps))
    run()
    monkeypatch.undo()
    return calls


def test_totalize_matches_the_entry_assembly_on_hyperresolutions(monkeypatch):
    calls = _totalize_calls(monkeypatch, weightlab.cubical, lambda: [
        skeleton_filtration(h) for h in all_hyperres().values()])
    assert len(calls) == len(all_hyperres())
    for blocks, maps in calls:
        _assert_totalize_matches_oracle(blocks, maps)


def test_totalize_matches_the_entry_assembly_on_toric_cells(monkeypatch):
    fans = [corpus_fan("cone_over_square"), corpus_fan("weighted_p112"),
            standard_fan("hirzebruch", 1)]
    calls = _totalize_calls(monkeypatch, weightlab.toric, lambda: [
        toric_cell_complex(f).cell_filtered for f in fans])
    assert len(calls) == len(fans)
    for blocks, maps in calls:
        _assert_totalize_matches_oracle(blocks, maps)
