import json

import pytest

from weightlab.complexes import (
    ChainComplex,
    ComplexError,
    canonical_filtration,
    trivial_filtration,
)
from weightlab.cubical import (
    CubicalDiagram,
    Hyperresolution,
    additivity_check,
    diagram_from_doc,
    diagram_to_doc,
    hyperres_from_doc,
    hyperres_to_doc,
    hyperres_weight_compare,
    is_acyclic,
    simple_filtered,
    skeleton_filtration,
)
from weightlab.fixtures import all_hyperres, klein_square
from weightlab.gf2 import BitMatrix
from weightlab.pages import SpectralSequence
from weightlab.toric import standard_fan, toric_cell_complex


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
    assert fc.complex.total_dim() == 2 * circle().total_dim()
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
    cx = ChainComplex.make({0: 2, 1: 1}, {1: BitMatrix.from_dense([[1], [1]])})
    fc = canonical_filtration(cx)
    bad = {(1, 0): {0: BitMatrix.from_dense([[1, 0], [0, 0]]),
                    1: BitMatrix.from_dense([[0]])}}
    with pytest.raises(ComplexError, match="chain map"):
        CubicalDiagram(0, {0: fc, 1: fc}, bad)


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
        report = hyperres_weight_compare(SpectralSequence(skeleton_filtration(h)))
        assert report.ok, (name, report)


def test_hyperres_rejects_broken_simplicial_identity():
    pt = point()
    two = ChainComplex.make({0: 2})
    three = ChainComplex.make({0: 3})
    # d0, d1 from level 1 agree; level 2 face maps violate d_0 d_1 = d_0 d_0
    faces = {
        (1, 0): {0: BitMatrix.from_dense([[1, 0]])},
        (1, 1): {0: BitMatrix.from_dense([[0, 1]])},
        (2, 0): {0: BitMatrix.from_dense([[1, 0, 0], [0, 1, 0]])},
        (2, 1): {0: BitMatrix.from_dense([[0, 0, 1], [0, 1, 0]])},
        (2, 2): {0: BitMatrix.from_dense([[0, 1, 0], [1, 0, 0]])},
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
