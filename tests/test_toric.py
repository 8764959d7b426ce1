from math import comb

import pytest

from weightlab.fixtures import corpus_fan, fan_corpus
from weightlab.pages import SpectralSequence, virtual_poincare
from weightlab.poly import Poly
from weightlab.toric import (
    FanError,
    fan_to_doc,
    orbit_group,
    orbit_map,
    orbit_sum_poly,
    parse_fan,
    product_fan,
    standard_fan,
    toric_cell_complex,
    toric_filtration,
)

from oracles import betti_numbers, matrix_to_dense


def test_standard_p1():
    fan = standard_fan("P", 1)
    assert fan.n == 1
    assert set(fan.cone_ids()) == {"0", "m0", "m1"}
    assert fan.codim("0") == 1
    assert fan.codim("m0") == 0
    assert set(fan.covers("0")) == {"m0", "m1"}


def test_standard_p2_counts():
    fan = standard_fan("P", 2)
    assert len(fan.cone_ids()) == 7  # 0, 3 rays, 3 maximal cones
    assert sorted(fan.codim(c) for c in fan.cone_ids()) == [0, 0, 0, 1, 1, 1, 2]


def test_parse_simplicial_autogenerates_faces():
    doc = {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "cones": [{"rays": [0, 1]}],
        "simplicial": True,
    }
    fan = parse_fan(doc)
    # the declared 2-cone plus both rays plus the zero cone
    assert len(fan.cone_ids()) == 4


def test_parse_rejects_nonsimplicial_in_simplicial_mode():
    doc = {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
        "cones": [{"rays": [0, 1, 3]}],
        "simplicial": True,
    }
    with pytest.raises(FanError):
        parse_fan(doc)


def test_parse_rejects_broken_face_lattice():
    # a 2-cone covered by the zero cone with no ray in between
    doc = {
        "lattice_rank": 2,
        "rays": [[1, 0], [0, 1]],
        "simplicial": False,
        "cones": [
            {"id": "sigma", "rays": [0, 1], "faces": []},
        ],
    }
    with pytest.raises(FanError):
        parse_fan(doc)


def test_nonsimplicial_fixture_loads():
    fan = corpus_fan("cone_over_square")
    assert fan.n == 3
    top = [c for c in fan.cone_ids() if fan.cone(c).dim == 3]
    assert len(top) == 1
    assert len(fan.cone(top[0]).ray_indices) == 4


def test_orbit_groups():
    fan = standard_fan("trivial", 2)
    assert orbit_group(fan, "0").dim == 2
    fan = standard_fan("P", 1)
    assert orbit_group(fan, "0").dim == 1
    assert orbit_group(fan, "m0").dim == 0


def test_orbit_group_saturation():
    # ray (1,2): the primitive generator is odd in the first coordinate,
    # so the quotient by its saturation has dimension 1
    doc = {"lattice_rank": 2, "rays": [[1, 2]], "cones": [{"rays": [0]}], "simplicial": True}
    fan = parse_fan(doc)
    ray_id = [c for c in fan.cone_ids() if c != "0"][0]
    assert orbit_group(fan, ray_id).dim == 1


def test_orbit_map_path_independence():
    fan = standard_fan("P", 2)
    for top in (c for c in fan.cone_ids() if fan.codim(c) == 0):
        rays = [t for t in fan.cone(top).faces if fan.codim(t) == 1]
        assert len(rays) == 2
        composites = [
            orbit_map(fan, ray, top).mul(orbit_map(fan, "0", ray)).row_data
            for ray in rays
        ]
        assert composites[0] == composites[1]


def test_orbit_map_requires_cover():
    fan = standard_fan("P", 2)
    top = next(c for c in fan.cone_ids() if fan.codim(c) == 0)
    with pytest.raises(FanError):
        orbit_map(fan, "0", top)  # skips the intermediate ray


def test_cell_counts():
    tc = toric_cell_complex(standard_fan("P", 1))
    assert dict(tc.complex.dims) == {0: 2, 1: 2}
    tc = toric_cell_complex(standard_fan("P", 2))
    assert dict(tc.complex.dims) == {0: 3, 1: 6, 2: 4}
    for name, fan in fan_corpus().items():
        cx = toric_cell_complex(fan).complex
        expected = {}
        for cid in fan.cone_ids():
            k = fan.codim(cid)
            expected[k] = expected.get(k, 0) + 2**k
        assert {k: cx.dim(k) for k in cx.degrees()} == expected, name


def test_homology_p1_p2():
    assert toric_cell_complex(standard_fan("P", 1)).complex.betti_numbers() == \
        {0: 1, 1: 1}
    assert toric_cell_complex(standard_fan("P", 2)).complex.betti_numbers() == \
        {0: 1, 1: 1, 2: 1}


def test_homology_against_dense_oracle():
    cx = toric_cell_complex(standard_fan("hirzebruch", 1)).complex
    dense = {k: matrix_to_dense(m) for k, m in cx.boundary.items()}
    oracle = betti_numbers(dict(cx.dims), dense)
    assert {k: b for k, b in oracle.items() if b} == cx.betti_numbers()


def test_filtration_binomial_dims():
    for k in (1, 2, 3):
        fc = toric_filtration(standard_fan("trivial", k))
        for q in range(k + 1):
            lo = fc.level(-q - 1, k)
            hi = fc.level(-q, k)
            assert hi.dim - lo.dim == comb(k, q)


def test_filtration_is_valid_and_bounded():
    fc = toric_filtration(standard_fan("P", 2))
    p_min, p_max = fc.p_range
    assert (p_min, p_max) == (-2, 0)


def test_product_fan():
    p1 = standard_fan("P", 1)
    prod = product_fan(p1, p1)
    assert prod.n == 2
    assert len(prod.cone_ids()) == 9
    assert orbit_sum_poly(prod) == Poly.make([1, 2, 1])


def test_virtual_poincare_multiplicative_example():
    p1 = standard_fan("P", 1)
    p2 = standard_fan("P", 2)
    prod = product_fan(p1, p2)
    beta = virtual_poincare(SpectralSequence(toric_cell_complex(prod).filtered))
    assert beta == Poly.make([1, 1]) * Poly.make([1, 1, 1])


def test_orbit_sum_poly():
    assert orbit_sum_poly(standard_fan("P", 2)) == Poly.make([1, 1, 1])
    assert orbit_sum_poly(standard_fan("trivial", 2)) == Poly.make([1, -2, 1])
    assert orbit_sum_poly(standard_fan("A", 2)) == Poly.make([0, 0, 1])
    # hirzebruch surfaces all have beta = 1 + 2t + t^2
    for a in range(4):
        assert orbit_sum_poly(standard_fan("hirzebruch", a)) == Poly.make([1, 2, 1])


def test_fan_doc_round_trip():
    fan = corpus_fan("blowup_p2")
    back = parse_fan(fan_to_doc(fan))
    assert set(back.cone_ids()) == set(fan.cone_ids())
    assert back.rays == fan.rays
    for cid in fan.cone_ids():
        assert back.cone(cid).faces == fan.cone(cid).faces


def test_singular_fixture_not_pure():
    # singular fixture: the invariant is still the orbit sum
    fan = corpus_fan("quadric_cone")
    beta = virtual_poincare(SpectralSequence(toric_cell_complex(fan).filtered))
    assert beta == orbit_sum_poly(fan)


def test_limit_page_sums_to_betti_corpus():
    for name, fan in fan_corpus().items():
        if fan.n > 2:
            continue
        tc = toric_cell_complex(fan)
        ss = SpectralSequence(tc.filtered)
        by_degree = {}
        for (p, q), d in ss.infinity_page().items():
            by_degree[p + q] = by_degree.get(p + q, 0) + d
        assert by_degree == tc.complex.betti_numbers(), name
