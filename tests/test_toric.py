import functools
import itertools
import re
import warnings
from collections import Counter
from dataclasses import replace
from math import comb, gcd
from operator import xor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weightlab.fan
import weightlab.gf2
import weightlab.lattice
import weightlab.toric
from weightlab.checks import check_boundary_squares_zero
from weightlab.fan import _face_sizes
from weightlab.fixtures import corpus_fan, fan_corpus, product_pairs, smooth_complete_corpus
from weightlab.lattice import saturate_mod2
from weightlab.pages import SpectralSequence, virtual_poincare
from weightlab.poly import Poly
from weightlab.toric import (
    _bit_masks,
    _cover_images,
    _level_order,
    _times_image,
    Cone,
    Fan,
    FanError,
    cell_counts,
    fan_to_doc,
    _orbit_map,
    orbit_group,
    orbit_sum_poly,
    parse_fan,
    product_fan,
    standard_fan,
    toric_cell_complex,
)

from fansets import layout_fans
from oracles import (
    augmentation_to_cells,
    bergman_fan_doc,
    betti_numbers,
    matrix_to_dense,
    oracle_orbit_group,
    oracle_orbit_sum_poly,
    oracle_simplicial_cones,
    oracle_toric_boundary,
    pairwise_fan_diagnostics,
    rational_rank,
)


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


@pytest.mark.parametrize("doc, message", [
    ({"lattice_rank": 2, "rays": [[0, 0], [1, 0]], "simplicial": True,
      "cones": [{"rays": [1]}]}, "ray 0 is zero: [0, 0]"),
    ({"lattice_rank": 0, "rays": [[]], "cones": []}, "ray 0 is zero: []"),
    # the second declaration used to replace the first, so the 2-cone was lost
    ({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "a", "rays": [0, 1]}, {"id": "a", "rays": [1]}]},
     "cone id 'a' names two cones, on rays [0, 1] and [1]"),
    ({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "a", "rays": [0, 1]}, {"id": "b", "rays": [1, 0]}]},
     "cones 'a' and 'b' have the same rays [0, 1]"),
    # two declared ids that clash, one of them the generated id of a face
    ({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "c1", "rays": [0, 1]}, {"id": "c1", "rays": [1]}]},
     "cone id 'c1' names two cones, on rays [0, 1] and [1]"),
    ({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
      "cones": [{"id": "0", "rays": [0]}]},
     "cone id '0' names two cones, on rays [] and [0]"),
    ({"lattice_rank": 1, "rays": [[1]], "simplicial": False,
      "cones": [{"id": "r", "rays": [0], "faces": []},
                {"id": "s", "rays": [0], "faces": []}]},
     "cones 'r' and 's' have the same rays [0]"),
    ({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": False,
      "cones": [{"id": "r", "rays": [0], "faces": []},
                {"id": "r", "rays": [1], "faces": []}]},
     "cone id 'r' names two cones, on rays [0] and [1]"),
    # a declared simplicial cone on no rays does not replace the zero cone
    ({"lattice_rank": 1, "rays": [[1]], "simplicial": True,
      "cones": [{"id": "m", "rays": []}]},
     "cones '0' and 'm' have the same rays []"),
])
def test_parse_refuses_zero_rays_and_repeated_cones(doc, message):
    with pytest.raises(FanError, match=re.escape(message)):
        parse_fan(doc)


def test_generated_face_ids_avoid_declared_ids():
    # "c1" is declared for the quadrant and is the generated id of its
    # face on ray 1, which takes the next free name instead.
    fan = parse_fan({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
                     "cones": [{"id": "c1", "rays": [0, 1]}, {"id": "c1'", "rays": [0]}]})
    assert {cid: sorted(fan.cone(cid).ray_indices) for cid in fan.cone_ids()} == \
        {"0": [], "c1": [0, 1], "c1'": [0], "c1''": [1]}
    # The generated id of a declared cone without one avoids them too.
    fan = parse_fan({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
                     "cones": [{"id": "c0", "rays": [1]}, {"rays": [0]}]})
    assert sorted(fan.cone("c0'").ray_indices) == [0]


def test_a_cone_repeated_with_the_same_id_and_rays_is_one_cone():
    for simplicial in (True, False):
        cone = {"id": "r", "rays": [0], "faces": []}
        doc = {"lattice_rank": 1, "rays": [[1]], "simplicial": simplicial}
        assert parse_fan({**doc, "cones": [cone, cone]}) == parse_fan({**doc, "cones": [cone]})


def test_p0_is_the_point():
    assert standard_fan("P", 0) == standard_fan("A", 0) == standard_fan("trivial", 0)


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


# The corpus and the fans of the benchmark's ladder.
_LADDER = {
    **fan_corpus(),
    **{f"P{n}": standard_fan("P", n) for n in range(3, 7)},
    **{f"A{n}": standard_fan("A", n) for n in (5, 6)},
    **{f"trivial{n}": standard_fan("trivial", n) for n in (6, 7)},
    "P1xP2": product_fan(standard_fan("P", 1), standard_fan("P", 2)),
    "P2xP2": product_fan(standard_fan("P", 2), standard_fan("P", 2)),
}


def _assert_orbit_groups_match_the_oracle(fan):
    for cid in fan.cone_ids():
        g = orbit_group(fan, cid)
        span, free, coords = oracle_orbit_group(
            fan.n, [fan.rays[i] for i in sorted(fan.cone(cid).ray_indices)])
        assert fan.ray_span(cid).basis == span
        assert g.free == free and g.dim == len(free)
        assert [functools.reduce(xor, (u for i, u in enumerate(g.units) if v >> i & 1), 0)
                for v in range(1 << fan.n)] == coords


@pytest.mark.parametrize("name", sorted(_LADDER))
def test_orbit_groups_match_the_smith_form_route(name):
    _assert_orbit_groups_match_the_oracle(_LADDER[name])


def _disguised(fan, m):
    """fan with its rays written in the coordinates of the unimodular m."""
    doc = fan_to_doc(fan)
    doc["rays"] = [[sum(r[k] * m[k][j] for k in range(fan.n)) for j in range(fan.n)]
                   for r in fan.rays]
    return parse_fan(doc)


def _unimodular(draw, n):
    """A random n×n unimodular matrix: a signed permutation followed by a
    few elementary column operations."""
    perm = draw(st.permutations(range(n)))
    m = [[draw(st.sampled_from([-1, 1])) if perm[i] == j else 0 for j in range(n)]
         for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            s = draw(st.integers(-2, 2))
            for row in m:
                row[j] += s * row[i]
    return m


@st.composite
def disguised_fans(draw):
    """A corpus fan in random lattice coordinates."""
    fans = fan_corpus()
    fan = fans[draw(st.sampled_from(sorted(fans)))]
    return _disguised(fan, _unimodular(draw, fan.n))


@settings(max_examples=100, deadline=None)
@given(disguised_fans())
def test_orbit_groups_match_the_smith_form_route_in_other_coordinates(fan):
    _assert_orbit_groups_match_the_oracle(fan)


def test_a_copy_with_other_rays_saturates_its_own_rays():
    fan = standard_fan("P", 2)
    _assert_orbit_groups_match_the_oracle(fan)  # fills fan's saturations
    copy = replace(fan, rays=_disguised(fan, [[1, 1], [0, 1]]).rays)
    assert copy.ray_span("c0") != fan.ray_span("c0")
    _assert_orbit_groups_match_the_oracle(copy)


# Fans for the build's walk over the cones: the corpus, whose
# weighted_p112, quadric_cone and cone_over_square each have one cone
# the walk spans, the standard fans of rank 4 and the products of
# product_pairs.
_WALKED = {
    **fan_corpus(),
    "P4": standard_fan("P", 4),
    "A4": standard_fan("A", 4),
    **{name: product_fan(a, b) for name, a, b in product_pairs()},
}


@st.composite
def walked_fans(draw):
    """A fan of _WALKED, in its own lattice coordinates or in random ones."""
    fan = _WALKED[draw(st.sampled_from(sorted(_WALKED)))]
    return _disguised(fan, _unimodular(draw, fan.n)) if draw(st.booleans()) else fan


@settings(max_examples=150, deadline=None)
@given(walked_fans())
def test_the_walk_matches_the_span_route_and_the_oracle_boundary(fan):
    tcc = toric_cell_complex(fan)
    groups = {cid: orbit_group(fan, cid) for cid in fan.cone_ids()}
    assert tcc.groups == groups
    boundary, levels = oracle_toric_boundary(fan, groups)
    assert tcc.filtered.complex.boundary == boundary
    assert tcc.filtered.levels == levels


def _products_per_pattern(gens):
    """The _times_image calls of one cover whose generators map to gens:
    one per subset of the live generators whose lowest one maps to more
    than one generator."""
    live = [i for i, c in enumerate(gens) if c]
    return sum(1 << len(live) - n - 1 for n, i in enumerate(live) if gens[i] & gens[i] - 1)


@pytest.mark.parametrize("fan", [standard_fan("P", 4), standard_fan("P", 5),
                                 corpus_fan("cone_over_square")], ids=["P4", "P5", "square"])
def test_each_cover_pattern_takes_its_images_once(monkeypatch, fan):
    # Covers of one degree whose generators have the same images share
    # their images, so _times_image runs for one cover of each pattern.
    calls = []
    times_image = weightlab.toric._times_image
    monkeypatch.setattr(weightlab.toric, "_times_image",
                        lambda v, c, without: calls.append(len(without) + 1)
                        or times_image(v, c, without))
    tcc = toric_cell_complex(fan)
    built = Counter(calls)
    calls.clear()
    oracle_toric_boundary(fan, tcc.groups)
    per_cover = Counter(calls)
    patterns: dict[int, Counter] = {}
    for sigma in fan.cone_ids():
        for tau in fan.covers(sigma):
            gens = _cover_images(tcc.groups[sigma], tcc.groups[tau])
            patterns.setdefault(fan.codim(sigma), Counter())[gens] += 1
    assert built == Counter({k: sum(map(_products_per_pattern, p)) for k, p in patterns.items()})
    assert per_cover == Counter({k: sum(_products_per_pattern(gens) * m for gens, m in p.items())
                                 for k, p in patterns.items()})


@st.composite
def simplicial_documents(draw):
    """A simplicial fan document of lattice rank at most 4: distinct
    primitive rays in random lattice coordinates, and cones on independent
    subsets of them, each with no id or a distinct declared one, some of
    which are the ids the parser generates for other ray sets."""
    n = draw(st.integers(1, 4))
    primitive = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(
        lambda v: gcd(*v) == 1)
    rays = draw(st.lists(primitive.map(tuple), min_size=1, max_size=6, unique=True))
    m = _unimodular(draw, n)
    rays = [[sum(r[k] * m[k][j] for k in range(n)) for j in range(n)] for r in rays]
    subsets = draw(st.lists(st.frozensets(st.integers(0, len(rays) - 1), max_size=n),
                            max_size=5, unique=True))
    cones, taken = [], set()
    for idx in subsets:
        if rational_rank([rays[i] for i in sorted(idx)]) < len(idx):
            continue
        cid = draw(st.sampled_from([None, None, "m", "c0", "c1", "c0,1", "c1'"])) if idx else None
        if cid in taken:
            cid = None
        taken.add(cid)
        cones.append({"id": cid, "rays": draw(st.permutations(sorted(idx)))})
    return {"lattice_rank": n, "rays": rays, "simplicial": True, "cones": cones}


@settings(max_examples=200, deadline=None)
@given(simplicial_documents())
def test_simplicial_parse_is_the_walk_down_and_union(doc):
    fan = parse_fan(doc)
    assert {cid: (sorted(c.ray_indices), c.dim, sorted(c.faces))
            for cid, c in fan.cones.items()} == oracle_simplicial_cones(doc)
    for cid, c in fan.cones.items():
        rays = [fan.rays[i] for i in sorted(c.ray_indices)]
        assert fan.ray_span(cid) == saturate_mod2(rays, fan.n), cid


def _assert_face_list_document_is_the_fan(fan):
    """The face-list document of a fan parses back to the fan, every cone
    with the same span."""
    again = parse_fan(fan_to_doc(fan))
    assert again == fan
    for cid in fan.cones:
        assert again.ray_span(cid) == fan.ray_span(cid), cid


@settings(max_examples=200, deadline=None)
@given(simplicial_documents())
def test_face_list_document_of_a_simplicial_fan_parses_to_it(doc):
    _assert_face_list_document_is_the_fan(parse_fan(doc))


@functools.cache
def _round_trip_fans():
    fans = {**fan_corpus(), **{name: product_fan(f1, f2) for name, f1, f2 in product_pairs()}}
    for family in ("P", "A", "trivial"):
        fans.update({f"{family}:{k}": standard_fan(family, k) for k in range(6)})
    return fans


@pytest.mark.parametrize("name", sorted(_round_trip_fans()))
def test_face_list_documents_parse_to_their_fans(name):
    _assert_face_list_document_is_the_fan(_round_trip_fans()[name])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 511), max_size=8))
def test_face_sizes_count_the_distinct_subsets(tops):
    subsets = {0}.union(*(_subsets(top) for top in tops))
    assert _face_sizes(tops) == Counter(map(int.bit_count, subsets))


def _simplicial_doc(fan):
    """The simplicial document that declares the maximal cones of a fan."""
    below = frozenset().union(*(c.faces for c in fan.cones.values()))
    return {"lattice_rank": fan.n, "rays": [list(r) for r in fan.rays], "simplicial": True,
            "cones": [{"id": cid, "rays": sorted(fan.cones[cid].ray_indices)}
                      for cid in fan.cone_ids() if cid not in below]}


def test_a_simplicial_parse_counts_the_faces_only_past_its_bound(monkeypatch):
    # A declared cone on s rays brings 3^s·2^(n-s) cells with its faces.
    # While their sum is within the cap, the distinct faces are not
    # counted; past it they are, and the exact count decides.
    p2 = standard_fan("P", 2)
    fans = {"P:6": standard_fan("P", 6), "A:6": standard_fan("A", 6),
            "P2xP2": product_fan(p2, p2), "P:3": standard_fan("P", 3)}
    docs = {name: _simplicial_doc(fan) for name, fan in fans.items()}
    calls = []
    sizes = weightlab.fan._face_sizes
    monkeypatch.setattr(weightlab.fan, "_face_sizes",
                        lambda *args: calls.append(args[0]) or sizes(*args))
    for name in ("P:6", "A:6", "P2xP2"):
        assert cell_counts(parse_fan(docs[name])) == cell_counts(fans[name]), name
    assert calls == []
    # P:3 has 40 cells, and its four cones a bound of 4·3^3 = 108.
    for cap, counted in ((108, 0), (107, 1), (40, 1)):
        calls.clear()
        monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", cap)
        assert sum(cell_counts(parse_fan(docs["P:3"])).values()) == 40, cap
        assert len(calls) == counted, cap
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 39)
    with pytest.raises(FanError, match="^the fan has 40 cells, more than the 39 the build allows$"):
        parse_fan(docs["P:3"])


@pytest.mark.parametrize("name", sorted(layout_fans()))
def test_fan_documents_at_the_cap_are_read_and_above_it_refused(name):
    # A simplicial document is refused by the parse, before any cone is
    # made, with the count that cell_counts gives the fan.
    fan = layout_fans()[name]
    cells = sum(cell_counts(fan).values())
    want = (f"a cone of codimension {fan.n}" if cells == 1 << fan.n
            else f"the fan has {cells} cells")
    docs = {"face-list": fan_to_doc(fan)}
    if all(c.dim == len(c.ray_indices) for c in fan.cones.values()):
        docs["simplicial"] = _simplicial_doc(fan)
    for form, doc in docs.items():
        with mock.patch.object(weightlab.gf2, "MAX_CELLS", cells):
            assert cell_counts(parse_fan(doc)) == cell_counts(fan), form
        no_cones = mock.patch.object(weightlab.fan, "Cone", side_effect=AssertionError(form))
        with mock.patch.object(weightlab.gf2, "MAX_CELLS", cells - 1), \
                pytest.raises(FanError, match=re.escape(want)):
            if form == "simplicial":
                with no_cones:
                    parse_fan(doc)
            else:
                cell_counts(parse_fan(doc))


def test_fans_are_held_to_the_cap_when_made(monkeypatch):
    # P:2 has 4 + 3*2 + 3 = 13 cells and P:1 x P:1 4 + 4*2 + 4 = 16: a fan
    # made directly or as a product is refused above the cap, read when it
    # is made, and an invalid fan above it still gets its validation message.
    p1, p2 = standard_fan("P", 1), standard_fan("P", 2)
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 13)
    assert Fan(p2.n, p2.rays, p2.cones) == p2
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 12)
    with pytest.raises(FanError, match="^the fan has 13 cells, more than the 12 the build"):
        Fan(p2.n, p2.rays, p2.cones)
    with pytest.raises(FanError, match="^the fan has 16 cells, more than the 12 the build"):
        product_fan(p1, p1)
    ray = next(cid for cid in p2.cone_ids() if p2.codim(cid) == 1)
    cones = {cid: c for cid, c in p2.cones.items() if cid != ray}
    monkeypatch.setattr(weightlab.gf2, "MAX_CELLS", 1)
    with pytest.raises(FanError, match=f"^cone '[^']+' lists unknown face '{ray}'"):
        Fan(p2.n, p2.rays, cones)


# Rank-3 simple matroids by their lines of three or more points.
_BERGMAN_LINES = {
    "two lines": ["012", "234"],
    "three lines": ["012", "034", "135"],
    "fano minus a line": ["013", "124", "235", "346", "450", "561"],
    "fano": ["013", "124", "235", "346", "450", "561", "602"],
}


@functools.cache
def _simplicial_sources():
    """Simplicial documents of the simplicial fans of ``layout_fans`` (the
    ladder, the corpus and the product pairs) and of Bergman fans."""
    docs = {name: _simplicial_doc(fan) for name, fan in layout_fans().items()
            if all(c.dim == len(c.ray_indices) for c in fan.cones.values())}
    docs.update({f"bergman {name}": bergman_fan_doc(lines)
                 for name, lines in _BERGMAN_LINES.items()})
    return docs


@functools.cache
def _guarded_fans():
    """The fans the build's registry guard is held to here: the ladder,
    the corpus and the products (``layout_fans``), and the Bergman fan of
    the Fano plane."""
    return {**layout_fans(), "bergman fano": parse_fan(bergman_fan_doc(_BERGMAN_LINES["fano"]))}


@pytest.mark.parametrize("name", sorted(_guarded_fans()))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_the_build_passes_the_checks_it_is_made_past(name, data):
    # The build makes its complex past the ∂∂ and level checks; the
    # registry's "toric boundary squares to zero" runs both on it, in the
    # fan's own lattice coordinates or in random ones.
    fan = _guarded_fans()[name]
    if data.draw(st.booleans()):
        fan = _disguised(fan, _unimodular(data.draw, fan.n))
    assert check_boundary_squares_zero.on_fan(name, fan, toric_cell_complex(fan), None) == []


def _generated(idx):
    return "c" + ",".join(map(str, sorted(idx))) if idx else "0"


@st.composite
def simplicial_cases(draw):
    """A valid simplicial document, from ``_simplicial_sources`` in random
    lattice coordinates or from ``simplicial_documents``, its cones
    shuffled, with at most one edit, and a cell cap.  The edits: a used
    ray repeated, possibly as a multiple, in place of a ray of a cone
    without it, or as a cone of its own where every cone has it; a cone
    on the rays of another and a vector they span; a cone renamed to the
    generated id of some ray set; an added cone on no rays; a cap at or
    below the fan's cells."""
    sources = _simplicial_sources()
    if draw(st.booleans()):
        doc = draw(simplicial_documents())
    else:
        doc = sources[draw(st.sampled_from(sorted(sources)))]
        n, m = doc["lattice_rank"], _unimodular(draw, doc["lattice_rank"])
        doc = {**doc, "rays": [[sum(r[k] * m[k][j] for k in range(n)) for j in range(n)]
                               for r in doc["rays"]]}
    rays = [list(r) for r in doc["rays"]]
    cones = [dict(cd) for cd in draw(st.permutations(doc["cones"]))]
    cap = weightlab.gf2.MAX_CELLS
    some = [cd for cd in cones if cd["rays"]]
    kind = draw(st.sampled_from(["none", "repeated ray", "dependent cone", "generated id",
                                 "empty cone", "over the cap"]))
    if kind == "repeated ray" and some:
        i = draw(st.sampled_from(sorted({i for cd in some for i in cd["rays"]})))
        k = draw(st.sampled_from([1, 1, 2, 3]))
        rays.append([k * x for x in rays[i]])
        others = [cd for cd in some if i not in cd["rays"]]
        if others:
            cd = draw(st.sampled_from(others))
            gone = draw(st.sampled_from(cd["rays"]))
            cd["rays"] = [len(rays) - 1 if r == gone else r for r in cd["rays"]]
        else:
            cones.insert(draw(st.integers(0, len(cones))), {"id": None, "rays": [len(rays) - 1]})
    elif kind == "dependent cone" and some:
        idx = draw(st.sampled_from(some))["rays"]
        pair = draw(st.lists(st.sampled_from(idx), min_size=2, max_size=2))
        rays.append([a + b for a, b in zip(*(rays[r] for r in pair))])
        cones.insert(draw(st.integers(0, len(cones))),
                     {"id": None, "rays": [*idx, len(rays) - 1]})
    elif kind == "generated id" and some:
        cd, other = draw(st.sampled_from(some)), draw(st.sampled_from(some))
        idx = draw(st.sampled_from([cd["rays"], other["rays"]]))
        sub = draw(st.lists(st.sampled_from(idx), unique=True, max_size=len(idx)))
        cd["id"] = _generated(sub) + draw(st.sampled_from(["", "'"]))
    elif kind == "empty cone":
        cid = draw(st.sampled_from([None, "0", "m", *(cd.get("id") for cd in cones)]))
        cones.insert(draw(st.integers(0, len(cones))), {"id": cid, "rays": []})
    elif kind == "over the cap":
        cells = sum(cell_counts(parse_fan(doc)).values())
        cap = draw(st.sampled_from([cells, cells - 1, max(1, cells // 2), 1]))
    return {**doc, "rays": rays, "cones": cones}, cap


def _outcome(doc):
    """The fan ``parse_fan`` makes of doc, or the message it refuses with;
    a ray drawn non-primitive warns, as a document's does."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return parse_fan(doc)
    except FanError as exc:
        return str(exc)


def _fully_validated(doc):
    """What :func:`_outcome` gives when the walk's fan is made by
    ``Fan(...)``, whose construction tests every axiom on it, the face
    lattice rebuilt from the face ids."""
    def validated(n, rays, cones, spans, lattice):
        return Fan(n, rays, cones)

    with mock.patch.object(Fan, "_walked", staticmethod(validated)):
        return _outcome(doc)


@settings(max_examples=300, deadline=None)
@given(simplicial_cases())
def test_simplicial_parse_matches_full_validation(case):
    # The walk's fan skips the lattice, rank and cap tests that its
    # construction makes true: it refuses with the message, and accepts
    # the fan, that validating every axiom gives.
    doc, cap = case
    with mock.patch.object(weightlab.gf2, "MAX_CELLS", cap):
        got, want = _outcome(doc), _fully_validated(doc)
    if isinstance(want, str):
        assert got == want
        return
    assert got == want
    for cid, c in want.cones.items():
        assert (got.cone(cid).dim, got.cone(cid).faces) == (c.dim, c.faces), cid
        assert got.covers(cid) == want.covers(cid), cid


def test_simplicial_parse_keeps_the_repeated_ray_message():
    # One helper names repeated rays for validation and for the walk.
    doc = {"lattice_rank": 2, "rays": [[1, 0], [0, 1], [1, 0]], "simplicial": True,
           "cones": [{"rays": [0, 1]}, {"rays": [1, 2]}]}
    assert _outcome(doc) == _fully_validated(doc) == "rays 0 and 2 are the same vector [1, 0]"


@pytest.mark.parametrize("faces", [[], ["0"], [0], [5], ["5"], ["c1"], ["c1", 5, "0"]])
def test_simplicial_face_lists_naming_faces_are_accepted(faces):
    # A declared face may be a declared id, a generated id or the zero
    # cone; the fan is the one without the list.
    doc = {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True,
           "cones": [{"id": 5, "rays": [0]}, {"id": "m", "rays": [0, 1]}]}
    listed = {**doc, "cones": [doc["cones"][0], {**doc["cones"][1], "faces": faces}]}
    assert parse_fan(listed) == parse_fan(doc)


@pytest.mark.parametrize("cones, message", [
    ([{"id": "x", "rays": [0], "faces": ["nope"]}], "cone 'x' lists unknown face 'nope'"),
    ([{"id": "x", "rays": [0], "faces": ["x"]}], "cone 'x' lists 'x', which is not one of its faces"),
    ([{"id": "x", "rays": [0]}, {"id": "y", "rays": [1], "faces": ["0", "x"]}],
     "cone 'y' lists 'x', which is not one of its faces"),
    ([{"rays": [0, 1], "faces": ["c0", "c1", "c2", "c0,1"]}],
     "cone 'c0,1' lists 'c0,1', which is not one of its faces"),
    ([{"id": "m", "rays": [0, 1], "faces": [7, "c0"]}], "cone 'm' lists unknown face '7'"),
])
def test_simplicial_face_lists_naming_other_cones_are_refused(cones, message):
    doc = {"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "simplicial": True, "cones": cones}
    with pytest.raises(FanError, match=f"^{re.escape(message)}$"):
        parse_fan(doc)


_SMOOTH = {
    **{f"P{n}": ("P", n) for n in range(1, 8)},
    **{f"A{n}": ("A", n) for n in range(1, 8)},
    **{f"hirzebruch{a}": ("hirzebruch", a) for a in range(4)},
    "P2xP2": ("P", 2, "P", 2),
    "P1x(P1xP2)": ("P", 1, "P", 1, "P", 2),
}


def test_fan_parse_spans_each_cone_by_one_insertion(monkeypatch):
    calls = {"rref": 0, "smith": 0}
    rref, snf = weightlab.gf2.rref, weightlab.lattice.smith_normal_form
    monkeypatch.setattr(weightlab.gf2, "rref",
                        lambda vs: calls.__setitem__("rref", calls["rref"] + 1) or rref(vs))
    monkeypatch.setattr(weightlab.lattice, "smith_normal_form",
                        lambda m: calls.__setitem__("smith", calls["smith"] + 1) or snf(m))
    # The parser ranks the 7 declared cones before their faces exist, and
    # their faces take their ray counts as ranks.
    standard_fan("P", 6)
    assert calls["rref"] <= 8 and calls["smith"] == 0
    # The 4-ray cone is the one dependent set; the parser's span of it is
    # the fan's.
    calls["smith"] = 0
    corpus_fan("cone_over_square")
    assert calls["smith"] == 1


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_smooth_fans_need_no_smith_form(monkeypatch, name):
    def refuse(m):
        raise AssertionError(f"Smith normal form of {m}")

    monkeypatch.setattr(weightlab.lattice, "smith_normal_form", refuse)
    spec = _SMOOTH[name]
    factors = [standard_fan(spec[i], spec[i + 1]) for i in range(0, len(spec), 2)]
    fan = factors.pop()
    while factors:
        fan = product_fan(factors.pop(), fan)
    tcc = toric_cell_complex(fan)
    assert all(tcc.groups[cid].dim == fan.codim(cid) for cid in fan.cone_ids())


def test_orbit_map_path_independence():
    fan = standard_fan("P", 2)
    for top in (c for c in fan.cone_ids() if fan.codim(c) == 0):
        rays = [t for t in fan.cone(top).faces if fan.codim(t) == 1]
        assert len(rays) == 2
        composites = [
            _orbit_map(orbit_group(fan, ray), orbit_group(fan, top)).mul(
                _orbit_map(orbit_group(fan, "0"), orbit_group(fan, ray)))
            for ray in rays
        ]
        assert composites[0] == composites[1]


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


_COUNTED = {
    **smooth_complete_corpus(),  # a name denotes one fan in both corpora
    **fan_corpus(),
    **{f"{name}:{n}": standard_fan(name, n) for name in ("P", "A", "trivial") for n in range(5)},
}


@pytest.mark.parametrize("name", list(_COUNTED))
def test_cell_counts_are_the_built_dimensions(name):
    fan = _COUNTED[name]
    assert cell_counts(fan) == toric_cell_complex(fan).filtered.complex.dims


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
        fc = toric_cell_complex(standard_fan("trivial", k)).filtered
        for q in range(k + 1):
            lo = fc.level(-q - 1, k)
            hi = fc.level(-q, k)
            assert hi.dim - lo.dim == comb(k, q)


def test_filtration_is_valid_and_bounded():
    fc = toric_cell_complex(standard_fan("P", 2)).filtered
    p_min, p_max = fc.p_range
    assert (p_min, p_max) == (-2, 0)


def test_product_fan():
    p1 = standard_fan("P", 1)
    prod = product_fan(p1, p1)
    assert prod.n == 2
    assert len(prod.cone_ids()) == 9
    assert orbit_sum_poly(prod) == Poly.make([1, 2, 1])


def _beta(fan):
    return virtual_poincare(SpectralSequence(toric_cell_complex(fan).filtered))


_NAMED = {**fan_corpus(), "A1xA1": product_fan(standard_fan("A", 1), standard_fan("A", 1))}


def _nested(name):
    """A named fan, or the product "a x b" of two names."""
    left, sep, right = name.rpartition(" x ")
    return product_fan(_nested(left), _nested(right)) if sep else _NAMED[name]


@pytest.mark.parametrize("left, right", [
    ("P1xP1", "P1xP1"),
    ("A1xA1", "A1xA1"),
    ("P1xP1", "quadric_cone"),
    ("P1xP1 x P1", "P1"),
    ("A2", "P1xP1 x trivial1"),
])
def test_nested_product_fans(left, right):
    f1, f2 = _nested(left), _nested(right)
    prod = product_fan(f1, f2)
    assert len(prod.cone_ids()) == len(f1.cone_ids()) * len(f2.cone_ids())
    assert _beta(prod) == _beta(f1) * _beta(f2)


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


def test_orbit_sum_poly_matches_the_product_oracle():
    fans = {**fan_corpus(), **{label: product_fan(f1, f2) for label, f1, f2 in product_pairs()}}
    for left, right in (("P1xP1", "quadric_cone"), ("P3", "cone_over_square")):
        fans[f"{left} x {right}"] = product_fan(fans[left], fans[right])
    for name, fan in fans.items():
        assert orbit_sum_poly(fan) == oracle_orbit_sum_poly(fan), name


def test_cone_ids_are_json_strings_or_integers():
    # Integer ids and faces are read as strings; in simplicial mode an
    # absent or null id is generated.
    def quadrant(a, b, c):
        return parse_fan({"lattice_rank": 2, "rays": [[1, 0], [0, 1]], "cones": [
            {"id": a, "rays": [0], "faces": []},
            {"id": b, "rays": [1], "faces": []},
            {"id": c, "rays": [0, 1], "faces": [a, b]}]})

    assert fan_to_doc(quadrant(1, 2, 3)) == fan_to_doc(quadrant("1", "2", "3"))
    assert quadrant(1, 2, 3).cone("3").faces == quadrant("1", "2", "3").cone("3").faces
    generated = parse_fan({"lattice_rank": 1, "rays": [[1], [-1]], "simplicial": True,
                           "cones": [{"id": None, "rays": [0]}, {"rays": [1]}]})
    assert set(generated.cone_ids()) == {"0", "c0", "c1"}
    for name in ("blowup_p2", "cone_over_square", "quadric_cone", "weighted_p112"):
        assert len(corpus_fan(name).cone_ids()) > 1, name


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


def _conjugation_fans():
    p1, p2 = standard_fan("P", 1), standard_fan("P", 2)
    return {
        **fan_corpus(),
        "P6": standard_fan("P", 6),
        "P1x(P1xP2)": product_fan(p1, product_fan(p1, p2)),
    }


@pytest.mark.parametrize("name", sorted(_conjugation_fans()))
def test_augmentation_boundary_conjugates_to_the_cell_boundary(name):
    # Z ∂_aug = ∂_cell Z, where Z writes a vector of the augmentation basis
    # in the cell basis, and ∂_cell is built from the orbit maps alone.
    tcc = toric_cell_complex(_conjugation_fans()[name])
    aug, cells = tcc.filtered.complex, tcc.complex
    assert dict(aug.dims) == dict(cells.dims)
    order = {k: _level_order(k, aug.dim(k) >> k) for k in aug.degrees()}
    for k in aug.degrees():
        if not aug.dim(k - 1):
            continue
        d_aug, d_cell = aug.d(k), cells.d(k)
        for j in range(aug.dim(k)):
            assert augmentation_to_cells(order[k - 1], k - 1, d_aug.col_data[j]) == \
                d_cell.mul_vec(augmentation_to_cells(order[k], k, 1 << j)), (k, j)


def test_cell_block_basis_is_the_coset_indicators():
    # On one cone, the adapted basis of the cell basis is
    # b_S = Σ_{t ⊇ S} x^t, at level |S| - k, by ascending |S|.
    k = 4
    fc = toric_cell_complex(standard_fan("trivial", k)).cell_filtered
    seen = []
    for v, p in zip(fc.vectors(k), fc.levels[k]):
        s = (v & -v).bit_length() - 1  # the smallest t ⊇ S is S itself
        assert v == sum(1 << t for t in range(1 << k) if t & s == s)
        assert p == s.bit_count() - k
        seen.append(s)
    assert sorted(seen) == list(range(1 << k))
    assert [s.bit_count() for s in seen] == sorted(s.bit_count() for s in seen)


def test_cell_basis_complex_is_built_once():
    tcc = toric_cell_complex(standard_fan("P", 2))
    assert tcc.complex is tcc.complex
    assert tcc.cell_filtered is tcc.cell_filtered
    assert tcc.cell_filtered.complex is tcc.complex


def test_boundary_columns_are_packed_once(monkeypatch):
    # One bit vector per column and no second layout: each boundary
    # column of the augmentation basis is written as a bit vector as its
    # images are read, with no list of row indices to pack, and a matrix
    # keeps its three fields after validation, the spectral sequence and
    # the cell-basis build read it.  The cell basis is totalized from
    # orbit-map columns written as bit vectors, so it packs nothing either.
    packed = []
    pack = weightlab.gf2._pack
    monkeypatch.setattr(weightlab.gf2, "_pack", lambda col: packed.append(col) or pack(col))
    tcc = toric_cell_complex(standard_fan("P", 5))
    augmentation = tcc.filtered.complex.boundary.values()
    SpectralSequence(tcc.filtered).page(1)
    cells = tcc.complex.boundary.values()
    assert packed == []
    for m in [*augmentation, *cells]:
        assert vars(m).keys() == {"rows", "cols", "col_data"}


def _fan_problems(n, rays, cones):
    try:
        Fan(n, rays, cones)
    except FanError as exc:
        return str(exc)
    return ""


def _cone(cid, rays, dim, faces):
    return Cone(cid, frozenset(rays), dim, frozenset(faces))


def _simplex_cones(rays, extra=()):
    """A cone on every subset of ``rays``, named by its rays, with every
    proper subset as a face, and ``extra`` added to each face list named
    as a key."""
    extra = dict(extra)
    subsets = [frozenset(s) for k in range(len(rays) + 1)
               for s in itertools.combinations(rays, k)]

    def name(s):
        return "c" + "".join(map(str, sorted(s))) if s else "0"

    return [_cone(name(s), s, len(s),
                  {name(t) for t in subsets if t < s} | set(extra.get(name(s), ())))
            for s in subsets]


_BROKEN_LATTICES = {
    # a 2-cone right above the zero cone: not graded, an empty diamond
    "skips a dimension": (2, ((1, 0), (0, 1)), [
        _cone("0", (), 0, ()), _cone("s", (0, 1), 2, ("0",))]),
    "one intermediate cone": (2, ((1, 0), (0, 1)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("s", (0, 1), 2, ("0", "r0"))]),
    "three intermediate cones": (2, ((1, 0), (0, 1), (1, 1)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ("0",)), _cone("r2", (2,), 1, ("0",)),
        _cone("s", (0, 1, 2), 2, ("0", "r0", "r1", "r2"))]),
    "a 3-cone over one ray and the zero cone": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("t", (0, 1, 2), 3, ("0", "r0"))]),
    "not transitively closed": (2, ((1, 0), (0, 1)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ()), _cone("s", (0, 1), 2, ("r0", "r1"))]),
    # the rank check skips the cones on the short ray
    "a short ray": (2, ((1, 0), (1,)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ("0",)), _cone("s", (0, 1), 2, ("0", "r0", "r1"))]),
    "an unknown ray index": (2, ((1, 0),), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)), _cone("r1", (1,), 1, ())]),
    # c01 lists the ray c4 as a face, which no 3-cone or the 4-cone has:
    # the 3-cones fail at a facet, c0123 only below its non-facet c01
    "closure broken only below a non-facet face": (
        4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0)),
        [*_simplex_cones(range(4), {"c01": ("c4",)}),
         _cone("c4", (4,), 1, ("0",))]),
    # both 3-cones miss the face c4 of their common facet c01; c013
    # comes first in the cone order, so its message leads
    "two cones not closed": (
        3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 1)),
        [*_simplex_cones((0, 1, 3), {"c01": ("c4",)}), _cone("c4", (4,), 1, ("0",)),
         _cone("c2", (2,), 1, ("0",)), _cone("c02", (0, 2), 2, ("0", "c0", "c2")),
         _cone("c12", (1, 2), 2, ("0", "c1", "c2")),
         _cone("c012", (0, 1, 2), 3, ("0", "c0", "c1", "c2", "c01", "c02", "c12"))]),
    "a face on a ray its cone lacks": (2, ((1, 0), (0, 1), (1, 1)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ("0",)), _cone("r2", (2,), 1, ("0",)),
        _cone("s", (0, 1), 2, ("0", "r0", "r2"))]),
    "a repeated ray": (2, ((1, 0), (0, 1), (1, 0)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ("0",)), _cone("r2", (2,), 1, ("0",)),
        _cone("s", (0, 1), 2, ("0", "r0", "r1"))]),
    "a zero ray": (2, ((1, 0), (0, 0)), [
        _cone("0", (), 0, ()), _cone("r0", (0,), 1, ("0",)),
        _cone("r1", (1,), 1, ("0",)), _cone("s", (0, 1), 2, ("0", "r0", "r1"))]),
}


@pytest.mark.parametrize("name", sorted(_BROKEN_LATTICES))
def test_fan_diagnostics_match_the_pairwise_scan(name):
    n, rays, cones = _BROKEN_LATTICES[name]
    by_id = {c.id: c for c in cones}
    want = "; ".join(pairwise_fan_diagnostics(n, rays, by_id))
    assert want
    assert _fan_problems(n, rays, by_id) == want


def _unchecked_fan(n, rays, cones):
    """A Fan built without the check construction runs, so that its
    verdict and its scans can be read apart."""
    with mock.patch.object(Fan, "__post_init__", lambda self: None):
        return Fan(n, rays, cones)


@functools.cache
def _verdict_fans():
    corpus = fan_corpus()
    p1, p2 = corpus["P1"], corpus["P2"]
    return {**corpus, "P4": standard_fan("P", 4), "A3": standard_fan("A", 3),
            "A4": standard_fan("A", 4), "P1xP2": product_fan(p1, p2),
            "quadric x P1": product_fan(corpus["quadric_cone"], p1),
            "(P1xP1) x A1": product_fan(corpus["P1xP1"], standard_fan("A", 1))}


@st.composite
def mutated_face_lattices(draw):
    """A corpus, ladder or product fan with up to three cones edited.
    Dropping a maximal face, or adding to a cone that is no other cone's
    face a lower cone whose faces it has, keeps the face lists closed, so
    the gradedness and diamond checks see the result; dropping any face,
    adding an unknown face or any cone, moving a declared dimension by
    one, deleting a cone or adding a ray index (possibly past the last
    ray) exercises the rest.  Fans are drawn by lattice rank first and
    cones by dimension first, so that deep faces and top cones come up
    as often as rays."""
    by_rank = {}
    for _, fan in sorted(_verdict_fans().items()):
        by_rank.setdefault(fan.n, []).append(fan)
    fan = draw(st.sampled_from(by_rank[draw(st.sampled_from(sorted(by_rank)))]))
    cones = dict(fan.cones)

    def pick(ids):
        by_dim = {}
        for e in sorted(ids):
            by_dim.setdefault(cones[e].dim, []).append(e)
        return draw(st.sampled_from(by_dim[draw(st.sampled_from(sorted(by_dim)))]))

    for _ in range(draw(st.integers(1, 3))):
        if not cones:
            break
        c = cones[pick(cones)]
        kind = draw(st.sampled_from(["drop_facet", "add_below", "drop", "unknown",
                                     "add", "dim", "delete", "ray"]))
        faces = {f for f in c.faces if f in cones}
        if kind == "drop_facet":
            facets = {f for f in faces if not any(f in cones[g].faces for g in faces)}
            if facets:
                c = replace(c, faces=c.faces - {pick(facets)})
        elif kind == "add_below":
            tops = {e for e in cones if not any(e in g.faces for g in cones.values())}
            c = cones[pick(tops)] if tops else c
            below = {e for e in cones if e != c.id and e not in c.faces
                     and cones[e].dim < c.dim and cones[e].faces <= c.faces}
            if tops and below:
                c = replace(c, faces=c.faces | {pick(below)})
        elif kind == "drop" and faces:
            c = replace(c, faces=c.faces - {pick(faces)})
        elif kind == "unknown":
            c = replace(c, faces=c.faces | {"nowhere"})
        elif kind == "add":
            c = replace(c, faces=c.faces | {pick(cones)})
        elif kind == "dim":
            c = replace(c, dim=c.dim + draw(st.sampled_from([-1, 1])))
        elif kind == "delete":
            del cones[c.id]
            continue
        elif kind == "ray":
            i = draw(st.integers(0, len(fan.rays)))
            c = replace(c, ray_indices=c.ray_indices | {i})
        cones[c.id] = c
    return fan.n, fan.rays, cones


@settings(max_examples=600, deadline=None)
@given(mutated_face_lattices())
def test_fan_diagnostics_match_the_pairwise_scan_on_mutated_fans(case):
    n, rays, cones = case
    assert _fan_problems(n, rays, cones) == "; ".join(
        pairwise_fan_diagnostics(n, rays, cones))
    # Construction accepts by the bitmask verdict alone, the scans name.
    fan = _unchecked_fan(n, rays, cones)
    assert fan._holds() == (fan.diagnostics() == [])


def _one_edit_away(fan):
    """The cone mappings one edit away from the fan's: one face dropped
    or added (an unknown one or any cone), one declared dimension moved
    by one, one ray index added (possibly past the last ray) or one cone
    deleted."""
    cones = fan.cones
    for c in cones.values():
        for f in sorted(c.faces):
            yield {**cones, c.id: replace(c, faces=c.faces - {f})}
        for g in ["nowhere", *sorted(set(cones) - c.faces)]:
            yield {**cones, c.id: replace(c, faces=c.faces | {g})}
        for shift in (-1, 1):
            yield {**cones, c.id: replace(c, dim=c.dim + shift)}
        for i in sorted(set(range(len(fan.rays) + 1)) - c.ray_indices):
            yield {**cones, c.id: replace(c, ray_indices=c.ray_indices | {i})}
        yield {cid: other for cid, other in cones.items() if cid != c.id}


@pytest.mark.parametrize("name", sorted(_verdict_fans()))
def test_bitmask_verdict_is_the_scans_finding_nothing_one_edit_away(name):
    fan = _verdict_fans()[name]
    for cones in _one_edit_away(fan):
        edited = _unchecked_fan(fan.n, fan.rays, cones)
        assert edited._holds() == (edited.diagnostics() == []), cones


def test_covers_are_the_cofaces_one_dimension_up():
    for fan in (*fan_corpus().values(), standard_fan("P", 4)):
        for cid in fan.cone_ids():
            c = fan.cone(cid)
            assert fan.covers(cid) == sorted(
                other.id for other in fan.cones.values()
                if cid in other.faces and other.dim == c.dim + 1)


def _subsets(mask):
    t = mask
    while True:
        yield t
        if not t:
            return
        t = (t - 1) & mask


def _z_to_x(v, k):
    """A group-algebra element in the monomials z^T (bit T of v) as the set
    of group elements x^a with coefficient 1: z^T is the sum of x^t, t ⊆ T."""
    out = set()
    for big in range(1 << k):
        if v >> big & 1:
            out ^= set(_subsets(big))
    return out


def _x_to_z(xs):
    v = 0
    for a in xs:  # x^a = ∏_{i∈a}(1 + z_i) is the sum of z^T, T ⊆ a
        for t in _subsets(a):
            v ^= 1 << t
    return v


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(0, 2 ** (1 << k) - 1), st.integers(0, (1 << k) - 1))))
def test_times_image_multiplies_in_the_group_algebra(case):
    # Against multiplication of group elements: v · (1 + x^c).
    k, v, c = case
    without = _bit_masks(k)
    want = set()
    for a in _z_to_x(v, k):
        want ^= {a}
        want ^= {a ^ c}
    assert _times_image(v, c, without) == _x_to_z(want)
