import random
import sys
from collections import Counter
from functools import reduce, wraps
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weightlab
from weightlab import gf2
from weightlab.checks import coset_indicators
from weightlab.cli import main
from weightlab.complexes import (
    ChainComplex,
    FilteredComplex,
    canonical_filtration,
    deligne_shift,
    trivial_filtration,
)
from weightlab.cubical import skeleton_filtration
from weightlab.fan import product_fan
from weightlab.fixtures import all_hyperres, fan_corpus, product_pairs
from weightlab.gf2 import BitMatrix, BitSubspace, image_of_subspace
from weightlab.pages import (
    SpectralSequence,
    decalage_mismatches,
    euler_poincare,
    purity_collapse_report,
    reindexed_page,
    transported_page,
    virtual_poincare,
    weight_profile,
)
from weightlab.poly import Poly
from weightlab.toric import _level_order, levels, standard_fan, toric_cell_complex

from fansets import layout_fans
from oracles import (
    augmentation_to_cells,
    deligne_shift_oracle,
    kunneth_bars,
    oracle_collapse_page,
    relative_cycles_oracle,
)


def toric_filtered(name, param):
    return toric_cell_complex(standard_fan(name, param)).filtered


def test_p1_first_page():
    ss = SpectralSequence(toric_filtered("P", 1))
    assert ss.page(1) == {(0, 0): 1, (-1, 2): 1}
    assert reindexed_page(ss, 2) == {(0, 0): 1, (0, 1): 1}


def test_p1_limit_matches_homology():
    fc = toric_filtered("P", 1)
    ss = SpectralSequence(fc)
    limit = ss.infinity_page()
    by_degree = {}
    for (p, q), d in limit.items():
        by_degree[p + q] = by_degree.get(p + q, 0) + d
    assert by_degree == fc.complex.betti_numbers()


def test_trivial_filtration_page_is_homology():
    fc = toric_filtered("P", 2)
    triv = trivial_filtration(fc.complex)
    ss = SpectralSequence(triv)
    assert ss.page(1) == {(0, k): b for k, b in fc.complex.betti_numbers().items()}
    assert ss.page(1) == ss.infinity_page()


def test_canonical_filtration_antidiagonal():
    cx = toric_filtered("P", 2).complex
    ss = SpectralSequence(canonical_filtration(cx))
    assert ss.page(1) == {
        (-k, 2 * k): b for k, b in cx.betti_numbers().items()
    }


def test_page_dims_decrease_with_r():
    ss = SpectralSequence(toric_filtered("hirzebruch", 1))
    for r in range(1, ss.r_inf + 1):
        cur, nxt = ss.page(r), ss.page(r + 1)
        for key, d in nxt.items():
            assert d <= cur.get(key, 0)


def test_differential_squares_to_zero_and_computes_next_page():
    ss = SpectralSequence(toric_filtered("P", 2))
    for r in range(1, ss.r_inf + 1):
        for (p, q), d in ss.page(r).items():
            out = ss.differential(r, p, q)
            inc = ss.differential(r, p + r, q - r + 1)
            if out.cols and inc.cols:
                assert out.mul(inc).is_zero()
            expected = d - out.rank() - inc.rank()
            assert ss.dim(r + 1, p, q) == expected


def _conjugated(fc, seed):
    """Transport fc through a random filtration-preserving isomorphism."""
    rng = random.Random(seed)
    cx = fc.complex
    p_min, p_max = fc.p_range
    gs, ginvs = {}, {}
    for k in cx.degrees():
        n = cx.dim(k)
        adapted = []  # basis vectors in echelon order, grouped by level
        echelon = []
        for p in range(p_min, p_max + 1):
            for v in fc.level(p, k).basis:
                red = v
                for e in echelon:
                    if red & (e & -e):
                        red ^= e
                if red:
                    echelon.append(red)
                    adapted.append(red)
        assert len(adapted) == n
        images = []
        for i, b in enumerate(adapted):
            img = b
            for j in range(i):  # only earlier vectors: stays in F_p, unipotent
                if rng.random() < 0.5:
                    img ^= adapted[j]
            images.append(img)
        basis_mat = BitMatrix.from_columns(n, adapted)
        g = BitMatrix.from_columns(n, images).mul(basis_mat.inverse())
        gs[k], ginvs[k] = g, g.inverse()
    boundary = {}
    for k in cx.degrees():
        km1 = k - 1
        if cx.dim(km1) and cx.dim(k):
            g_prev = gs.get(km1, BitMatrix.identity(cx.dim(km1)))
            boundary[k] = g_prev.mul(cx.d(k)).mul(ginvs[k])
    new_cx = ChainComplex.make(dict(cx.dims), boundary)
    filtration = {
        p: {k: image_of_subspace(gs[k], fc.level(p, k)) for k in cx.degrees()}
        for p in range(p_min, p_max + 1)
    }
    return FilteredComplex.from_subspaces(new_cx, filtration)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pages_invariant_under_filtered_isomorphism(seed):
    fc = toric_filtered("P", 2)
    other = _conjugated(fc, seed)
    a, b = SpectralSequence(fc), SpectralSequence(other)
    for r in range(1, a.r_inf + 2):
        assert a.page(r) == b.page(r)


def test_weight_profile_endpoints():
    fc = toric_filtered("P", 2)
    profile = weight_profile(SpectralSequence(fc))
    p_min, p_max = fc.p_range
    betti = fc.complex.betti_numbers()
    for k, by_p in profile.items():
        assert by_p[p_min - 1] == 0
        assert by_p[p_max] == betti.get(k, 0)
        dims = [by_p[p] for p in sorted(by_p)]
        assert dims == sorted(dims)


def test_profile_matches_limit_page():
    fc = toric_filtered("hirzebruch", 2)
    ss = SpectralSequence(fc)
    limit = ss.infinity_page()
    profile = weight_profile(ss)
    for (p, q), d in limit.items():
        by_p = profile[p + q]
        assert by_p[p] - by_p[p - 1] == d


def test_virtual_poincare_values():
    def beta(name, param):
        return virtual_poincare(SpectralSequence(toric_filtered(name, param)))
    assert beta("P", 1) == Poly.make([1, 1])
    assert beta("P", 2) == Poly.make([1, 1, 1])
    # the torus (R*)^3: beta = (t - 1)^3
    assert beta("trivial", 3) == Poly.make([-1, 3, -3, 1])
    # affine 3-space: beta = t^3
    assert beta("A", 3) == Poly.make([0, 0, 0, 1])


@pytest.mark.parametrize("name", sorted(layout_fans()))
def test_euler_poincare_of_the_layout_is_the_page_read(name):
    fan = layout_fans()[name]
    assert euler_poincare(levels(fan)) == virtual_poincare(
        SpectralSequence(toric_cell_complex(fan).filtered))


def test_euler_poincare_refuses_negative_degrees():
    # A survivor at level 1 gives t^-1, as on Ẽ²; a pair within level 1
    # cancels on E⁰ and is gone from E¹.
    survivor = _prescribed({"x": (0, 1)}, {})
    for read in (lambda: euler_poincare(survivor.levels),
                 lambda: virtual_poincare(SpectralSequence(survivor))):
        with pytest.raises(ValueError, match="negative degrees"):
            read()
    pair = _prescribed({"x": (0, 1), "y": (1, 1)}, {"y": "x"})
    assert euler_poincare(pair.levels) == virtual_poincare(SpectralSequence(pair)) == Poly.zero()


def test_purity_report():
    ss = SpectralSequence(toric_filtered("P", 2))
    rep = purity_collapse_report(ss, 2)
    assert rep.is_pure and rep.support_ok and rep.collapse_page == 2
    assert reindexed_page(ss, 2) == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    rep = purity_collapse_report(SpectralSequence(toric_filtered("trivial", 2)), 2)
    assert not rep.is_pure  # affine space is not compact
    assert rep.support_ok


def test_reindex_round_trip():
    ss = SpectralSequence(toric_filtered("P", 2))
    for r in (1, 2, 3):
        tilde = reindexed_page(ss, r + 1)
        back = {(-qq, pp + 2 * qq): d for (pp, qq), d in tilde.items()}
        assert back == ss.page(r)


@pytest.mark.parametrize("name", ["P1", "P2", "A1", "hirzebruch1", "trivial2"])
def test_deligne_shift_comparison(name):
    ss = SpectralSequence(toric_cell_complex(fan_corpus()[name]).filtered)
    assert not decalage_mismatches(ss)


def test_transported_page_reads_shifted_coordinates():
    ss = SpectralSequence(toric_filtered("P", 1))
    page = ss.page(2)
    moved = transported_page(ss, 2)
    assert sum(moved.values()) == sum(page.values())
    for (p, q), d in moved.items():
        assert page[(2 * p + q, -p)] == d


# ---------------------------------------------------------------------------
# Higher pages: complexes with prescribed pairs, where the answer is known,
# and the pairing engine behind ``dim`` against the subspace engine behind
# ``entry``.


def _prescribed(cells, boundary):
    """A filtered complex on standard basis vectors.

    ``cells`` maps a name to (degree, level); ``boundary`` maps a name to
    the name of its boundary.  A pair y -> x at levels b >= a lives on
    E^0..E^{b-a} and is killed by d^{b-a}; a cell outside every pair
    survives to the limit.
    """
    index, dims = {}, {}
    for name, (k, _) in cells.items():
        index[name] = dims.get(k, 0)
        dims[k] = index[name] + 1
    mats = {}
    for y, x in boundary.items():
        k = cells[y][0]
        mats.setdefault(k, []).append((index[x], index[y]))
    cx = ChainComplex.make(dims, {
        k: BitMatrix.from_entries(dims.get(k - 1, 0), dims[k], entries)
        for k, entries in mats.items()})
    levels = [lvl for _, lvl in cells.values()]
    filtration = {
        p: {k: BitSubspace.span(n, [1 << index[c] for c, (kc, lvl) in cells.items()
                                    if kc == k and lvl <= p])
            for k, n in dims.items()}
        for p in range(min(levels), max(levels) + 1)
    }
    return FilteredComplex.from_subspaces(cx, filtration)


def _profile_oracle(fc):
    """The weight profile from cycles and boundaries, without pairing."""
    cx = fc.complex
    p_min, p_max = fc.p_range
    out = {}
    for k in cx.degrees():
        cycles, bdries = cx.cycles(k), cx.boundaries(k)
        out[k] = {p: cycles.intersect(fc.level(p, k)).sum(bdries).dim - bdries.dim
                  for p in range(p_min - 1, p_max + 1)}
    return out


def _assert_matches_oracle(fc):
    """Dimensions against entries on every spot of the level range, the
    weight profile against cycles and boundaries, the collapse page
    against the walk over the reindexed pages, and the Euler
    characteristic of each row of Ẽ² against its column of E⁰."""
    ss = SpectralSequence(fc)
    for r in range(0, ss.r_inf + 2):
        for k in ss.cx.degrees():
            for p in range(ss.p_min, ss.p_max + 1):
                assert ss.dim(r, p, k - p) == ss.entry(r, p, k - p).dim, (r, p, k)
    assert weight_profile(ss) == _profile_oracle(fc)
    assert purity_collapse_report(ss, 0).collapse_page == oracle_collapse_page(
        lambda r: reindexed_page(ss, r), ss.r_inf)
    # Row q' of Ẽ² against euler_poincare.  Levels are lowered by s, the
    # highest, so that no row falls in a negative degree: row q' moves to
    # degree q' + s, its sign flipped when s is odd.
    s = max([0, *(p for at in fc.levels.values() for p in at)])
    rows = Counter()
    for (pp, qq), d in reindexed_page(ss, 2).items():
        rows[qq + s] += -d if (pp + s) % 2 else d
    lowered = {k: tuple(p - s for p in at) for k, at in fc.levels.items()}
    assert euler_poincare(lowered) == Poly.make([rows[q] for q in range(max(rows, default=-1) + 1)])
    return ss


def _as_built_or_conjugated(fc, seed):
    return fc if seed is None else _conjugated(fc, seed)


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_drop_of_three_lives_to_page_three(seed):
    # a 1-cell at level 3 whose boundary is a 0-cell at level 0
    fc = _prescribed({"x": (0, 0), "y": (1, 3)}, {"y": "x"})
    ss = _assert_matches_oracle(_as_built_or_conjugated(fc, seed))
    assert ss.r_inf == 4
    for r in (0, 1, 2, 3):
        assert ss.page(r) == {(0, 0): 1, (3, -2): 1}
        assert ss.differential(r, 3, -2).is_zero() == (r != 3)
    assert ss.page(4) == ss.infinity_page() == {}
    assert purity_collapse_report(ss, 1).collapse_page == 5
    assert weight_profile(ss) == {0: {p: 0 for p in range(-1, 4)},
                                  1: {p: 0 for p in range(-1, 4)}}


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_staircase_pages_and_differentials(seed):
    # pairs across gaps 1, 1 and 2 in two degrees, and one survivor c
    fc = _prescribed(
        {"a": (0, 0), "b": (0, 1), "c": (0, 0),
         "u": (1, 1), "v": (1, 2), "w": (1, 1), "s": (2, 3)},
        {"u": "a", "v": "b", "s": "w"})
    ss = _assert_matches_oracle(_as_built_or_conjugated(fc, seed))
    assert ss.bars() == Counter({(0, 0, 1): 1, (0, 1, 2): 1, (1, 1, 3): 1, (0, 0, None): 1})
    assert ss.page(1) == {(0, 0): 2, (1, -1): 1, (1, 0): 2, (2, -1): 1, (3, -1): 1}
    assert ss.page(2) == {(0, 0): 1, (1, 0): 1, (3, -1): 1}
    assert ss.page(3) == ss.page(4) == ss.infinity_page() == {(0, 0): 1}
    assert ss.differential(1, 1, 0).rank() == 1    # u -> a
    assert ss.differential(1, 2, -1).rank() == 1   # v -> b
    assert ss.differential(2, 3, -1).rank() == 1   # s -> w
    assert all(ss.differential(3, p, q).is_zero() for (p, q) in ss.page(3))
    assert purity_collapse_report(ss, 2).collapse_page == 4
    assert weight_profile(ss) == {
        0: {-1: 0, 0: 1, 1: 1, 2: 1, 3: 1},
        1: {p: 0 for p in range(-1, 4)},
        2: {p: 0 for p in range(-1, 4)},
    }


@st.composite
def prescribed_complexes(draw):
    """A conjugated complex of prescribed pairs and survivors, and the
    (degree, level, gap) of each cell, with gap None for a survivor."""
    top_level = draw(st.integers(0, 3))
    cells, boundary, expected = {}, {}, []
    for i in range(draw(st.integers(0, 5))):
        k = draw(st.integers(1, 3))
        a = draw(st.integers(0, top_level))
        b = draw(st.integers(a, top_level))
        cells[f"x{i}"], cells[f"y{i}"] = (k - 1, a), (k, b)
        boundary[f"y{i}"] = f"x{i}"
        expected += [(k - 1, a, b - a), (k, b, b - a)]
    for i in range(draw(st.integers(0 if cells else 1, 3))):
        k, lvl = draw(st.integers(0, 3)), draw(st.integers(0, top_level))
        cells[f"z{i}"] = (k, lvl)
        expected.append((k, lvl, None))
    seed = draw(st.integers(0, 2**16))
    return _conjugated(_prescribed(cells, boundary), seed), expected


@settings(max_examples=60, deadline=None)
@given(prescribed_complexes())
def test_pairing_matches_subspace_engine_on_prescribed_pairs(case):
    fc, expected = case
    ss = _assert_matches_oracle(fc)
    for r in range(0, ss.r_inf + 2):
        want = {}
        for k, lvl, gap in expected:
            if gap is None or gap >= r:
                want[(lvl, k - lvl)] = want.get((lvl, k - lvl), 0) + 1
        assert ss.page(r) == want, r
        for p, q in ss.page(r):
            out = ss.differential(r, p, q)
            inc = ss.differential(r, p + r, q - r + 1)
            if out.cols and inc.cols:
                assert out.mul(inc).is_zero()


def _transported(fc, seed):
    """fc carried through a random change of coordinates in each degree:
    coordinate flags, as in the prescribed complexes, become flags whose
    adapted basis is not the unit basis."""
    rng = random.Random(seed)
    cx = fc.complex
    gs = {}
    for k in cx.degrees():
        n = cx.dim(k)
        columns = [1 << i for i in range(n)]
        for _ in range(3 * n):  # elementary column operations
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                columns[i] ^= columns[j]
        gs[k] = BitMatrix.from_columns(n, columns)
    boundary = {k: gs[k - 1].mul(cx.d(k)).mul(gs[k].inverse())
                for k in cx.degrees() if cx.dim(k - 1)}
    return FilteredComplex.from_subspaces(ChainComplex.make(dict(cx.dims), boundary), {
        p: {k: image_of_subspace(gs[k], fc.level(p, k)) for k in cx.degrees()}
        for p in range(fc.p_range[0], fc.p_range[1] + 1)})


def _in_adapted_coordinates(fc):
    """fc written in its own adapted bases: the same filtration on the unit
    basis, with the columns of ``boundary_columns`` as the boundary."""
    cx = fc.complex
    return FilteredComplex(ChainComplex.make(dict(cx.dims), {
        k: BitMatrix.from_columns(cx.dim(k - 1), fc.boundary_columns(k))
        for k in cx.degrees() if cx.dim(k - 1)}), fc.p_range, None, dict(fc.levels))


@settings(max_examples=60, deadline=None)
@given(prescribed_complexes(), st.booleans(), st.integers(0, 2**16))
def test_relative_cycles_match_level_and_preimage(case, unit_basis, seed):
    # p and t run two past each end of the level range and k one past each
    # end of the degrees, so a degree with no vectors sits beside one with
    # some; the prescribed complexes may also leave a degree empty inside.
    fc = _in_adapted_coordinates(case[0]) if unit_basis else _transported(case[0], seed)
    ks = fc.complex.degrees()
    levels = range(fc.p_range[0] - 2, fc.p_range[1] + 3)
    for k in range(ks[0] - 1, ks[-1] + 2):
        for p in levels:
            for t in levels:
                assert fc.relative_cycles(p, t, k) == relative_cycles_oracle(fc, p, t, k), (p, t, k)
    assert deligne_shift(fc) == deligne_shift_oracle(fc)


def test_entries_and_the_shift_need_no_preimage_or_intersection(capsys, monkeypatch):
    data = Path(weightlab.__file__).parent / "data"
    argvs = [["check", "--suite", "fcomplex"],
             ["cubical-ss", "--hyperres", str(data / "hyperres_wedge2.json")]]
    want = []
    for argv in argvs:
        assert main(argv) == 0
        want.append(capsys.readouterr())

    # From here gf2.preimage and BitSubspace.intersect raise when weightlab
    # calls them; the tests' own oracles may still call them.
    def refused(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].split(".")[0] == "weightlab":
                raise AssertionError(f"weightlab called {fn.__qualname__}")
            return fn(*args, **kwargs)
        return wrapper

    original = gf2.preimage
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "weightlab" and getattr(module, "preimage", None) is original:
            monkeypatch.setattr(module, "preimage", refused(original))
    monkeypatch.setattr(BitSubspace, "intersect", refused(BitSubspace.intersect))
    for argv, (out, err) in zip(argvs, want):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, err), argv
    # a pair two levels apart, u -> a, in adapted bases of vectors such as e0 + e2
    fc = _transported(_prescribed(
        {"a": (0, 0), "b": (0, 1), "c": (0, 2), "u": (1, 2), "v": (1, 1), "w": (1, 2)},
        {"u": "a", "v": "b"}), 1)
    assert fc.basis == {0: (0b101, 0b010, 0b100), 1: (0b111, 0b010, 0b100)}
    assert _assert_matches_oracle(fc).differential(2, 2, -1).rank() == 1


@pytest.mark.parametrize("variant", ["toric", "shifted", "canonical"])
@pytest.mark.parametrize("name", sorted(fan_corpus()))
def test_pairing_matches_subspace_engine_on_fans(name, variant):
    fc = toric_cell_complex(fan_corpus()[name]).filtered
    if variant == "shifted":
        fc = deligne_shift(fc)
    elif variant == "canonical":
        fc = canonical_filtration(fc.complex)
    _assert_matches_oracle(fc)


@pytest.mark.parametrize("name", sorted(all_hyperres()))
def test_pairing_matches_subspace_engine_on_hyperres(name):
    _assert_matches_oracle(skeleton_filtration(all_hyperres()[name]))


_COSET_FANS = {
    **fan_corpus(),
    "P6": standard_fan("P", 6),
    **{f"trivial{n}": standard_fan("trivial", n) for n in range(1, 8)},
}


@pytest.mark.parametrize("name", sorted(_COSET_FANS))
def test_toric_levels_are_coset_spans(name):
    # The build's levels, written in the cell basis, against the paper's
    # definition: T_{-q} is spanned by the indicators of the cosets of the
    # subgroups generated by q standard generators of each orbit group.
    # Both the augmentation-basis levels, carried to the cells by the
    # subset-sum oracle, and the levels of the cell-basis build are checked.
    fan = _COSET_FANS[name]
    tcc = toric_cell_complex(fan)
    fc = tcc.filtered
    p_min, p_max = fc.p_range
    for k in fc.complex.degrees():
        n = fc.complex.dim(k)
        cids = [cid for cid in fan.cone_ids() if fan.codim(cid) == k]
        order = _level_order(k, len(cids))
        for p in range(p_min - 1, p_max + 2):
            cosets = BitSubspace.span(
                n, [v for cid in cids for v in coset_indicators(tcc, cid, max(-p, 0))])
            assert BitSubspace.span(n, [
                augmentation_to_cells(order, k, v) for v in fc.level(p, k).basis
            ]) == cosets, (p, k)
            assert tcc.cell_filtered.level(p, k) == cosets, (p, k)
    _assert_matches_oracle(fc)


def test_a_changed_page_leaves_the_memo_as_it_was():
    ss = SpectralSequence(toric_filtered("P", 2))
    page = ss.page(1)
    want = dict(page)
    page[next(iter(page))] += 1
    page[(99, 99)] = 7
    assert ss.page(1) == want
    ss.page(1).clear()
    assert ss.page(1) == want


# ---------------------------------------------------------------------------
# Künneth: the bars of a product fan from the bars of its factors


def _bars(fan):
    return SpectralSequence(toric_cell_complex(fan).filtered).bars()


_KUNNETH_FACTORS = {
    **fan_corpus(),
    **{f"{family}:{n}": standard_fan(family, n)
       for family in ("P", "A", "trivial", "hirzebruch") for n in range(4)},
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(_KUNNETH_FACTORS)), min_size=2, max_size=3)
       .filter(lambda names: sum(_KUNNETH_FACTORS[f].n for f in names) <= 4))
@example(["cone_over_square", "P:1"])
@example(["weighted_p112", "A:2"])
@example(["P1xP1", "A:1"])
@example(["P:1", "P:1", "A:1"])
@example(["P:2", "P:2"])
@example(["hirzebruch:3", "P:3"])  # rank 5, past the drawn products
def test_product_bars_follow_from_the_factors(names):
    fans = [_KUNNETH_FACTORS[name] for name in names]
    assert _bars(reduce(product_fan, fans)) == reduce(kunneth_bars, map(_bars, fans))


@pytest.mark.parametrize("left, right", [
    pytest.param(f1, f2, id=label) for label, f1, f2 in product_pairs()])
def test_product_pair_bars_follow_from_the_factors(left, right):
    assert _bars(product_fan(left, right)) == kunneth_bars(_bars(left), _bars(right))


def test_affine_space_is_a_power_of_the_line():
    line = _bars(standard_fan("A", 1))
    assert line == Counter({(0, 0, 0): 1, (1, -1, None): 1})
    for k in range(1, 9):
        assert _bars(standard_fan("A", k)) == reduce(kunneth_bars, [line] * k), k
