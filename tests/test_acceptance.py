"""Acceptance gate: one test (and one pass/fail line) per criterion.

Each criterion is exact — no tolerances — and the stated runtime budget
is enforced inside the test.  Criterion 12 (non-collapse) runs on the
Bergman fan of the Fano plane, or on the fan document that the
WEIGHTLAB_FANO_FAN environment variable points at; see the README.
"""

import json
import os
import random
import time
from contextlib import contextmanager
from math import comb

from weightlab.checks import (
    ToricCorpus,
    check_collapse_low_dim,
    check_fold_pushforward,
    check_hyperres_compare,
    check_link_idempotence,
    check_orbit_additivity,
    check_purity_smooth_complete,
    coset_indicators,
    random_simplicial_complex,
)
from weightlab.complexes import canonical_filtration
from weightlab.cubical import (
    is_acyclic,
    simple_filtered,
)
from weightlab.euler import CellChain, chain_boundary
from weightlab.fixtures import (
    fan_corpus,
    klein_square,
    product_pairs,
)
from weightlab.gf2 import BitMatrix, BitSubspace, Quotient
from weightlab.pages import (
    SpectralSequence,
    reindexed_page,
    virtual_poincare,
)
from weightlab.toric import (
    _level_order,
    cell_counts,
    orbit_group,
    parse_fan,
    product_fan,
    standard_fan,
    toric_cell_complex,
)

from oracles import (
    augmentation_to_cells,
    bergman_fan_doc,
    betti_numbers,
    from_dense,
    kunneth_bars,
    matrix_to_dense,
)


@contextmanager
def budget(criterion, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s ({elapsed:.1f}s)"
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_01_binomial_filtration_dims():
    with budget(1, 1.0):
        for k in range(1, 6):
            tcc = toric_cell_complex(standard_fan("trivial", k))
            fc = tcc.filtered
            for q in range(k + 1):
                lo = fc.level(-q - 1, k).dim
                hi = fc.level(-q, k).dim
                assert hi - lo == comb(k, q), (k, q)
                cosets = BitSubspace.span(2**k, coset_indicators(tcc, "0", q))
                assert BitSubspace.span(2**k, [
                    augmentation_to_cells(_level_order(k, 1), k, v)
                    for v in fc.level(-q, k).basis]) == cosets, (k, q)
                assert tcc.cell_filtered.level(-q, k) == cosets, (k, q)


def test_criterion_02_group_algebra_dims():
    with budget(2, 1.0):
        for k in range(6):
            fan = standard_fan("trivial", k)
            assert 2 ** orbit_group(fan, "0").dim == 2**k
        for name, fan in fan_corpus().items():
            cx = toric_cell_complex(fan).complex
            expected: dict[int, int] = {}
            for cid in fan.cone_ids():
                c = fan.codim(cid)
                expected[c] = expected.get(c, 0) + 2**c
            assert {k: cx.dim(k) for k in cx.degrees()} == expected, name


def test_criterion_03_homology_oracles():
    cases = {
        "P1": (standard_fan("P", 1), (1, 1)),
        "P2": (standard_fan("P", 2), (1, 1, 1)),
        "P1xP1": (product_fan(standard_fan("P", 1), standard_fan("P", 1)), (1, 2, 1)),
    }
    for a in range(4):
        cases[f"hirzebruch{a}"] = (standard_fan("hirzebruch", a), (1, 2, 1))
    with budget(3, 5.0):
        for name, (fan, expected) in cases.items():
            tc = toric_cell_complex(fan)
            dense = {k: matrix_to_dense(m) for k, m in tc.complex.boundary.items()}
            oracle = betti_numbers(dict(tc.complex.dims), dense)
            assert tuple(oracle.get(k, 0) for k in range(len(expected))) == expected, name
            # the limit page must carry the same numbers on anti-diagonals
            by_degree: dict[int, int] = {}
            for (p, q), d in SpectralSequence(tc.filtered).infinity_page().items():
                by_degree[p + q] = by_degree.get(p + q, 0) + d
            assert tuple(by_degree.get(k, 0) for k in range(len(expected))) == expected, name


def _assert_passes(check):
    """Run one registered check on a corpus of its own."""
    result = check(ToricCorpus())
    assert result.ok, result.detail


def test_criterion_04_purity_smooth_complete():
    with budget(4, 30.0):
        _assert_passes(check_purity_smooth_complete)


def test_criterion_05_collapse_through_dim_3():
    with budget(5, 60.0):
        _assert_passes(check_collapse_low_dim)


def test_criterion_06_orbit_additivity():
    with budget(6, 60.0):
        _assert_passes(check_orbit_additivity)


def test_criterion_07_multiplicativity():
    with budget(7, 60.0):
        for name, f1, f2 in product_pairs():
            ss1, ss2, prod = (SpectralSequence(toric_cell_complex(f).filtered)
                              for f in (f1, f2, product_fan(f1, f2)))
            assert virtual_poincare(prod) == virtual_poincare(ss1) * virtual_poincare(ss2), name
            assert prod.bars() == kunneth_bars(ss1.bars(), ss2.bars()), name


def test_criterion_08_support_triangle():
    with budget(8, 60.0):
        for name, fan in fan_corpus().items():
            ss = SpectralSequence(toric_cell_complex(fan).filtered)
            d = fan.n
            for r in range(1, ss.r_inf + 2):
                for (p, q) in ss.page(r):
                    assert p <= 0 and -2 * p <= q <= d - p, (name, r, p, q)


def test_criterion_09_euler_calculus():
    with budget(9, 30.0):
        # L(L) = 2L on random complexes and functions
        _assert_passes(check_link_idempotence)
        # chain boundary against the incidence-matrix oracle
        rng = random.Random(9)
        for _ in range(200):
            cx = random_simplicial_complex(rng)
            k = rng.randint(1, max(1, cx.top_dim()))
            cells = cx.cells(k)
            members = frozenset(c for c in cells if rng.random() < 0.5)
            bd = chain_boundary(CellChain(cx, k, members))
            m = cx.boundary_matrix(k)
            x = sum(1 << j for j, c in enumerate(cells) if c in members)
            y = m.mul_vec(x)
            rows = cx.cells(k - 1)
            assert bd.members == {rows[i] for i in range(len(rows)) if (y >> i) & 1}
        # fold-map pushforwards on torus products, k <= 4, all subsets S
        _assert_passes(check_fold_pushforward)


def _homology_map(src, dst, maps, degrees=range(3)):
    """Matrix of the induced map on mod-2 homology, degree by degree."""
    out = {}
    for k in degrees:
        hs = Quotient(src.cycles(k), src.boundaries(k))
        hd = Quotient(dst.cycles(k), dst.boundaries(k))
        f = maps.get(k, BitMatrix.zero(dst.dim(k), src.dim(k)))
        cols = [hd.coords(f.mul_vec(rep)) for rep in hs.reps]
        out[k] = BitMatrix.from_columns(hd.dim, cols)
    return out


def test_criterion_10_acyclic_square():
    with budget(10, 60.0):
        square = klein_square()
        assert is_acyclic(SpectralSequence(simple_filtered(square)))
        # induced homology maps of the square; masks: 0 = base surface,
        # 1 = double cover piece, 2 = point, 3 = circle over the point
        cxs = {s: square.objects[s].complex for s in range(4)}
        dims = {s: [cxs[s].betti(k) for k in range(3)] for s in range(4)}
        assert dims[1] == [1, 2, 1] and dims[0] == [1, 1, 1]
        assert dims[3] == [1, 1, 0] and dims[2] == [1, 0, 0]
        f31 = _homology_map(cxs[3], cxs[1], {
            k: square.map_between(3, 1, k) for k in cxs[3].degrees()})
        f32 = _homology_map(cxs[3], cxs[2], {
            k: square.map_between(3, 2, k) for k in cxs[3].degrees()})
        f10 = _homology_map(cxs[1], cxs[0], {
            k: square.map_between(1, 0, k) for k in cxs[1].degrees()})
        f20 = _homology_map(cxs[2], cxs[0], {
            k: square.map_between(2, 0, k) for k in cxs[2].degrees()})
        # 0 -> H(circle) -> H(cover) + H(point) -> H(base) -> 0, each degree
        for k in range(3):
            a1, a2 = f31[k], f32[k]
            b1, b2 = f10[k], f20[k]
            alpha = from_dense(
                [row for m in (a1, a2) for row in
                 [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]],
                cols=a1.cols,
            )
            mid = a1.rows + a2.rows
            # beta acts on the direct sum: (x, y) -> b1 x + b2 y
            beta_dense = [
                [b1.entry(i, j) for j in range(b1.cols)]
                + [b2.entry(i, j) for j in range(b2.cols)]
                for i in range(b1.rows)
            ]
            beta = from_dense(beta_dense, cols=b1.cols + b2.cols)
            h_circle = a1.cols
            h_base = b1.rows
            # exactness rank-by-rank
            assert alpha.rank() == h_circle, k                       # injective
            assert beta.rank() == h_base, k                          # surjective
            assert alpha.rank() + beta.rank() == mid, k              # middle
            if alpha.cols and beta.cols:
                assert beta.mul(alpha).is_zero(), k                  # composite


def test_criterion_11_deligne_comparison():
    with budget(11, 60.0):
        _assert_passes(check_hyperres_compare)


FANO_LINES = ["013", "124", "235", "346", "450", "561", "602"]


def test_criterion_12_fano_non_collapse():
    path = os.environ.get("WEIGHTLAB_FANO_FAN")
    if path:
        with open(path) as fh:
            fan = parse_fan(json.load(fh))
    else:
        fan = parse_fan(bergman_fan_doc(FANO_LINES))
    ss = SpectralSequence(toric_cell_complex(fan).filtered)
    if not path:
        # 36 cones and 848 cells, and one bar of positive length: d^1 kills it.
        assert len(fan.cones) == 36 and sum(cell_counts(fan).values()) == 848
        assert {bar: m for bar, m in ss.bars().items()
                if bar[2] is not None and bar[2] > bar[1]} == {(4, -4, -3): 1}
    assert reindexed_page(ss, 2) != reindexed_page(ss, 3)
    print("criterion 12: PASS (non-collapse observed)")
