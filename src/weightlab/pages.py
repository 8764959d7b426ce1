"""Spectral sequence of a filtered GF(2) chain complex.

Page dimensions come from one persistence reduction.  The filtered
complex stores an adapted basis of each degree, in which F_p is spanned
by the basis vectors of level <= p; the boundary, written in these
bases, is reduced once, column by column in order of level.  The reduction pairs a vector x at level a
with a vector y at level b >= a, one degree up, where ∂y = x in a
filtration-compatible change of basis.  Such a pair lives on E^r, at
both of its ends, exactly while r <= b - a (its gap), and d^{b-a} kills
it; an unpaired vector survives to E^∞.  So dim E^r_{p,q} counts the
degree p+q vectors at level p that are unpaired or paired across a gap
of at least r, and the weight filtration of homology counts the unpaired
vectors at level <= p (Edelsbrunner–Harer, *Computational Topology*,
ch. VII).

Entries and differentials come from the defining subspaces

    Z^r_{p,q} = F_p K_{p+q} ∩ ∂⁻¹(F_{p-r} K_{p+q-1})
    E^r_{p,q} = Z^r_{p,q} / (Z^{r-1}_{p-1,q+1} + ∂ Z^{r-1}_{p+r-1,q-r+2})

with F_p zero below the level range and everything above it, so the same
formulas are valid on every page including r = 0.  Differentials are
returned as explicit matrices in the canonical quotient bases, which is
what makes page-by-page regression tests and homology cross-checks
meaningful; ``entry(r, p, q).dim`` is the oracle for ``dim(r, p, q)``.

The weight-style reuse of the first page goes through
:func:`reindexed_page`: the (r+1)-st reindexed page at (2p+q, -p) is the
r-th page at (p, q), and homological invariants (weight profile,
virtual Betti numbers) read off the second reindexed page.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .complexes import FilteredComplex, deligne_shift
from .gf2 import BitMatrix, BitSubspace, Quotient, image_of_subspace, preimage
from .poly import Poly

# The gap recorded for a vector the reduction leaves unpaired.
UNPAIRED = math.inf


def _persistence_bars(fc: FilteredComplex) -> dict[tuple[int, int], Counter]:
    """{(degree, level): Counter(gap -> number of basis vectors)}.

    The gap of a paired vector is the level difference of its pair, the
    gap of an unpaired vector is ``UNPAIRED``.  Degrees are reduced from
    the top down, and a column whose vector is already the lower end of
    a pair is skipped: its reduced column would be zero.
    """
    cx = fc.complex
    gaps: dict[tuple[int, int], int] = {}
    for k in sorted(cx.degrees(), reverse=True):
        if not cx.dim(k - 1):
            continue
        levels, row_levels = fc.levels[k], fc.levels[k - 1]
        d = cx.d(k)
        reduced: dict[int, int] = {}  # lowest row index -> reduced column
        for j, a in enumerate(fc.basis[k]):
            if (k, j) in gaps:
                continue
            col = fc.coordinates(k - 1, d.mul_vec(a))
            while col:
                low = col.bit_length() - 1
                if low not in reduced:
                    reduced[low] = col
                    gaps[(k, j)] = gaps[(k - 1, low)] = levels[j] - row_levels[low]
                    break
                col ^= reduced[low]
    bars: dict[tuple[int, int], Counter] = {}
    for k in cx.degrees():
        for i, p in enumerate(fc.levels[k]):
            bars.setdefault((k, p), Counter())[gaps.get((k, i), UNPAIRED)] += 1
    return bars


@dataclass(frozen=True)
class PageEntry:
    """One spot E^r_{p,q}, with its canonical quotient presentation."""

    p: int
    q: int
    quotient: Quotient

    @property
    def dim(self) -> int:
        return self.quotient.dim


class SpectralSequence:
    """Lazy page-by-page computation for a filtered complex.

    Dimensions read one persistence reduction, made on first use;
    entries and differentials are computed from the defining subspaces.
    """

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.cx = fc.complex
        p_min, p_max = fc.p_range
        self.p_min, self.p_max = p_min, p_max
        # Differentials vanish for r > p_max - p_min, and one more page
        # stabilizes the groups.
        self.r_inf = (p_max - p_min) + 1
        self._preimage_cache: dict[tuple[int, int], BitSubspace] = {}
        self._z_cache: dict[tuple[int, int, int], BitSubspace] = {}
        self._entry_cache: dict[tuple[int, int, int], PageEntry] = {}
        self._bars: dict[tuple[int, int], Counter] | None = None

    def bars(self) -> dict[tuple[int, int], Counter]:
        """The persistence reduction, see :func:`_persistence_bars`."""
        if self._bars is None:
            self._bars = _persistence_bars(self.fc)
        return self._bars

    # -- core subspaces ----------------------------------------------------

    def _preimage(self, k: int, level: int) -> BitSubspace:
        """∂_k-preimage of F_level in degree k-1, clamped and cached."""
        level = max(min(level, self.p_max), self.p_min - 1)
        key = (k, level)
        if key not in self._preimage_cache:
            self._preimage_cache[key] = preimage(
                self.cx.d(k), self.fc.level(level, k - 1))
        return self._preimage_cache[key]

    def z(self, r: int, p: int, q: int) -> BitSubspace:
        """Approximate cycles Z^r_{p,q} (meaningful for r >= -1)."""
        key = (r, p, q)
        if key not in self._z_cache:
            k = p + q
            self._z_cache[key] = self.fc.level(p, k).intersect(
                self._preimage(k, p - r))
        return self._z_cache[key]

    def entry(self, r: int, p: int, q: int) -> PageEntry:
        key = (r, p, q)
        if key not in self._entry_cache:
            num = self.z(r, p, q)
            below = self.z(r - 1, p - 1, q + 1)
            incoming = image_of_subspace(
                self.cx.d(p + q + 1), self.z(r - 1, p + r - 1, q - r + 2))
            den = below.sum(incoming)
            self._entry_cache[key] = PageEntry(p, q, Quotient(num, den))
        return self._entry_cache[key]

    def dim(self, r: int, p: int, q: int) -> int:
        """dim E^r_{p,q}: vectors of degree p+q at level p whose pair
        spans a gap of at least r."""
        bars = self.bars().get((p + q, p), {})
        return sum(n for gap, n in bars.items() if gap >= r)

    # -- page-level views ----------------------------------------------------

    def support(self) -> list[tuple[int, int]]:
        """All (p, q) that can possibly carry a nonzero group."""
        out = []
        for k in self.cx.degrees():
            if self.cx.dim(k) == 0:
                continue
            for p in range(self.p_min, self.p_max + 1):
                out.append((p, k - p))
        return sorted(set(out))

    def page(self, r: int) -> dict[tuple[int, int], int]:
        """Nonzero dimensions on page r, keyed by (p, q)."""
        return {
            (p, q): d
            for p, q in self.support()
            if (d := self.dim(r, p, q))
        }

    def differential(self, r: int, p: int, q: int) -> BitMatrix:
        """d^r: E^r_{p,q} -> E^r_{p-r, q+r-1} in the canonical bases."""
        src = self.entry(r, p, q)
        dst = self.entry(r, p - r, q + r - 1)
        d = self.cx.d(p + q)
        cols = []
        for rep in src.quotient.reps:
            cols.append(dst.quotient.coords(d.mul_vec(rep)))
        return BitMatrix.from_columns(dst.dim, cols)

    def differentials(self, r: int) -> dict[tuple[int, int], BitMatrix]:
        out = {}
        for (p, q), _ in self.page(r).items():
            m = self.differential(r, p, q)
            if not m.is_zero():
                out[(p, q)] = m
        return out

    def infinity_page(self) -> dict[tuple[int, int], int]:
        return self.page(self.r_inf)


# ---------------------------------------------------------------------------
# Reindexed (weight-style) pages


def reindexed_page(ss: SpectralSequence, r: int) -> dict[tuple[int, int], int]:
    """Page r in the reindexed coordinates p' = 2p+q, q' = -p, r' = r+1.

    ``reindexed_page(ss, r+1)`` equals ``ss.page(r)`` transported along
    the coordinate change; only r >= 1 is meaningful.
    """
    if r < 1:
        raise ValueError("reindexed pages start at r = 1")
    out = {}
    for (p, q), d in ss.page(r - 1).items():
        out[(2 * p + q, -p)] = d
    return out


def reindexed_differential(
    ss: SpectralSequence, r: int, pp: int, qq: int
) -> BitMatrix:
    """d^r on the reindexed page at (p', q'); lands at (p'-r, q'+r-1)."""
    p, q = -qq, pp + 2 * qq
    return ss.differential(r - 1, p, q)


def reindexed_infinity(ss: SpectralSequence) -> dict[tuple[int, int], int]:
    return reindexed_page(ss, ss.r_inf + 1)


def weight_profile(ss: SpectralSequence) -> dict[int, dict[int, int]]:
    """Dimensions of the induced filtration on homology.

    Returns {degree: {p: dim of the image of F_p-cycles in H_degree}};
    only levels where the dimension jumps relative to p-1 need appear,
    but all levels in range are reported for regularity.  The image of
    the F_p-cycles is spanned by the unpaired vectors of level <= p.
    """
    bars = ss.bars()
    out: dict[int, dict[int, int]] = {}
    for k in ss.cx.degrees():
        by_p, total = {}, 0
        for p in range(ss.p_min - 1, ss.p_max + 1):
            total += bars.get((k, p), {}).get(UNPAIRED, 0)
            by_p[p] = total
        out[k] = by_p
    return out


def virtual_poincare(ss: SpectralSequence) -> Poly:
    """Alternating sums over the second reindexed page, as a polynomial.

    The t^q coefficient is Σ_p (-1)^p dim Ẽ²_{p,q}.  For the geometric
    filtrations this is an additive (cut-and-paste) invariant; the
    coefficients can be negative for non-pure inputs.
    """
    page2 = reindexed_page(ss, 2)
    coeffs: dict[int, int] = {}
    for (pp, qq), d in page2.items():
        coeffs[qq] = coeffs.get(qq, 0) + (d if pp % 2 == 0 else -d)
    if not coeffs:
        return Poly.zero()
    top = max(coeffs)
    if min(coeffs) < 0:
        raise ValueError("reindexed page supported in negative degrees")
    return Poly.make([coeffs.get(i, 0) for i in range(top + 1)])


@dataclass(frozen=True)
class PurityReport:
    is_pure: bool
    collapse_page: int
    pages: dict[int, dict[tuple[int, int], int]]
    support_ok: bool


def purity_collapse_report(
    ss: SpectralSequence, ambient_dim: int, reindexed: bool = True
) -> PurityReport:
    """Purity (everything in reindexed column p' = 0), degeneration page,
    and the support-triangle check.

    The collapse page is the least r >= 2 whose reindexed page already
    equals the limit page.  The support check verifies p <= 0 and
    -2p <= q <= ambient_dim - p in the native coordinates, equivalently
    p' >= 0, q' >= 0, p' + q' <= ambient_dim after reindexing.
    """
    limit = reindexed_infinity(ss)
    pages = {}
    collapse = None
    for r in range(2, ss.r_inf + 2):
        pg = reindexed_page(ss, r)
        pages[r] = pg
        if collapse is None and pg == limit:
            collapse = r
    if collapse is None:
        collapse = ss.r_inf + 1
    page2 = pages[2]
    is_pure = all(pp == 0 for (pp, qq) in page2)
    support_ok = all(
        pp >= 0 and qq >= 0 and pp + qq <= ambient_dim for (pp, qq) in page2
    )
    if not reindexed:
        pages = {r - 1: {(-qq, pp + 2 * qq): d for (pp, qq), d in pg.items()}
                 for r, pg in pages.items()}
    return PurityReport(is_pure, collapse, pages, support_ok)


def transported_page(ss: SpectralSequence, r: int) -> dict[tuple[int, int], int]:
    """Page r of ss read off in shifted coordinates: the value at (p, q)
    is the original entry at (2p+q, -p)."""
    out = {}
    for (P, Q), d in ss.page(r).items():
        out[(-Q, P + 2 * Q)] = d
    return out


def decalage_mismatches(ss: SpectralSequence) -> tuple[tuple[int, int, int, int, int], ...]:
    """Compare the pages of ``ss`` with those of the shifted (décalée)
    filtration on the same complex, as (r, p, q, got, want) mismatches.

    For every r >= 1 the shifted page at (p, q) must equal the original
    page r+1 transported to (2p+q, -p).  Pages run from 1 until both
    sequences are stable.
    """
    ss_dec = SpectralSequence(deligne_shift(ss.fc))
    mismatches = []
    for r in range(1, max(ss.r_inf + 1, ss_dec.r_inf) + 1):
        got = ss_dec.page(r)
        want = transported_page(ss, r + 1)
        for key in sorted(set(got) | set(want)):
            g, w = got.get(key, 0), want.get(key, 0)
            if g != w:
                mismatches.append((r, key[0], key[1], g, w))
    return tuple(mismatches)
