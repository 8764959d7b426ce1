"""Spectral sequence of a filtered GF(2) chain complex.

Page dimensions are read off one barcode.  The filtered complex stores
an adapted basis of each degree, in which F_p is spanned by the basis
vectors of level <= p; the boundary, written in these bases, is reduced
once, column by column in order of level.  The reduction pairs a vector
of degree k at level ``birth`` with a vector of degree k+1 at level
``death >= birth``, where ∂y = x in a filtration-compatible change of
basis: the bar (k, birth, death).  A vector left unpaired is the bar
(k, birth, None).  A bar lives on E^r, at both of its ends, exactly
while r <= death - birth, and d^{death-birth} kills it; an unpaired
vector survives to E^∞.  So E^r_{p,q} counts the bars with an end of
degree p+q at level p that are unpaired or at least r long, and the
weight filtration of homology counts the unpaired vectors at level <= p
(Edelsbrunner–Harer, *Computational Topology*, ch. VII).

Entries and differentials come from the defining subspaces

    Z^r_{p,q} = F_p K_{p+q} ∩ ∂⁻¹(F_{p-r} K_{p+q-1})
    E^r_{p,q} = Z^r_{p,q} / (Z^{r-1}_{p-1,q+1} + ∂ Z^{r-1}_{p+r-1,q-r+2})

with F_p zero below the level range and everything above it, so the same
formulas are valid on every page including r = 0.  Each Z^r is one kernel
of the boundary written in the adapted bases
(:meth:`FilteredComplex.relative_cycles`), with no preimage and no
intersection.  Since F_s K_j is the span of the first dim F_s K_j basis
vectors, Z^r and E^r depend on (r, p, q) only through the degree and such
prefix counts, and are cached by them: spots whose counts agree, such as
levels no vector sits at or spots past either end of the level range,
share one subspace and one quotient.  Differentials are returned as
explicit matrices in the canonical quotient bases, which is what makes
page-by-page regression tests and homology cross-checks meaningful;
``entry(r, p, q).dim`` is the oracle for ``dim(r, p, q)``.

The weight-style reuse of the first page goes through
:func:`reindexed_page`: the (r+1)-st reindexed page at (2p+q, -p) is the
r-th page at (p, q), and homological invariants (weight profile,
virtual Betti numbers) read off the second reindexed page.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .complexes import FilteredComplex, deligne_shift
from .gf2 import BitMatrix, BitSubspace, Quotient
from .poly import Poly


class SpectralSequence:
    """Lazy page-by-page computation for a filtered complex.

    Dimensions read one barcode, made on first use, and each page is
    read off it once; entries and differentials are computed from the
    defining subspaces, each built once per key of prefix counts.
    """

    def __init__(self, fc: FilteredComplex):
        self.fc = fc
        self.cx = fc.complex
        p_min, p_max = fc.p_range
        self.p_min, self.p_max = p_min, p_max
        # Differentials vanish for r > p_max - p_min, and one more page
        # stabilizes the groups.
        self.r_inf = (p_max - p_min) + 1
        self._z_cache: dict[tuple[int, int, int], BitSubspace] = {}
        self._entry_cache: dict[tuple[int, int, int, int, int], Quotient] = {}
        self._page_cache: dict[int, dict[tuple[int, int], int]] = {}
        self._bars: Counter | None = None

    def bars(self) -> Counter:
        """The barcode: {(degree, birth, death): multiplicity}, death None
        for an unpaired vector.

        Degrees are reduced from the top down, and a column whose vector
        is already the lower end of a pair is skipped: its reduced column
        would be zero.
        """
        if self._bars is None:
            fc, cx = self.fc, self.cx
            bars: Counter = Counter()
            paired: set[tuple[int, int]] = set()
            for k in sorted(cx.degrees(), reverse=True):
                if not cx.dim(k - 1):
                    continue
                levels, row_levels = fc.levels[k], fc.levels[k - 1]
                reduced: dict[int, int] = {}  # lowest row index -> reduced column
                for j, col in enumerate(fc.boundary_columns(k)):
                    if (k, j) in paired:
                        continue
                    while col:
                        low = col.bit_length() - 1
                        if low not in reduced:
                            reduced[low] = col
                            paired.update(((k, j), (k - 1, low)))
                            bars[(k - 1, row_levels[low], levels[j])] += 1
                            break
                        col ^= reduced[low]
            for k in cx.degrees():
                for i, p in enumerate(fc.levels[k]):
                    if (k, i) not in paired:
                        bars[(k, p, None)] += 1
            self._bars = bars
        return self._bars

    # -- core subspaces ----------------------------------------------------

    def z(self, r: int, p: int, q: int) -> BitSubspace:
        """Approximate cycles Z^r_{p,q} = F_p K_k ∩ ∂⁻¹(F_{p-r} K_{k-1}),
        k = p + q (meaningful for r >= -1).

        The subspace depends on (r, p, q) only through k and the two
        prefix counts dim F_p K_k and dim F_{p-r} K_{k-1}, so it is cached
        by those three: spots outside the level range, and levels no
        vector sits at, share one kernel."""
        fc, k = self.fc, p + q
        key = (k, fc.level_dim(p, k), fc.level_dim(p - r, k - 1))
        sub = self._z_cache.get(key)
        if sub is None:
            sub = self._z_cache[key] = fc.relative_cycles(p, p - r, k)
        return sub

    def entry(self, r: int, p: int, q: int) -> Quotient:
        """E^r_{p,q} with its canonical quotient presentation.

        Its three subspaces are Z^r_{p,q}, Z^{r-1}_{p-1,q+1} and
        Z^{r-1}_{p+r-1,q-r+2}, so the quotient depends on (r, p, q) only
        through k = p + q and the prefix counts dim F_p K_k,
        dim F_{p-r} K_{k-1}, dim F_{p-1} K_k and dim F_{p+r-1} K_{k+1}; it
        is cached by those five and built once per key.  The denominator
        is spanned in one elimination of the lower cycles and the
        boundaries of the incoming ones."""
        fc, k = self.fc, p + q
        key = (k, fc.level_dim(p, k), fc.level_dim(p - r, k - 1),
               fc.level_dim(p - 1, k), fc.level_dim(p + r - 1, k + 1))
        quotient = self._entry_cache.get(key)
        if quotient is None:
            num = self.z(r, p, q)
            below = self.z(r - 1, p - 1, q + 1)
            incoming = self.z(r - 1, p + r - 1, q - r + 2)
            d = self.cx.d(k + 1)
            quotient = self._entry_cache[key] = Quotient(num, BitSubspace.span(
                num.ambient_dim, below.basis + tuple(map(d.mul_vec, incoming.basis))))
        return quotient

    def dim(self, r: int, p: int, q: int) -> int:
        """dim E^r_{p,q}."""
        return self._page(r).get((p, q), 0)

    # -- page-level views ----------------------------------------------------

    def _page(self, r: int) -> dict[tuple[int, int], int]:
        """Nonzero dimensions on page r: an unpaired bar counts at its
        birth, a bar at least r long at both ends.  Made once per page."""
        if r not in self._page_cache:
            page: Counter = Counter()
            for (k, birth, death), n in self.bars().items():
                if death is None:
                    page[(birth, k - birth)] += n
                elif death - birth >= r:
                    page[(birth, k - birth)] += n
                    page[(death, k + 1 - death)] += n
            self._page_cache[r] = dict(page)
        return self._page_cache[r]

    def page(self, r: int) -> dict[tuple[int, int], int]:
        """Nonzero dimensions on page r, keyed by (p, q); each call
        returns a copy the caller may change."""
        return dict(self._page(r))

    def differential(self, r: int, p: int, q: int) -> BitMatrix:
        """d^r: E^r_{p,q} -> E^r_{p-r, q+r-1} in the canonical bases."""
        src = self.entry(r, p, q)
        dst = self.entry(r, p - r, q + r - 1)
        d = self.cx.d(p + q)
        return BitMatrix.from_columns(
            dst.dim, [dst.coords(d.mul_vec(rep)) for rep in src.reps])

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


def weight_profile(ss: SpectralSequence) -> dict[int, dict[int, int]]:
    """Dimensions of the induced filtration on homology.

    Returns {degree: {p: dim of the image of F_p-cycles in H_degree}};
    only levels where the dimension jumps relative to p-1 need appear,
    but all levels in range are reported for regularity.  The image of
    the F_p-cycles is spanned by the unpaired vectors of level <= p,
    which the limit page counts at (p, degree - p).
    """
    limit = ss.infinity_page()
    out: dict[int, dict[int, int]] = {}
    for k in ss.cx.degrees():
        by_p, total = {}, 0
        for p in range(ss.p_min - 1, ss.p_max + 1):
            total += limit.get((p, k - p), 0)
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


def euler_poincare(levels: Mapping[int, Sequence[int]]) -> Poly:
    """The polynomial of :func:`virtual_poincare`, read off E⁰: the level
    of each basis vector of each degree, as ``FilteredComplex.levels``.

    Row q' of Ẽ² is column p = -q' of E¹, and d⁰ keeps the column, so the
    row's alternating sum is the column's Euler characteristic on E⁰: the
    t^{-p} coefficient is Σ_k (-1)^(k-p) #{degree-k vectors at level p}.
    """
    coeffs: Counter = Counter()
    for k, at in levels.items():
        for p, n in Counter(at).items():
            coeffs[-p] += -n if (k - p) % 2 else n
    if any(c for q, c in coeffs.items() if q < 0):
        raise ValueError("level counts supported in negative degrees")
    return Poly.make([coeffs[q] for q in range(max(coeffs, default=-1) + 1)])


@dataclass(frozen=True)
class PurityReport:
    is_pure: bool
    collapse_page: int
    support_ok: bool


def purity_collapse_report(ss: SpectralSequence, ambient_dim: int) -> PurityReport:
    """Purity (everything in reindexed column p' = 0), degeneration page,
    and the support-triangle check.

    The collapse page is the least r >= 2 whose reindexed page already
    equals the limit page.  A bar of length g lives on the reindexed
    pages up to g + 1, so this is the longest finite bar plus 2, or 2 if
    there is none.  The support check verifies p <= 0 and
    -2p <= q <= ambient_dim - p in the native coordinates, equivalently
    p' >= 0, q' >= 0, p' + q' <= ambient_dim after reindexing.
    """
    collapse = max((death - birth + 2 for _, birth, death in ss.bars()
                    if death is not None), default=2)
    page2 = reindexed_page(ss, 2)
    is_pure = all(pp == 0 for (pp, qq) in page2)
    support_ok = all(
        pp >= 0 and qq >= 0 and pp + qq <= ambient_dim for (pp, qq) in page2
    )
    return PurityReport(is_pure, collapse, support_ok)


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
