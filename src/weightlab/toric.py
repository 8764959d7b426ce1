"""The mod-2 cellular model of a real toric variety and its filtration.

The cell complex has one k-cell (sigma, g) for every cone sigma of
codimension k and every element g of the orbit group T_sigma, the
quotient of (Z/2)^n by the mod-2 reduction of the saturated sublattice
spanned by sigma's rays.  The build computes these groups in one walk
over the cones by ascending number of rays: a cone's group is its face
without its largest ray, divided by the class u of that ray's reduction
(:func:`_quotient`).  With S the face's saturated lattice and v the ray,
S + Zv has rank one more when u is not zero, and its saturation reduces
to the span of S mod 2 and v mod 2, so the quotient is the row-echelon
insertion of v and gives the canonical group.  Only a cone whose class
u is zero, or whose face without its largest ray is not a cone, takes
the fan's span of its rays (:func:`orbit_group`, ``Fan.ray_span``, the
Smith normal form route when the reductions are dependent; see
:mod:`weightlab.lattice`).  Each group holds the class of every unit
vector e_i, so the image of a generator under a cover is a table lookup.

The filtration T_{-q} is, cone by cone, the q-th power of the
augmentation ideal of the group algebra F_2[T_sigma] (in the paper's
terms, the span of the indicators of cosets of subgroups generated by q
of the standard generators x_i).  With z_i = 1 + x_i the algebra is
F_2[z_1..z_k]/(z_i²), and the monomials a_S = ∏_{i ∈ S} z_i form an
adapted basis: a_S has level -|S| (the Jennings basis).  The build writes
the complex in this basis directly.  A cover map phi sends z_i to
1 + x^{phi(x_i)} = Σ_{∅ ≠ W ⊆ phi(x_i)} z'^W, and a_S to the product of
the images of its z_i, where z^A·z^B = z^{A ∪ B} if A ∩ B = ∅ and 0
otherwise.  These images depend only on the images of the generators,
so the covers of one degree that share them share one template of
images (:func:`_image_template`), and each image is XORed into its
column's bit vector as it is read.  For smooth fans most x_i map to one
generator or to the identity, so z_i maps to one z'_j or to 0, and most
columns have one entry or none.  The coordinates of each degree are laid
out in level order, so the filtered complex's adapted basis is the unit
basis: the persistence reduction reads the boundary's columns as they
are.  ∂∂ = 0 holds for a cellular chain complex, and the levels are a
filtration by subcomplexes, so the build makes its complex past the
checks every other construction runs; ``check --suite toric`` and the
tests run them on the build instead.  The levels of that layout
(:func:`levels`) depend on the cones' codimensions alone, and so does
the Euler characteristic of E⁰ that ``vpoly`` reads off them.

The cell basis is built only on request (:class:`ToricCellComplex`),
as the total complex (:func:`weightlab.complexes.totalize`) of one block
per cone, the group algebra F_2[T_sigma] with its cells as coordinates
in degree codim(sigma), joined by the orbit maps of the covers.  A
block's adapted basis needs no elimination: b_S = Σ_{t ⊇ S} x^t =
x^S·a_{S^c}, the indicator of the coset S + <e_i : i ∉ S>, has lowest
cell S and level |S| - k.

Fans themselves live in :mod:`weightlab.fan`; their names are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import comb
from typing import Mapping

from .complexes import ChainComplex, FilteredComplex, totalize
from .fan import (  # re-exported: callers read fans from this module too
    ZERO_ID,
    Cone,
    Fan,
    FanError,
    fan_to_doc,
    parse_fan,
    product_fan,
    standard_fan,
)
from .fan import _codims
from .gf2 import BitMatrix, _built, set_bits
from .poly import Poly


# ---------------------------------------------------------------------------
# Orbit groups


@dataclass(frozen=True)
class OrbitGroup:
    """The group (Z/2)^n / <rays of the cone>, with a chosen complement basis.

    ``free`` lists the non-pivot coordinates of the ray span; the
    standard basis vectors there are the complement — the lowest-pivot
    one, so labels are reproducible.  Elements are masks over ``free``;
    ``units[i]`` is the element represented by e_i.
    """

    dim: int
    free: tuple[int, ...]
    units: tuple[int, ...]


def orbit_group(f: Fan, cid: str) -> OrbitGroup:
    span = f.ray_span(cid)
    pivots = set(span.pivots())
    free = tuple(i for i in range(f.n) if i not in pivots)
    units = [0] * f.n
    for j, i in enumerate(free):
        units[i] = 1 << j
    for b in span.basis:  # zero in the group: e_p is b's free part, p its pivot
        units[(b & -b).bit_length() - 1] = sum(units[i] for i in free if b >> i & 1)
    return OrbitGroup(len(free), free, tuple(units))


def _quotient(g: OrbitGroup, v: int) -> OrbitGroup | None:
    """g divided by the class u of the vector v, or None when u is zero.

    With j the lowest bit of u, the generator free[j] is dropped and each
    unit x becomes x, or x ^ u when it holds bit j, with bit j removed:
    the row-echelon insertion of v into the subspace g quotients by, so
    ``free`` and ``units`` are the canonical ones of the larger subspace.
    """
    u = 0
    for i in set_bits(v):
        u ^= g.units[i]
    if not u:
        return None
    low = u & -u
    below = low - 1
    units = []
    for x in g.units:
        if x & low:
            x ^= u
        units.append(x & below | x >> 1 & ~below)
    j = low.bit_length() - 1
    return OrbitGroup(g.dim - 1, g.free[:j] + g.free[j + 1:], tuple(units))


def _orbit_groups(f: Fan) -> dict[str, OrbitGroup]:
    """The orbit group of every cone, in cone_ids() order, from one walk
    by ascending number of rays: a cone's group is the :func:`_quotient`
    of its face without its largest ray by that ray's reduction, and
    :func:`orbit_group` where that face is not a cone or the quotient is
    None."""
    lattice, reduced = f._lattice, f._spans.reduced
    by_rays = {0: OrbitGroup(f.n, tuple(range(f.n)), tuple(1 << i for i in range(f.n)))}
    groups = {}
    for i in sorted(range(len(lattice.ids)), key=lambda i: lattice.rays[i].bit_count()):
        cid, mask = lattice.ids[i], lattice.rays[i]
        if mask:
            top = mask.bit_length() - 1
            face = by_rays.get(mask ^ 1 << top)
            g = None if face is None else _quotient(face, reduced[top])
            by_rays[mask] = orbit_group(f, cid) if g is None else g
        groups[cid] = by_rays[mask]
    return {cid: groups[cid] for cid in f.cone_ids()}


def _cover_images(g_sigma: OrbitGroup, g_tau: OrbitGroup) -> tuple[int, ...]:
    """The images in T_tau of the generators of T_sigma, as masks."""
    return tuple([g_tau.units[i] for i in g_sigma.free])


# ---------------------------------------------------------------------------
# Cell complex and filtration


def _level_order(k: int, m: int) -> list[int]:
    """The coordinates of degree k of the augmentation basis, in level order.

    Degree k holds m cones of codimension k.  The monomial a_S of the c-th
    cone has block position c·2^k + S; level order lists the monomials by
    ascending level -|S|, then by cone, then by S.  Item j is the block
    position of coordinate j.
    """
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for s in range(1 << k):
        by_size[s.bit_count()].append(s)
    return [c << k | s for w in range(k, -1, -1) for c in range(m) for s in by_size[w]]


def _bit_masks(k: int) -> list[int]:
    """For each generator i < k, the positions of one block of 2^k whose
    subset does not hold i."""
    return [sum(1 << t for t in range(1 << k) if not t >> i & 1) for i in range(k)]


def _image_template(gens: tuple[int, ...],
                    without: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The images of the monomials a_S of the source of a cover whose
    generators map to the masks ``gens``, as (S, the T of the monomials
    z^T in the image) for each S with a nonzero image.

    a_S maps to the product of the images of its z_i; S holding a
    generator that maps to 1 maps to zero, so only the subsets of
    ``live`` are visited, in increasing order.
    """
    live = sum(1 << i for i, c in enumerate(gens) if c)
    images = {0: 1}
    out = [(0, (0,))]
    s = -live & live
    while s:
        low = s & -s
        img, c = images[s ^ low], gens[low.bit_length() - 1]
        if c & (c - 1):
            img = _times_image(img, c, without)
        else:  # z_i maps to the single generator z_c
            img = (img & without[c.bit_length() - 1]) << c
        images[s] = img
        if img:
            out.append((s, tuple(set_bits(img))))
        s = (s - live) & live
    return out


def _times_image(v: int, c: int, without: list[int]) -> int:
    """v · (1 + x^c) in the group algebra, both in the monomials z^T.

    1 + x^c = ∏_{j ∈ c} (1 + z_j) - 1, and z_j moves each monomial z^T
    with j not in T to z^(T + {j}), bit T to bit T + 2^j; a monomial
    that already holds j goes to zero, as z_j² = 0.
    """
    w = v
    while c:
        j = c & -c
        c ^= j
        w ^= (w & without[j.bit_length() - 1]) << j
    return w ^ v


def _cell_block(k: int) -> FilteredComplex:
    """The group algebra F_2[T] of a cone of codimension k in the cell
    basis, cell g at position g, in degree 0, with the adapted basis
    b_S = Σ_{t ⊇ S} x^t = x^S·a_{S^c}: the indicator of the coset
    S + <e_i : i ∉ S>, whose lowest cell is S and whose level is |S| - k.
    """
    a = [1]  # a[T] = Σ_{u ⊆ T} x^u, doubled once per generator of T
    for t in range(1, 1 << k):
        low = t & -t
        a.append(a[t ^ low] | a[t ^ low] << low)
    order = sorted(range(1 << k), key=int.bit_count)
    full = (1 << k) - 1
    return FilteredComplex(
        ChainComplex.make({0: 1 << k}), (-k, 0),
        {0: tuple(a[full ^ s] << s for s in order)},
        {0: tuple(s.bit_count() - k for s in order)})


@dataclass(frozen=True)
class ToricCellComplex:
    """The toric cell complex of a fan with its filtration.

    ``filtered`` is the complex written in the augmentation basis (see the
    module docstring), its coordinates in level order, so that its adapted
    basis is the unit basis; it is made past validation, which the
    registry's "toric boundary squares to zero" runs on it.
    ``cell_filtered`` is the same filtered complex in the cell basis,
    built on first use as the total complex of one group-algebra block per
    cone (:func:`_cell_block`) joined by the orbit maps of the covers, and
    validated there; ``complex`` is its chain complex, the cells of cone
    sigma at ``offsets[sigma]`` onwards in their degree.
    """

    fan: Fan
    groups: Mapping[str, OrbitGroup]
    offsets: Mapping[str, int]
    filtered: FilteredComplex

    def cell_index(self, cid: str, g: int) -> int:
        return self.offsets[cid] + g

    @property
    def complex(self) -> ChainComplex:
        return self.cell_filtered.complex

    @cached_property
    def cell_filtered(self) -> FilteredComplex:
        """A cell (sigma, g) goes to the cells (tau, phi(g)) of the cones
        tau covering sigma, phi the quotient map T_sigma -> T_tau; the
        cones of one codimension share their block."""
        f = self.fan
        # totalize places the blocks of a degree in cone_ids() order, the
        # order ``offsets`` numbers the cones of each codimension in.
        cell_blocks: dict[int, FilteredComplex] = {}
        blocks, maps = {}, {}
        for sigma in f.cone_ids():
            k = f.codim(sigma)
            if k not in cell_blocks:
                cell_blocks[k] = _cell_block(k)
            blocks[sigma] = (k, cell_blocks[k])
            for tau in f.covers(sigma):
                images = [0]  # phi(g) for g < 2^i, doubled once per generator i
                for gen in _cover_images(self.groups[sigma], self.groups[tau]):
                    images += [h ^ gen for h in images]
                maps[(sigma, tau)] = {0: BitMatrix.from_columns(
                    1 << (k - 1), [1 << h for h in images])}
        return totalize(blocks, maps)


def cell_counts(f: Fan) -> dict[int, int]:
    """The number of cells of each degree k, Σ_{codim σ = k} 2^k, from the
    cones alone; at most ``gf2.MAX_CELLS`` in all, as ``Fan`` refuses more."""
    return {k: m << k for k, m in _codims(f).items()}


def levels(f: Fan) -> dict[int, tuple[int, ...]]:
    """The level of each coordinate of each degree of the toric complex,
    in level order: degree k holds m cones of codimension k, and level -w
    C(k, w) monomials a_S of each."""
    return {k: tuple(chain.from_iterable(repeat(-w, (cells >> k) * comb(k, w))
                                         for w in range(k, -1, -1)))
            for k, cells in cell_counts(f).items()}


def toric_cell_complex(f: Fan) -> ToricCellComplex:
    layout = levels(f)
    dims = {k: len(at) for k, at in layout.items()}
    groups = _orbit_groups(f)
    by_codim: dict[int, list[str]] = {}
    for cid in f.cone_ids():
        by_codim.setdefault(f.codim(cid), []).append(cid)
    offsets = {cid: i << k for k, cids in by_codim.items() for i, cid in enumerate(cids)}
    # position[k][b]: the coordinate of block position b of degree k.
    position: dict[int, list[int]] = {}
    for k, cids in by_codim.items():
        position[k] = pos = [0] * dims[k]
        for j, b in enumerate(_level_order(k, len(cids))):
            pos[b] = j

    boundary: dict[int, BitMatrix] = {}
    for k, cids in by_codim.items():
        if k - 1 not in by_codim:
            continue
        rows_at, cols_at = position[k - 1], position[k]
        without = _bit_masks(k - 1)
        templates: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
        columns = [0] * dims[k]
        for sigma in cids:
            col0, g = offsets[sigma], groups[sigma]
            for tau in f.covers(sigma):
                row0 = offsets[tau]
                gens = _cover_images(g, groups[tau])
                template = templates.get(gens)
                if template is None:
                    template = templates[gens] = _image_template(gens, without)
                for s, ts in template:
                    col = cols_at[col0 + s]
                    for t in ts:
                        columns[col] ^= 1 << rows_at[row0 + t]
        boundary[k] = BitMatrix.from_columns(dims[k - 1], columns)

    # Valid by construction, so made past the checks that
    # checks.check_boundary_squares_zero runs; every degree and boundary is
    # nonzero, as ChainComplex.make would keep them.
    fc = _built(FilteredComplex, complex=_built(ChainComplex, dims=dims, boundary=boundary),
                p_range=(-f.max_codim(), 0), basis=None, levels=layout,
                _by_pivot={}, _spans={}, _columns={})
    return ToricCellComplex(f, groups, offsets, fc)


def orbit_sum_poly(f: Fan) -> Poly:
    """The orbit decomposition's prediction for the virtual polynomial:
    sum over cones of (t - 1)^codim.  With m_k cones of codimension k,
    the coefficient of t^j is Σ_k m_k·C(k, j)·(-1)^(k-j)."""
    cones = _codims(f)
    coeffs = [0] * (max(cones) + 1)
    for k, m in cones.items():
        for j in range(k + 1):
            coeffs[j] += m * comb(k, j) * (-1) ** (k - j)
    return Poly.make(coeffs)
