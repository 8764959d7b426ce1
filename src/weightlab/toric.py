"""Rational fans and the mod-2 cellular model of a real toric variety.

A fan is stored with an explicit face lattice; validation is structural
(grading of the face relation, the diamond property on length-two
intervals, primitivity of rays, rank consistency).  Convex-geometric
axioms — that cones actually intersect in common faces — are *not*
checked; inputs are trusted on that point.

The cell complex has one k-cell (sigma, g) for every cone sigma of
codimension k and every element g of the orbit group T_sigma, the
quotient of (Z/2)^n by the mod-2 reduction of the saturated sublattice
spanned by sigma's rays.  The boundary sends a cell to the sum of its
images under the quotient homomorphisms to the covering cones, read off
the orbit groups the build computes once per cone.

The filtration T_{-q} is, cone by cone, the q-th power of the
augmentation ideal of the group algebra F_2[T_sigma]: the span of the
indicator vectors of cosets of subgroups generated by q of the orbit
group's standard generators x_i.  The build writes it as an adapted
basis (see :mod:`weightlab.complexes`) with no elimination: for each
subset S of the generators, the coset indicator

    x^{complement of S} · ∏_{i ∈ S} (1 + x_i)

at level -|S|.  Its lowest cell is g = complement of S, so the lowest
cells are distinct and cover the cone's cells, and modulo the vectors of
larger subsets it is ∏_{i ∈ S} (1 + x_i), so the vectors of level <= -q
span T_{-q}.  Writing one vector costs 2^|S|, O(3^k) per cone of
codimension k.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Mapping

from .complexes import ChainComplex, FilteredComplex
from .gf2 import BitMatrix, BitSubspace
from .lattice import is_primitive, make_primitive, rational_rank, saturate_mod2
from .poly import Poly


class FanError(ValueError):
    """Raised for structural problems in fan data."""


ZERO_ID = "0"

# The most cells toric_cell_complex builds; a fan above it is refused
# before any orbit group or boundary is allocated.
MAX_CELLS = 1 << 20


@dataclass(frozen=True)
class Cone:
    id: str
    ray_indices: frozenset[int]
    dim: int
    faces: frozenset[str]  # ids of all proper faces, including the zero cone


@dataclass(frozen=True)
class Fan:
    n: int
    rays: tuple[tuple[int, ...], ...]
    cones: Mapping[str, Cone]

    def __post_init__(self) -> None:
        problems = self.diagnostics()
        if problems:
            raise FanError("; ".join(problems))

    def cone_ids(self) -> list[str]:
        return sorted(self.cones)

    def cone(self, cid: str) -> Cone:
        if cid not in self.cones:
            raise FanError(f"unknown cone {cid!r}")
        return self.cones[cid]

    def codim(self, cid: str) -> int:
        return self.n - self.cone(cid).dim

    def covers(self, cid: str) -> list[str]:
        """Cones covering cid in the face order (cofaces one dim up)."""
        c = self.cone(cid)
        return sorted(
            other.id for other in self.cones.values()
            if cid in other.faces and other.dim == c.dim + 1
        )

    def max_codim(self) -> int:
        return max(self.n - c.dim for c in self.cones.values())

    def diagnostics(self) -> list[str]:
        out = []
        if ZERO_ID not in self.cones:
            out.append("zero cone missing")
        for ray in self.rays:
            if len(ray) != self.n:
                out.append(f"ray {ray} has wrong length")
            elif not is_primitive(ray):
                out.append(f"ray {ray} is not primitive")
        for c in self.cones.values():
            want = rational_rank([self.rays[i] for i in sorted(c.ray_indices)])
            if c.dim != want:
                out.append(f"cone {c.id!r} declares dim {c.dim}, rays have rank {want}")
            for fid in c.faces:
                if fid not in self.cones:
                    out.append(f"cone {c.id!r} lists unknown face {fid!r}")
                elif self.cones[fid].dim >= c.dim:
                    out.append(f"face {fid!r} of {c.id!r} does not drop dimension")
            if c.id != ZERO_ID and ZERO_ID not in c.faces:
                out.append(f"cone {c.id!r} does not list the zero cone as a face")
            for fid in c.faces:
                if fid in self.cones:
                    missing = self.cones[fid].faces - c.faces
                    if missing:
                        out.append(
                            f"faces of cone {c.id!r} are not transitively closed")
                        break
        if out:
            return out
        # Graded: every covering relation drops dimension by exactly one.
        for c in self.cones.values():
            for fid in c.faces:
                f = self.cones[fid]
                intermediate = any(
                    fid in self.cones[mid].faces for mid in c.faces if mid != fid)
                if not intermediate and f.dim != c.dim - 1:
                    out.append(
                        f"face lattice not graded: {fid!r} < {c.id!r} skips dimension")
        # Diamond property on length-two intervals.
        for c in self.cones.values():
            for fid in c.faces:
                f = self.cones[fid]
                if f.dim != c.dim - 2:
                    continue
                between = [
                    mid for mid in c.faces
                    if self.cones[mid].dim == c.dim - 1
                    and fid in self.cones[mid].faces
                ]
                if len(between) != 2:
                    out.append(
                        f"diamond property fails between {fid!r} and {c.id!r} "
                        f"({len(between)} intermediate cones)")
        return out


def parse_fan(doc: Mapping) -> Fan:
    """Build and validate a fan from its document form.

    With ``simplicial: true`` every subset of each cone's rays becomes a
    cone and face lists may be omitted.  Non-primitive rays are divided
    by their gcd with a warning.  The zero cone is implicit.
    """
    try:
        n = int(doc["lattice_rank"])
        raw_rays = [list(map(int, r)) for r in doc.get("rays", [])]
        simplicial = bool(doc.get("simplicial", False))
        # (id, ray indices, declared faces); ids are optional only in
        # simplicial mode, face lists only outside it.
        raw_cones = [
            (cd.get("id") if simplicial else str(cd["id"]),
             frozenset(int(i) for i in (cd["rays"] if simplicial else cd.get("rays", []))),
             {str(fid) for fid in cd.get("faces", [])})
            for cd in doc.get("cones", [])
        ]
    except KeyError as exc:
        raise FanError(f"malformed fan document: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise FanError(f"malformed fan document: {exc}") from exc
    if n < 0:
        raise FanError(f"lattice rank {n} is negative")
    for cid, idx, _ in raw_cones:
        bad = sorted(i for i in idx if not 0 <= i < len(raw_rays))
        if bad:
            raise FanError(f"cone {cid!r} uses ray indices {bad}, the fan has "
                           f"{len(raw_rays)} rays")

    rays = []
    for r in raw_rays:
        if len(r) != n:
            raise FanError(f"ray {r} has length {len(r)}, expected {n}")
        if not is_primitive(r):
            fixed = make_primitive(r)
            warnings.warn(f"ray {r} is not primitive; replaced by {fixed}")
            r = fixed
        rays.append(tuple(r))

    def cone_dim(idx: frozenset[int]) -> int:
        return rational_rank([rays[i] for i in sorted(idx)])

    cones: dict[str, Cone] = {}
    if simplicial:
        by_rayset: dict[frozenset[int], str] = {frozenset(): ZERO_ID}
        declared: dict[frozenset[int], str] = {}
        for cid, idx, _ in raw_cones:
            dim = cone_dim(idx)
            if len(idx) != dim:
                raise FanError(
                    f"cone {cid!r} marked simplicial has {len(idx)} rays "
                    f"of rank {dim}")
            declared[idx] = _subset_id(idx) if cid is None else str(cid)
        # Every subset of a declared ray set is a cone.
        subsets: set[frozenset[int]] = {frozenset()}
        for idx in declared:
            for r in range(len(idx) + 1):
                subsets.update(map(frozenset, itertools.combinations(sorted(idx), r)))
        for idx in subsets:
            by_rayset[idx] = declared.get(idx, _subset_id(idx)) if idx else ZERO_ID
        for idx, cid in by_rayset.items():
            faces = frozenset(
                by_rayset[sub] for r in range(len(idx))
                for sub in map(frozenset, itertools.combinations(sorted(idx), r))
            )
            cones[cid] = Cone(cid, idx, cone_dim(idx), faces)
    else:
        cones[ZERO_ID] = Cone(ZERO_ID, frozenset(), 0, frozenset())
        declared_faces: dict[str, set[str]] = {}
        for cid, idx, faces in raw_cones:
            declared_faces[cid] = faces | {ZERO_ID}
            cones[cid] = Cone(cid, idx, cone_dim(idx), frozenset())
        # Transitive closure of the declared face lists.
        closed: dict[str, frozenset[str]] = {ZERO_ID: frozenset()}
        def close(cid: str, seen: tuple = ()) -> frozenset[str]:
            if cid in closed:
                return closed[cid]
            if cid in seen:
                raise FanError(f"cyclic face declaration at cone {cid!r}")
            acc = set()
            for fid in declared_faces.get(cid, set()):
                if fid not in cones:
                    raise FanError(f"cone {cid!r} lists unknown face {fid!r}")
                acc.add(fid)
                acc.update(close(fid, seen + (cid,)))
            closed[cid] = frozenset(acc)
            return closed[cid]
        for cid in list(cones):
            if cid != ZERO_ID:
                c = cones[cid]
                cones[cid] = Cone(c.id, c.ray_indices, c.dim, close(cid))
    return Fan(n, tuple(rays), cones)


def _subset_id(idx: frozenset[int]) -> str:
    return "c" + ",".join(map(str, sorted(idx))) if idx else ZERO_ID


def fan_to_doc(f: Fan) -> dict:
    return {
        "lattice_rank": f.n,
        "rays": [list(r) for r in f.rays],
        "simplicial": False,
        "cones": [
            {
                "id": c.id,
                "rays": sorted(c.ray_indices),
                "faces": sorted(c.faces),
            }
            for c in (f.cones[cid] for cid in f.cone_ids())
            if c.id != ZERO_ID
        ],
    }


# ---------------------------------------------------------------------------
# Orbit groups


@dataclass(frozen=True)
class OrbitGroup:
    """The group (Z/2)^n / <rays of the cone>, with a chosen complement basis.

    ``basis`` lists the standard basis vectors of (Z/2)^n at the
    non-pivot coordinates of the ray span — the lowest-pivot complement,
    so labels are reproducible.  Elements are masks over ``basis``.
    """

    cone_id: str
    dim: int
    basis: tuple[int, ...]
    ray_span: BitSubspace

    def coords(self, v: int) -> int:
        """The element of the orbit group represented by v in (Z/2)^n."""
        v = self.ray_span.reduce(v)
        g = 0
        for i, b in enumerate(self.basis):
            pos = b.bit_length() - 1
            if (v >> pos) & 1:
                g |= 1 << i
        return g


def orbit_group(f: Fan, cid: str) -> OrbitGroup:
    c = f.cone(cid)
    span = saturate_mod2([f.rays[i] for i in sorted(c.ray_indices)], f.n)
    pivots = set(span.pivots())
    basis = tuple(1 << i for i in range(f.n) if i not in pivots)
    return OrbitGroup(cid, len(basis), basis, span)


def orbit_map(f: Fan, sigma: str, tau: str) -> BitMatrix:
    """The surjection T_sigma -> T_tau for a covering pair sigma < tau."""
    c_sigma, c_tau = f.cone(sigma), f.cone(tau)
    if sigma not in c_tau.faces or c_tau.dim != c_sigma.dim + 1:
        raise FanError(f"{tau!r} does not cover {sigma!r}")
    return _cover_matrix(orbit_group(f, sigma), orbit_group(f, tau))


def _cover_matrix(g_sigma: OrbitGroup, g_tau: OrbitGroup) -> BitMatrix:
    """The quotient map T_sigma -> T_tau on the groups' chosen bases."""
    return BitMatrix.from_columns(g_tau.dim, [g_tau.coords(b) for b in g_sigma.basis])


# ---------------------------------------------------------------------------
# Cell complex and filtration


@dataclass(frozen=True)
class ToricCellComplex:
    fan: Fan
    cells: Mapping[int, tuple[tuple[str, int], ...]]  # degree -> (cone id, g)
    complex: ChainComplex
    filtered: FilteredComplex
    groups: Mapping[str, OrbitGroup]

    def cell_index(self, cid: str, g: int) -> int:
        k = self.fan.codim(cid)
        return self.cells[k].index((cid, g))


def toric_cell_complex(f: Fan) -> ToricCellComplex:
    n_cells = sum(1 << f.codim(cid) for cid in f.cone_ids())
    if n_cells > MAX_CELLS:
        raise FanError(f"the fan has {n_cells} cells, more than the "
                       f"{MAX_CELLS} the build allows")
    groups = {cid: orbit_group(f, cid) for cid in f.cone_ids()}
    by_codim: dict[int, list[str]] = {}
    for cid in f.cone_ids():
        by_codim.setdefault(f.codim(cid), []).append(cid)

    cells: dict[int, tuple[tuple[str, int], ...]] = {}
    offsets: dict[str, int] = {}
    dims: dict[int, int] = {}
    for k, cids in sorted(by_codim.items()):
        row = []
        for cid in cids:
            offsets[cid] = len(row)
            row.extend((cid, g) for g in range(1 << groups[cid].dim))
        cells[k] = tuple(row)
        dims[k] = len(row)

    boundary: dict[int, BitMatrix] = {}
    for k in sorted(dims):
        if k - 1 not in dims:
            continue
        entries = []
        for cid in by_codim[k]:
            phis = {tau: _cover_matrix(groups[cid], groups[tau]) for tau in f.covers(cid)}
            for g in range(1 << groups[cid].dim):
                col = offsets[cid] + g
                for tau, phi in phis.items():
                    entries.append((offsets[tau] + phi.mul_vec(g), col))
        boundary[k] = BitMatrix.from_entries(dims[k - 1], dims[k], entries)

    cx = ChainComplex.make(dims, boundary)

    basis: dict[int, tuple[int, ...]] = {}
    levels: dict[int, tuple[int, ...]] = {}
    for k, cids in by_codim.items():
        by_level = []
        full = (1 << k) - 1
        for cid in cids:
            for s in range(1 << k):
                # x^(complement of S) * prod_{i in S} (1 + x_i): the sum of
                # x^(rest | t) over the subsets t of S.
                rest, t, vec = full ^ s, s, 0
                while True:
                    vec |= 1 << (rest | t)
                    if not t:
                        break
                    t = (t - 1) & s
                by_level.append((-s.bit_count(), vec << offsets[cid]))
        by_level.sort(key=lambda lv: lv[0])
        levels[k] = tuple(lv for lv, _ in by_level)
        basis[k] = tuple(v for _, v in by_level)
    fc = FilteredComplex(cx, (-f.max_codim(), 0), basis, levels)
    return ToricCellComplex(f, cells, cx, fc, groups)


def toric_filtration(f: Fan) -> FilteredComplex:
    return toric_cell_complex(f).filtered


# ---------------------------------------------------------------------------
# Constructions


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Fan of the product variety: pairwise cones and product face lattice.

    The cone of a pair (a, b) of cone ids gets the id ``f"{len(a)}:{a}*{b}"``
    (the zero cone keeps ``"0"``), which is unambiguous also for nested
    products.
    """
    n = f1.n + f2.n
    rays = [tuple(r) + (0,) * f2.n for r in f1.rays]
    rays += [(0,) * f1.n + tuple(r) for r in f2.rays]
    shift = len(f1.rays)

    def pid(a: str, b: str) -> str:
        # The length of a makes the pair readable back from the id, so
        # distinct pairs of ids never give the same id.
        return ZERO_ID if a == b == ZERO_ID else f"{len(a)}:{a}*{b}"

    cones: dict[str, Cone] = {}
    for c1 in f1.cones.values():
        for c2 in f2.cones.values():
            idx = frozenset(c1.ray_indices) | frozenset(i + shift for i in c2.ray_indices)
            faces = set()
            for a in c1.faces | {c1.id}:
                for b in c2.faces | {c2.id}:
                    if (a, b) != (c1.id, c2.id):
                        faces.add(pid(a, b))
            cid = pid(c1.id, c2.id)
            cones[cid] = Cone(cid, idx, c1.dim + c2.dim, frozenset(faces))
    return Fan(n, tuple(rays), cones)


def standard_fan(name: str, param: int = 0) -> Fan:
    """Named fixture fans: projective/affine spaces, tori, Hirzebruch."""
    if name == "trivial":
        return parse_fan({"lattice_rank": param, "rays": [], "cones": []})
    if name == "A":
        rays = [[1 if j == i else 0 for j in range(param)] for i in range(param)]
        return parse_fan({
            "lattice_rank": param,
            "rays": rays,
            "simplicial": True,
            "cones": [{"id": "max", "rays": list(range(param))}] if param else [],
        })
    if name == "P":
        n = param
        rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        rays.append([-1] * n)
        maximal = [
            {"id": f"m{i}", "rays": [j for j in range(n + 1) if j != i]}
            for i in range(n + 1)
        ]
        return parse_fan({
            "lattice_rank": n, "rays": rays, "simplicial": True, "cones": maximal,
        })
    if name == "hirzebruch":
        a = param
        return parse_fan({
            "lattice_rank": 2,
            "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "simplicial": True,
            "cones": [
                {"id": "m0", "rays": [0, 1]},
                {"id": "m1", "rays": [1, 2]},
                {"id": "m2", "rays": [2, 3]},
                {"id": "m3", "rays": [3, 0]},
            ],
        })
    raise FanError(f"unknown standard fan {name!r}")


def orbit_sum_poly(f: Fan) -> Poly:
    """The orbit decomposition's prediction for the virtual polynomial:
    sum over cones of (t - 1)^codim."""
    t_minus_1 = Poly.make([-1, 1])
    total = Poly.zero()
    for cid in f.cone_ids():
        term = Poly.one()
        for _ in range(f.codim(cid)):
            term = term * t_minus_1
        total = total + term
    return total
