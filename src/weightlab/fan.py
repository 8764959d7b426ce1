"""Rational fans with an explicit face lattice.

Validation is structural: grading of the face relation, the diamond
property on length-two intervals, faces on rays of their cones, distinct
primitive rays, rank consistency, in integer operations per cone.  Each
cone's face list and rays are bitmasks, over the cones numbered once and
over the ray indices.  The lists drop dimension, are transitively closed,
graded and on their cones' rays exactly when each cone's facets (faces
one dimension down) lie on its rays and with their own faces make up its
whole list (by induction on dimension); the diamond property is a
bit-sliced count over the facets' face masks, which must find every face
two dimensions down exactly twice.  Only a fan this refuses is scanned
face by face, to name its faults.  A cone's rank is the dimension of the
mod-2 reduction of its saturated ray lattice, from one table per fan
(:class:`weightlab.lattice.Saturations`).  A face-list document's parse
sets the ranks and validation checks them in one pass by descending
number of rays: a subset of independent rays is independent, so only the
cones inside no cone with independent rays are spanned.  The parser hands
its face masks to the fan's lattice, so validation reads the masks it
made rather than rebuilding them from the face ids.  Every face-list
document, every product and every ``Fan(...)`` made directly takes this
whole bitmask test.

A simplicial document (``"simplicial": true``) gets most axioms by
construction.  Its parse ranks the declared cones, refuses dependent ones
and holds the document to the cell cap before it walks their ray subsets;
the faces of a simplicial cone are exactly the cones on subsets of its
rays (Cox–Little–Schenck, ch. 1), so the walked lattice is graded, closed
and diamond, each face lies on its cone's rays, and each cone's rank is
its number of rays.  Its rays are primitive and of the right length once
read.  It still tests what the walk cannot make true: that the rays its
cones use are distinct vectors, with the helper that validation uses too,
and that each face it declares is a face of its cone.
Convex-geometric axioms — that cones actually intersect in common faces —
are *not* checked; inputs are trusted on that point.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from math import comb
from operator import or_
from typing import Callable, Iterable

from .gf2 import BitSubspace, json_int, set_bits
from .lattice import Saturations, is_primitive, make_primitive


class FanError(ValueError):
    """Raised for structural problems in fan data."""


ZERO_ID = "0"

# The mask tests between two looks at a simplicial document's partial cell
# count (:func:`_face_sizes`): some hundredths of a second of counting.
_COUNT_STEPS = 1 << 16


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
    # The table of spans that parse_fan filled while ranking the cones.
    _saturations: Saturations | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The bitmask pass alone accepts a fan; the scans name what it refuses.
        # A valid fan is then held to the cell cap, so no fan above it exists.
        # Every fan but a simplicial document's comes through here; that one
        # (_walked) has its lattice, ranks and cap from the parse's subset
        # walk, and tests its rays for repeats with the scans' helper.
        if not self._holds():
            raise FanError("; ".join(self.diagnostics()))
        from . import toric  # toric imports this module

        toric.capped_counts(Counter(self.n - c.dim for c in self.cones.values()))

    @classmethod
    def _walked(cls, n: int, rays: tuple[tuple[int, ...], ...], cones: Mapping[str, Cone],
                spans: Saturations, lattice: "_FaceLattice") -> "Fan":
        """The fan of a simplicial document, made past :meth:`__post_init__`
        from :func:`parse_fan`'s subset walk, which must have held it to
        the cell cap.  The walk makes every other axiom true, so this tests
        only that the rays the cones use are distinct vectors."""
        if faults := _repeated_rays(rays, set_bits(reduce(or_, lattice.rays, 0))):
            raise FanError("; ".join(faults))
        fan = cls.__new__(cls)
        fan.__dict__.update(n=n, rays=rays, cones=cones, _saturations=spans, _lattice=lattice)
        return fan

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
        self.cone(cid)
        return list(self._covers[cid])

    def max_codim(self) -> int:
        return max(self.n - c.dim for c in self.cones.values())

    def ray_span(self, cid: str) -> BitSubspace:
        """The mod-2 reduction of the saturated lattice spanned by the rays
        of cid; its dimension is the cone's rational rank."""
        return self._spans[self.cone(cid).ray_indices]

    @cached_property
    def _spans(self) -> Saturations:
        """The mod-2 saturations of ray sets, computed on first lookup: the
        parser's table, unless this fan is a copy with other rays."""
        spans = self._saturations
        return spans if spans is not None and spans.vectors == self.rays else \
            Saturations(self.rays, self.n)

    @cached_property
    def _lattice(self) -> "_FaceLattice":
        return _FaceLattice(self.cones)

    @cached_property
    def _covers(self) -> dict[str, list[str]]:
        lattice = self._lattice
        out: dict[str, list[str]] = {cid: [] for cid in self.cones}
        for i, cid in enumerate(lattice.ids):
            for j in set_bits(lattice.facets(i)):
                out[lattice.ids[j]].append(cid)
        for ids in out.values():
            ids.sort()
        return out

    def _holds(self) -> bool:
        """Whether the rays are primitive and of the right length, the rays
        that cones use are distinct, the face lists form a lattice
        (:meth:`_FaceLattice.holds`) and every cone's declared dimension
        is its rank: integer operations per cone, with no message."""
        used = frozenset().union(*(c.ray_indices for c in self.cones.values()))
        lattice = self._lattice
        return (all(len(ray) == self.n and is_primitive(ray) for ray in self.rays)
                and used <= set(range(len(self.rays))) and not _repeated_rays(self.rays, used)
                and lattice.holds() and [c.dim for c in lattice.cones]
                == _ranks([c.ray_indices for c in lattice.cones], lattice.masks, self._spans))

    def diagnostics(self) -> list[str]:
        """Violated axioms, one message per finding, from scans over every
        ray, cone and face in cone order, each cone's faces sorted; empty
        exactly when :meth:`_holds`, which is what construction runs."""
        out = []
        if ZERO_ID not in self.cones:
            out.append("zero cone missing")
        for ray in self.rays:
            if len(ray) != self.n:
                out.append(f"ray {ray} has wrong length")
            elif not is_primitive(ray):
                out.append(f"ray {ray} is not primitive")
        out += _repeated_rays(self.rays, frozenset().union(
            *(c.ray_indices for c in self.cones.values())))
        # The rank check skips cones on a ray named above or on none.
        well_formed = {i for i, ray in enumerate(self.rays) if len(ray) == self.n}
        for c in self.cones.values():
            if c.ray_indices <= well_formed:
                want = self._spans[c.ray_indices].dim
                if c.dim != want:
                    out.append(f"cone {c.id!r} declares dim {c.dim}, rays have rank {want}")
            elif bad := sorted(i for i in c.ray_indices if not 0 <= i < len(self.rays)):
                out.append(f"cone {c.id!r} uses ray indices {bad}, the fan has "
                           f"{len(self.rays)} rays")
            for fid in sorted(c.faces):
                if fid not in self.cones:
                    out.append(f"cone {c.id!r} lists unknown face {fid!r}")
                elif self.cones[fid].dim >= c.dim:
                    out.append(f"face {fid!r} of {c.id!r} does not drop dimension")
                elif stray := sorted(self.cones[fid].ray_indices - c.ray_indices):
                    out.append(f"face {fid!r} of {c.id!r} uses rays {stray}, "
                               f"which {c.id!r} does not")
            if c.id != ZERO_ID and ZERO_ID not in c.faces:
                out.append(f"cone {c.id!r} does not list the zero cone as a face")
            if any(fid in self.cones and not self.cones[fid].faces <= c.faces
                   for fid in c.faces):
                out.append(f"faces of cone {c.id!r} are not transitively closed")
        if out:
            return out
        # The face lists exist, drop dimension and are closed, so a face's
        # maximal faces are those in no other face's list.
        lattice = self._lattice
        facets = {cid: {lattice.ids[j] for j in set_bits(lattice.maximal(i))}
                  for i, cid in enumerate(lattice.ids)}
        # Graded: every covering relation drops dimension by exactly one.
        graded = {}
        for c in self.cones.values():
            graded[c.id] = all(self.cones[f].dim == c.dim - 1 for f in facets[c.id])
            if not graded[c.id]:
                out.extend(
                    f"face lattice not graded: {fid!r} < {c.id!r} skips dimension"
                    for fid in sorted(c.faces)
                    if fid in facets[c.id] and self.cones[fid].dim != c.dim - 1)
        # Diamond property on length-two intervals: every face two dims
        # down lies in exactly two faces one dim down.  Those are facets,
        # and in a graded cone the faces two dims down are their facets.
        for c in self.cones.values():
            between: dict[str, int] = {}
            for mid in facets[c.id]:
                if self.cones[mid].dim == c.dim - 1:
                    for fid in facets[mid]:
                        if self.cones[fid].dim == c.dim - 2:
                            between[fid] = between.get(fid, 0) + 1
            if graded[c.id] and all(n == 2 for n in between.values()):
                continue
            out.extend(
                f"diamond property fails between {fid!r} and {c.id!r} "
                f"({between.get(fid, 0)} intermediate cones)"
                for fid in sorted(c.faces)
                if self.cones[fid].dim == c.dim - 2 and between.get(fid, 0) != 2)
        return out


class _FaceLattice:
    """The cones numbered in mapping order, with the face list of cone i
    held as the bitmask ``masks[i]`` over the numbers (an unknown face
    sets no bit), its rays as the bitmask ``rays[i]`` over the ray
    indices, and ``of_dim[d]`` the mask of the cones of dimension d."""

    def __init__(self, cones: Mapping[str, Cone], masks: list[int] | None = None,
                 rays: list[int] | None = None) -> None:
        """``masks`` and ``rays``, when given, are those that the caller
        has already made of ``cones``."""
        self.cones = list(cones.values())
        self.ids = list(cones)
        self.zero = 1 << self.ids.index(ZERO_ID) if ZERO_ID in cones else 0
        if masks is None:
            bit = {cid: 1 << i for i, cid in enumerate(self.ids)}
            masks = [sum(map(bit.get, c.faces, repeat(0))) for c in self.cones]
        if rays is None:
            rays = [sum(1 << r for r in c.ray_indices) for c in self.cones]
        self.masks, self.rays = masks, rays
        self.of_dim: dict[int, int] = {}
        for i, c in enumerate(self.cones):
            self.of_dim[c.dim] = self.of_dim.get(c.dim, 0) | 1 << i

    def facets(self, i: int) -> int:
        """The faces of cone i one dimension down: in a lattice that
        :meth:`holds`, its maximal proper faces."""
        return self.masks[i] & self.of_dim.get(self.cones[i].dim - 1, 0)

    def maximal(self, i: int) -> int:
        """The faces of cone i in no other face's list."""
        below = 0
        for j in set_bits(self.masks[i]):
            below |= self.masks[j]
        return self.masks[i] & ~below

    def holds(self) -> bool:
        """Whether the face lists form a graded, closed lattice with the
        diamond property, each face on rays of its cone.  Per cone of
        dimension d: every face is a cone, the zero cone is a face (of all
        but itself), the facets (faces of dimension d - 1) lie on its rays
        and with their own faces make up every face, and bit-sliced counts
        over the facets' face masks find each face of dimension d - 2 in
        exactly two.  By induction on dimension, the facet conditions hold
        for the whole list, and refuse a face that does not drop dimension:
        no facet lists one."""
        if not self.zero:
            return False
        for i, c in enumerate(self.cones):
            mask = self.masks[i]
            if mask.bit_count() != len(c.faces) or not mask & self.zero and c.id != ZERO_ID:
                return False
            two_down = self.of_dim.get(c.dim - 2, 0)
            union, rays, ones, twos, more = 0, 0, 0, 0, 0
            facets = self.facets(i)
            for j in set_bits(facets):
                union |= self.masks[j]
                rays |= self.rays[j]
                faces = self.masks[j] & two_down
                more |= twos & faces
                twos |= ones & faces
                ones |= faces
            if (union | facets != mask or rays & ~self.rays[i] or more
                    or twos != mask & two_down):
                return False
        return True


def parse_fan(doc: Mapping) -> Fan:
    """Build and validate a fan from its document form.

    With ``simplicial: true`` every subset of each cone's rays becomes a
    cone and face lists may be omitted, a face they list being refused
    unless it is a face of its cone; such a document whose cells pass
    ``toric.MAX_CELLS`` is refused before any of its cones is made.
    Non-primitive rays are divided by their gcd with a warning.  The zero
    cone is implicit.
    """
    try:
        doc = _object(doc, "the document")
        n = json_int(doc["lattice_rank"], "the lattice rank")
        raw_rays = [[json_int(x, "a ray coordinate") for x in _list(r, "rays[{}]", i)]
                    for i, r in enumerate(_list(doc.get("rays", []), "'rays'"))]
        simplicial = doc.get("simplicial", False)
        if not isinstance(simplicial, bool):
            raise ValueError(f"simplicial must be true or false, not {simplicial!r}")
        # (id, ray indices, declared faces); ids are optional only in
        # simplicial mode, ray lists only outside it, face lists in both.
        raw_cones = []
        for k, cd in enumerate(_list(doc.get("cones", []), "'cones'")):
            cd = _object(cd, "cones[{}]", k)
            raw_cones.append((
                None if simplicial and cd.get("id") is None else _cone_id(cd["id"], "a cone id"),
                frozenset(json_int(i, "a ray index") for i in _list(
                    cd["rays"] if simplicial else cd.get("rays", []), "the rays of cones[{}]", k)),
                {_cone_id(fid, "a face")
                 for fid in _list(cd.get("faces", []), "the faces of a cone")},
            ))
    except KeyError as exc:
        raise FanError(f"malformed fan document: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise FanError(f"malformed fan document: {exc}") from exc
    if n < 0:
        raise FanError(f"lattice rank {n} is negative")
    for k, (cid, idx, _) in enumerate(raw_cones):
        bad = sorted(i for i in idx if not 0 <= i < len(raw_rays))
        if bad:
            name = f"cones[{k}]" if cid is None else f"cone {cid!r}"
            raise FanError(f"{name} uses ray indices {bad}, the fan has {len(raw_rays)} rays")

    rays = []
    for i, r in enumerate(raw_rays):
        if len(r) != n:
            raise FanError(f"ray {r} has length {len(r)}, expected {n}")
        if not any(r):
            raise FanError(f"ray {i} is zero: {r}")
        if not is_primitive(r):
            fixed = make_primitive(r)
            warnings.warn(f"ray {r} is not primitive; replaced by {fixed}")
            r = fixed
        rays.append(tuple(r))

    rays = tuple(rays)
    spans = Saturations(rays, n)  # the fan's, too

    # The rays of each id, the last given; generated ids avoid declared ones.
    rays_of = {ZERO_ID: frozenset(), **{c: idx for c, idx, _ in raw_cones if c is not None}}

    def generated_id(idx: frozenset[int]) -> str:
        cid = "c" + ",".join(map(str, sorted(idx))) if idx else ZERO_ID
        while rays_of.get(cid, idx) != idx:
            cid += "'"
        return cid

    # (id, ray indices) of the zero cone and the declared cones.  Each form
    # numbers its cones once, with their faces' ids and masks of face numbers.
    ids = [(ZERO_ID, frozenset())]
    ids += [(generated_id(idx) if cid is None else cid, idx) for cid, idx, _ in raw_cones]
    if simplicial:
        from . import toric  # toric imports this module

        toric.capped_counts({n: 1})  # the zero cone, before any subset is walked
        declared: dict[int, str] = {}  # by ray set, as a bitmask
        for cid, idx in ids[1:]:
            if (dim := spans[idx].dim) != len(idx):
                raise FanError(f"cone {cid!r} marked simplicial has {len(idx)} rays of rank {dim}")
            declared[sum(1 << i for i in idx)] = cid
        # Every subset of a declared ray set is a cone, numbered as the walk
        # meets it: its cells are held to the cap before any is walked, and
        # a count too long to finish stops once it has passed the cap.
        def past(sizes: Counter) -> None:
            if (cells := sum(m << n - s for s, m in sizes.items())) > toric.MAX_CELLS:
                raise FanError(f"the fan has at least {cells} cells, more than the "
                               f"{toric.MAX_CELLS} the build allows")

        toric.capped_counts({n - s: m for s, m in _face_sizes(list(declared), past).items()})
        walked = {0: None}
        for top in declared:
            sub = top
            while sub:
                walked[sub] = None
                sub = (sub - 1) & top
        id_of, numbered = {}, []
        for sub in walked:
            idx = frozenset(set_bits(sub))
            id_of[sub] = (ZERO_ID if not sub else declared[sub] if sub in declared
                          else generated_id(idx))
            numbered.append((id_of[sub], idx))
        # The proper subsets of a cone's rays, the empty one too, are its
        # faces: their ids by walking them, their mask as the union over
        # its facets, taken by ascending size.
        bit = {sub: 1 << i for i, sub in enumerate(walked)}
        closed = {}
        for mask in sorted(walked, key=int.bit_count):
            faces, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                faces |= bit[mask ^ low] | closed[mask ^ low]
            closed[mask] = faces
        ray_masks, masks = list(walked), [closed[mask] for mask in walked]
        face_ids = []
        for mask in walked:
            faces, sub = [], mask
            while sub:
                sub = (sub - 1) & mask
                faces.append(id_of[sub])
            face_ids.append(faces)
    else:
        # Transitive closure of the declared face lists, depth first from a
        # stack of the chain being closed, each list walked in sorted order.
        # A fan of lattice rank n has chains of at most n nonzero cones.
        numbered = list(rays_of.items())
        bit = {cid: 1 << i for i, (cid, _) in enumerate(numbered)}
        declared_faces = {cid: sorted(faces | {ZERO_ID}) for cid, _, faces in raw_cones}
        closed, stray = {ZERO_ID: 0}, False
        for top in declared_faces:
            stack = {} if top in closed else {top: iter(declared_faces[top])}
            while stack:
                cid, below = next(reversed(stack.items()))
                fid = next(below, None)
                if fid is None:
                    stack.popitem()
                    closed[cid] = 0
                    for fid in declared_faces[cid]:
                        closed[cid] |= bit[fid] | closed[fid]
                        stray |= not rays_of[fid] <= rays_of[cid]
                elif fid in closed:
                    continue
                elif fid not in declared_faces:
                    raise FanError(f"cone {cid!r} lists unknown face {fid!r}")
                elif fid in stack:
                    raise FanError(f"cyclic face declaration at cone {fid!r}")
                elif len(stack) >= n:
                    raise FanError(f"the faces of cone {top!r} chain more than {n + 1} "
                                   f"cones deep, more than lattice rank {n} allows")
                else:
                    stack[fid] = iter(declared_faces[fid])
        face_ids = [[numbered[j][0] for j in set_bits(closed[cid])] for cid in rays_of]
        ray_masks, masks = None, [closed[cid] for cid in rays_of]
    _check_ids(ids)
    if simplicial:
        # A subset of independent rays is independent: each cone's rank is
        # its number of rays.
        cones = {cid: Cone(cid, idx, len(idx), frozenset(faces))
                 for (cid, idx), faces in zip(numbered, face_ids)}
        fan = Fan._walked(n, rays, cones, spans, _FaceLattice(cones, masks, ray_masks))
        # A declared face list is read only to be checked against the walk.
        for (cid, _), (_, _, faces) in zip(ids[1:], raw_cones):
            if stray := faces - cones[cid].faces:
                fid = min(stray)
                raise FanError(f"cone {cid!r} lists unknown face {fid!r}" if fid not in cones
                               else f"cone {cid!r} lists {fid!r}, which is not one of its faces")
        return fan
    # A face on rays its cone lacks keeps its rank for validation to name.
    ranks = _ranks([idx for _, idx in numbered], [0] * len(masks) if stray else masks, spans)
    cones = {cid: Cone(cid, idx, rank, frozenset(faces))
             for (cid, idx), rank, faces in zip(numbered, ranks, face_ids)}
    # The masks are the face lattice that construction would rebuild from
    # the face ids: its cache is primed with them, and validation reads them.
    fan = Fan.__new__(Fan)
    fan.__dict__["_lattice"] = _FaceLattice(cones, masks, ray_masks)
    fan.__init__(n, rays, cones, spans)
    return fan


def _repeated_rays(rays: tuple[tuple[int, ...], ...], used: Iterable[int]) -> list[str]:
    """One message for each index in ``used`` whose ray is the vector of a
    smaller one, by ascending index; an index past the rays is skipped.
    Both the validation of a fan and a simplicial document's walk test
    that the rays its cones use are distinct with this."""
    first: dict[tuple[int, ...], int] = {}
    return [f"rays {first[rays[i]]} and {i} are the same vector {list(rays[i])}"
            for i in sorted(used) if 0 <= i < len(rays) and first.setdefault(rays[i], i) != i]


def _ranks(rays: list[frozenset[int]], faces: list[int], spans: Saturations) -> list[int]:
    """The cones' ranks.  By descending number of rays, a cone in the face mask ``faces[i]``
    of a cone i with independent rays is not spanned; a face's rays and mask lie in its cone's."""
    ranks, inside = [len(idx) for idx in rays], 0
    for i in sorted(range(len(rays)), key=ranks.__getitem__, reverse=True):
        if not inside >> i & 1:
            ranks[i] = spans[rays[i]].dim
            inside |= faces[i] if ranks[i] == len(rays[i]) else 0
    return ranks


def _face_sizes(tops: list[int], past: Callable[[Counter], None] | None = None) -> Counter:
    """{size: number} of the distinct subsets of the ray masks ``tops``,
    counted without listing them: each top counts its subsets in no
    earlier top, those that meet each ray set it has and an earlier one
    lacks.  With no top, the empty set alone.  The count is exponential
    in the worst case, so every ``_COUNT_STEPS`` mask tests the sizes
    counted so far, which only grow, are handed to ``past``, which may
    raise to stop it."""
    sizes = Counter() if tops else Counter({0: 1})
    steps = 0
    for i, top in enumerate(tops):
        # The sets chosen ∪ G, G ⊆ free, that meet every mask: C(f, j) of
        # size k + j when chosen (k rays) meets them all and f rays are
        # free, else, for each ray r of the smallest mask it misses, those
        # with r chosen and the rays before r left out.
        todo = [(0, top, [top & ~earlier for earlier in tops[:i]])]
        while todo:
            chosen, free, masks = todo.pop()
            steps += len(masks) + 1
            if steps > _COUNT_STEPS and past is not None:
                past(sizes)
                steps = 0
            masks = [m & free for m in masks if not m & chosen]
            if not masks:
                k, f = chosen.bit_count(), free.bit_count()
                for j in range(f + 1):
                    sizes[k + j] += comb(f, j)
                continue
            for r in set_bits(min(masks, key=int.bit_count)):
                free ^= 1 << r
                todo.append((chosen | 1 << r, free, masks))
    return sizes


def _cone_id(value, what: str) -> str:
    """A cone id or a face naming one: a JSON string or integer, as a string;
    ``null``, ``true`` or an object is refused, not named by its Python form."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise ValueError(f"{what} must be a string or an integer, not {value!r}")


def _object(value, what: str, *place) -> Mapping:
    """A JSON object, refused by its field's name rather than read.  The
    name is ``what.format(*place)``, formatted only for a refusal."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what.format(*place)} must be a JSON object, "
                         f"not {type(value).__name__}")
    return value


def _list(value, what: str, *place) -> list:
    """A JSON list, so a string is refused rather than read as its
    characters, and a number by its field's name, named as by
    :func:`_object`."""
    if not isinstance(value, list):
        raise ValueError(f"{what.format(*place)} must be a list, not {value!r}")
    return value


def _check_ids(cones: Iterable[tuple[str, frozenset[int]]]) -> None:
    """Refuse an id given to two ray sets, or a ray set given two ids;
    either would drop a cone or duplicate one.  A cone repeated with the
    same id and rays is the same cone."""
    rays_of: dict[str, frozenset[int]] = {}
    id_of: dict[frozenset[int], str] = {}
    for cid, idx in cones:
        if rays_of.setdefault(cid, idx) != idx:
            a, b = sorted((sorted(rays_of[cid]), sorted(idx)))
            raise FanError(f"cone id {cid!r} names two cones, on rays {a} and {b}")
        if id_of.setdefault(idx, cid) != cid:
            raise FanError(f"cones {id_of[idx]!r} and {cid!r} have the same "
                           f"rays {sorted(idx)}")


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
            cid = pid(c1.id, c2.id)
            faces = frozenset(pid(a, b) for a in c1.faces | {c1.id} for b in c2.faces | {c2.id})
            cones[cid] = Cone(cid, idx, c1.dim + c2.dim, faces - {cid})
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
        if param == 0:  # the point: no rays, as for A:0 and trivial:0
            return standard_fan("trivial", 0)
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
