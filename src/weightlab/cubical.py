"""Cubical diagrams of filtered complexes and hyperresolution inputs.

A diagram of shape n assigns a filtered complex to every subset of
{0, ..., n} (the empty set included) and a chain map K_{*,S} -> K_{*,T}
to every codimension-one face T of S.  The associated simple complex
totalizes the diagram with the block (S, i) placed in degree
i + |S| - 1, so the empty-set vertex is shifted down by one; over GF(2)
no signs are needed and the total boundary is just "internal boundary
plus all diagram maps out of the block".

Hyperresolutions are a separate, simpler input shape: a list of level
complexes with simplicial face maps downward, totalized with the
filtration by levels (skeleta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Mapping, TypeAlias

from .complexes import (
    ChainComplex,
    ComplexError,
    FilteredComplex,
    complex_from_doc,
    complex_to_doc,
    filtered_from_doc,
    filtered_to_doc,
    int_keys,
    matrix_entries,
    raised_levels,
    totalize,
    trivial_filtration,
)
from .gf2 import BitMatrix, json_int, json_list, json_object, malformed
from .pages import SpectralSequence


# A string, so that importing the module subscribes no typing generic:
# typing caches subscriptions, and the cache would keep this module's
# BitMatrix class alive after a re-import.
DegreeMaps: TypeAlias = "Mapping[int, BitMatrix]"


def _map_matrix(maps: DegreeMaps, src: ChainComplex, dst: ChainComplex, k: int) -> BitMatrix:
    m = maps.get(k)
    if m is None:
        return BitMatrix.zero(dst.dim(k), src.dim(k))
    return m


def _is_chain_map(maps: DegreeMaps, src: ChainComplex, dst: ChainComplex) -> bool:
    """Each degree's matrix has the shape dst <- src and commutes with
    the boundaries."""
    return all(
        (f := _map_matrix(maps, src, dst, k)).rows == dst.dim(k) and f.cols == src.dim(k)
        and dst.d(k).mul(f) == _map_matrix(maps, src, dst, k - 1).mul(src.d(k))
        for k in set(src.degrees()) | set(dst.degrees()))


@dataclass(frozen=True)
class CubicalDiagram:
    """Contravariant diagram over the subsets of {0, ..., n}.

    ``objects`` is keyed by subset bitmask (bit i = element i); ``maps``
    is keyed by (source mask, target mask) with the target a
    codimension-one subset of the source.
    """

    n: int
    objects: Mapping[int, FilteredComplex]
    maps: Mapping[tuple[int, int], DegreeMaps]

    def __post_init__(self) -> None:
        problems = self.diagnostics()
        if problems:
            raise ComplexError("; ".join(problems))

    def vertex_masks(self) -> list[int]:
        return list(range(1 << (self.n + 1)))

    def edges(self) -> list[tuple[int, int]]:
        """(S, T) pairs with T obtained from S by dropping one element."""
        out = []
        for s in self.vertex_masks():
            m = s
            while m:
                bit = m & -m
                out.append((s, s ^ bit))
                m ^= bit
        return out

    def map_between(self, s: int, t: int, k: int) -> BitMatrix:
        return _map_matrix(
            self.maps.get((s, t), {}),
            self.objects[s].complex, self.objects[t].complex, k)

    def diagnostics(self) -> list[str]:
        n = self.n
        if n < 0:
            return [f"diagram shape n={n} is negative"]
        # 2^(n+1) is formed only where it is printed, so that a large n
        # is refused before a number of its size exists.
        out = [f"diagram vertex for mask {s} is outside the shape"
               for s in self.objects if s < 0 or s >> (n + 1)]
        got = len(self.objects) - len(out)
        if not got >> (n + 1):
            size = 1 << (n + 1) if n < 64 else f"2^{n + 1}"
            out.append(f"a diagram of shape n={n} needs {size} vertices, got {got}")
        if out:
            return out
        edges = self.edges()
        out = [f"map {s}->{t} is not along a codimension-one face"
               for s, t in sorted(set(self.maps) - set(edges))]
        for s, t in edges:
            src, dst = self.objects[s], self.objects[t]
            if not _is_chain_map(self.maps.get((s, t), {}), src.complex, dst.complex):
                out.append(f"map {s}->{t} is not a chain map")
                continue
            for k in src.complex.degrees():
                if dst.complex.dim(k):
                    f = self.map_between(s, t, k)
                    out.extend(
                        f"map {s}->{t} does not preserve level p={p} in degree {k}"
                        for p in raised_levels(
                            src.levels[k],
                            (dst.coordinates(k, f.mul_vec(v)) for v in src.vectors(k)),
                            dst.levels[k]))
        for s in self.vertex_masks():
            bits = [1 << i for i in range(n + 1) if s >> i & 1]
            for a, b in combinations(bits, 2):
                u = s ^ a ^ b
                for k in self.objects[s].complex.degrees():
                    if (self.map_between(s ^ a, u, k).mul(self.map_between(s, s ^ a, k))
                            != self.map_between(s ^ b, u, k).mul(self.map_between(s, s ^ b, k))):
                        out.append(f"square {s}->{u} does not commute in degree {k}")
                        break
        return out


def simple_filtered(d: CubicalDiagram) -> FilteredComplex:
    """Total (simple) filtered complex of a diagram.

    Degree k collects the blocks (S, i) with i + |S| - 1 = k; the
    boundary applies each object's boundary within its block and every
    diagram map between blocks; the filtration is the blockwise direct
    sum of the object filtrations.
    """
    return totalize(
        {s: (s.bit_count() - 1, d.objects[s]) for s in sorted(d.objects)}, d.maps)


def is_acyclic(ss: SpectralSequence) -> bool:
    """True iff the first page vanishes everywhere."""
    return not ss.page(1)


@dataclass(frozen=True)
class AdditivityReport:
    ok: bool
    mismatches: tuple[tuple[int, int, int, int], ...]  # (p, q, got, want)


def additivity_check(
    inclusion: CubicalDiagram, complement: FilteredComplex
) -> AdditivityReport:
    """Compare E1 of the total complex of a single-map diagram with E1
    of a given complement complex.

    The total complex of the diagram Y -> X carries the complement's
    homology shifted down one degree, so the comparison is
    E1_{p,q}(simple) against E1_{p,q+1}(complement).
    """
    if inclusion.n != 0:
        raise ValueError("additivity check expects a single-map diagram")
    ss_simple = SpectralSequence(simple_filtered(inclusion))
    ss_comp = SpectralSequence(complement)
    simple_page = ss_simple.page(1)
    comp_page = ss_comp.page(1)
    keys = set(simple_page) | {(p, q - 1) for (p, q) in comp_page}
    mismatches = []
    for p, q in sorted(keys):
        got = simple_page.get((p, q), 0)
        want = comp_page.get((p, q + 1), 0)
        if got != want:
            mismatches.append((p, q, got, want))
    return AdditivityReport(not mismatches, tuple(mismatches))


@dataclass(frozen=True)
class Hyperresolution:
    """Levels X^(0..n) with face maps d_j: X^(i) -> X^(i-1), j = 0..i."""

    levels: tuple[ChainComplex, ...]
    faces: Mapping[tuple[int, int], DegreeMaps]  # (level, j) -> degreewise maps

    def __post_init__(self) -> None:
        problems = self.diagnostics()
        if problems:
            raise ComplexError("; ".join(problems))

    def face(self, i: int, j: int, k: int) -> BitMatrix:
        return _map_matrix(
            self.faces.get((i, j), {}), self.levels[i], self.levels[i - 1], k)

    def diagnostics(self) -> list[str]:
        out = []
        for i in range(1, len(self.levels)):
            for j in range(i + 1):
                if not _is_chain_map(
                        self.faces.get((i, j), {}),
                        self.levels[i], self.levels[i - 1]):
                    out.append(f"face map d_{j} at level {i} is not a chain map")
        if out:
            return out
        # Simplicial identities mod 2: d_j d_l = d_{l-1} d_j for j < l.
        for i in range(2, len(self.levels)):
            for l in range(i + 1):
                for j in range(l):
                    for k in self.levels[i].degrees():
                        lhs = self.face(i - 1, j, k).mul(self.face(i, l, k))
                        rhs = self.face(i - 1, l - 1, k).mul(self.face(i, j, k))
                        if lhs != rhs:
                            out.append(
                                f"simplicial identity fails: level {i}, "
                                f"d_{j} d_{l} != d_{l - 1} d_{j}")
                            break
        return out


def skeleton_filtration(h: Hyperresolution) -> FilteredComplex:
    """Total complex of a hyperresolution, filtered by levels.

    Degree k collects C_{k-i} of level i; the filtration level p keeps
    the blocks with i <= p.  The map from level i to level i - 1 is the
    sum of the face maps.
    """
    face_sums = {
        (i, i - 1): {
            k: reduce(BitMatrix.add, (h.face(i, j, k) for j in range(i + 1)))
            for k in cx.degrees()
        }
        for i, cx in enumerate(h.levels) if i
    }
    return totalize(
        {i: (i, trivial_filtration(cx, i)) for i, cx in enumerate(h.levels)}, face_sums)


# ---------------------------------------------------------------------------
# Serialization


def _maps_to_doc(maps: DegreeMaps) -> dict:
    return {str(k): sorted(map(list, m.entries()))
            for k, m in sorted(maps.items())}


def _maps_from_doc(doc, src: ChainComplex, dst: ChainComplex,
                   what: str) -> dict[int, BitMatrix]:
    """The matrices by degree of the field named ``what``."""
    out = {}
    for k, entries in int_keys(json_object(doc, what), "map degrees").items():
        out[k] = BitMatrix.from_entries(
            dst.dim(k), src.dim(k), matrix_entries(entries, what + "[{!r}]", str(k)))
    return out


def diagram_to_doc(d: CubicalDiagram) -> dict:
    return {
        "n": d.n,
        "objects": {str(s): filtered_to_doc(fc) for s, fc in sorted(d.objects.items())},
        "maps": [
            {"from_mask": s, "to_mask": t, "matrices": _maps_to_doc(m)}
            for (s, t), m in sorted(d.maps.items())
        ],
    }


def diagram_from_doc(doc: Mapping) -> CubicalDiagram:
    with malformed(ComplexError, "diagram document"):
        doc = json_object(doc, "the document")
        n = json_int(doc["n"], "n")
        objects = {s: filtered_from_doc(json_object(od, "objects[{!r}]", str(s)))
                   for s, od in int_keys(json_object(doc["objects"], "'objects'"),
                                         "diagram objects").items()}
        maps = {}
        for i, entry in enumerate(json_list(doc.get("maps", []), "'maps'")):
            entry = json_object(entry, "maps[{}]", i)
            s = json_int(entry["from_mask"], "a map's from_mask")
            t = json_int(entry["to_mask"], "a map's to_mask")
            if s not in objects or t not in objects:
                raise ValueError(f"map {s}->{t} names a missing vertex")
            if (s, t) in maps:
                raise ValueError(f"map {s}->{t} is given twice")
            maps[(s, t)] = _maps_from_doc(entry.get("matrices", {}), objects[s].complex,
                                          objects[t].complex, f"maps[{i}]['matrices']")
    return CubicalDiagram(n, objects, maps)


def hyperres_to_doc(h: Hyperresolution) -> dict:
    return {
        "levels": [complex_to_doc(cx) for cx in h.levels],
        "faces": [
            {"level": i, "face_index": j, "matrix": _maps_to_doc(m)}
            for (i, j), m in sorted(h.faces.items())
        ],
    }


def hyperres_from_doc(doc: Mapping) -> Hyperresolution:
    with malformed(ComplexError, "hyperresolution document"):
        doc = json_object(doc, "the document")
        levels = tuple(complex_from_doc(json_object(cd, "levels[{}]", i))
                       for i, cd in enumerate(json_list(doc["levels"], "'levels'")))
        if not levels:
            raise ValueError("'levels' must list at least one level")
        faces = {}
        for e, entry in enumerate(json_list(doc.get("faces", []), "'faces'")):
            entry = json_object(entry, "faces[{}]", e)
            i = json_int(entry["level"], "a face map's level")
            j = json_int(entry["face_index"], "a face map's face_index")
            if not (1 <= i < len(levels) and 0 <= j <= i):
                raise ValueError(f"face map d_{j} at level {i} does not exist")
            if (i, j) in faces:
                raise ValueError(f"face map d_{j} at level {i} is given twice")
            faces[(i, j)] = _maps_from_doc(entry.get("matrix", {}), levels[i],
                                           levels[i - 1], f"faces[{e}]['matrix']")
    return Hyperresolution(levels, faces)
