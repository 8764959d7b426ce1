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
from typing import Mapping, TypeAlias

from .complexes import (
    ChainComplex,
    ComplexError,
    FilteredComplex,
    complex_from_doc,
    complex_to_doc,
    filtered_from_doc,
    filtered_to_doc,
    trivial_filtration,
)
from .gf2 import BitMatrix
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
    for k in set(src.degrees()) | set(dst.degrees()):
        f_k = _map_matrix(maps, src, dst, k)
        f_k1 = _map_matrix(maps, src, dst, k - 1)
        if f_k.rows != dst.dim(k) or f_k.cols != src.dim(k):
            return False
        if dst.d(k).mul(f_k).row_data != f_k1.mul(src.d(k)).row_data:
            return False
    return True


def _compose(f: DegreeMaps, g: DegreeMaps, src: ChainComplex, mid: ChainComplex,
             dst: ChainComplex) -> dict[int, BitMatrix]:
    """Composite dst <- mid <- src, degreewise."""
    out = {}
    for k in src.degrees():
        out[k] = _map_matrix(f, mid, dst, k).mul(_map_matrix(g, src, mid, k))
    return out


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
        if self.n < 0:
            return [f"diagram shape n={self.n} is negative"]
        size = 1 << (self.n + 1)
        out = [f"diagram vertex for mask {s} is outside the shape"
               for s in self.objects if not 0 <= s < size]
        if len(self.objects) - len(out) < size:
            out.append(f"a diagram of shape n={self.n} needs {size} vertices, "
                       f"got {len(self.objects) - len(out)}")
        if out:
            return out
        edges = self.edges()
        out = [f"map {s}->{t} is not along a codimension-one face"
               for s, t in sorted(set(self.maps) - set(edges))]
        for s, t in edges:
            src, dst = self.objects[s], self.objects[t]
            maps = self.maps.get((s, t), {})
            if not _is_chain_map(maps, src.complex, dst.complex):
                out.append(f"map {s}->{t} is not a chain map")
                continue
            # Filtered: no basis vector's image has a coordinate of a
            # higher level than the vector.
            for k in src.complex.degrees():
                if not dst.complex.dim(k):
                    continue
                f, dst_levels = self.map_between(s, t, k), dst.levels[k]
                raised = sorted({
                    p for v, p in zip(src.basis[k], src.levels[k])
                    if (c := dst.coordinates(k, f.mul_vec(v)))
                    and dst_levels[c.bit_length() - 1] > p
                })
                out.extend(
                    f"map {s}->{t} does not preserve level p={p} in degree {k}"
                    for p in raised)
        # Square commutativity for each codimension-two face pair.
        for s in self.vertex_masks():
            if s.bit_count() < 2:
                continue
            bits = [1 << i for i in range(self.n + 1) if s & (1 << i)]
            for a in range(len(bits)):
                for b in range(a + 1, len(bits)):
                    u = s ^ bits[a] ^ bits[b]
                    path1 = _compose(
                        self.maps.get((s ^ bits[a], u), {}),
                        self.maps.get((s, s ^ bits[a]), {}),
                        self.objects[s].complex,
                        self.objects[s ^ bits[a]].complex,
                        self.objects[u].complex)
                    path2 = _compose(
                        self.maps.get((s ^ bits[b], u), {}),
                        self.maps.get((s, s ^ bits[b]), {}),
                        self.objects[s].complex,
                        self.objects[s ^ bits[b]].complex,
                        self.objects[u].complex)
                    for k in self.objects[s].complex.degrees():
                        if path1[k].row_data != path2[k].row_data:
                            out.append(
                                f"square {s}->{u} does not commute in degree {k}")
                            break
        return out


def simple_filtered(d: CubicalDiagram) -> FilteredComplex:
    """Total (simple) filtered complex of a diagram.

    Degree k collects the blocks (S, i) with i + |S| - 1 = k; the
    boundary applies each object's boundary within its block and every
    diagram map between blocks; the filtration is the blockwise direct
    sum of the object filtrations.
    """
    return _totalize(
        {s: (s.bit_count() - 1, d.objects[s]) for s in sorted(d.objects)}, d.maps)


def _totalize(
    blocks: Mapping[int, tuple[int, FilteredComplex]],
    maps: Mapping[tuple[int, int], DegreeMaps],
) -> FilteredComplex:
    """The total filtered complex of blocks joined by maps.

    ``blocks[b] = (shift, fc)`` places degree i of fc in total degree
    i + shift, blocks in order; ``maps[(b, c)][i]`` maps degree i of block
    b to degree i of block c, whose shift is one lower.  The boundary is
    each block's own plus every map out of it, and the adapted bases of
    the blocks, side by side and sorted by level, filter the total.
    """
    dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}  # (block, i) -> first index
    for b, (shift, fc) in blocks.items():
        for i in fc.complex.degrees():
            offsets[(b, i)] = dims.get(i + shift, 0)
            dims[i + shift] = offsets[(b, i)] + fc.complex.dim(i)
    pieces = [((b, i), (b, i - 1), blocks[b][1].complex.d(i)) for b, i in offsets]
    pieces += [((b, i), (c, i), m) for (b, c), by_i in maps.items() for i, m in by_i.items()]
    entries: dict[int, list[tuple[int, int]]] = {k: [] for k in dims}
    for src, dst, m in pieces:
        if src in offsets and dst in offsets:
            col0, row0 = offsets[src], offsets[dst]
            entries[src[1] + blocks[src[0]][0]].extend(
                (row0 + r, col0 + c) for r, c in m.entries())
    total = ChainComplex.make(dims, {
        k: BitMatrix.from_entries(dims.get(k - 1, 0), dims[k], es)
        for k, es in entries.items()})
    by_level: dict[int, list[tuple[int, int]]] = {}
    for (b, i), col0 in offsets.items():
        shift, fc = blocks[b]
        by_level.setdefault(i + shift, []).extend(
            (p, v << col0) for v, p in zip(fc.basis[i], fc.levels[i]))
    basis, levels = {}, {}
    for k, pairs in by_level.items():
        pairs.sort(key=lambda pv: pv[0])
        levels[k] = tuple(p for p, _ in pairs)
        basis[k] = tuple(v for _, v in pairs)
    p_range = (min((fc.p_range[0] for _, fc in blocks.values()), default=0),
               max((fc.p_range[1] for _, fc in blocks.values()), default=-1))
    return FilteredComplex(total, p_range, basis, levels)


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
                        if lhs.row_data != rhs.row_data:
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
    return _totalize(
        {i: (i, trivial_filtration(cx, i)) for i, cx in enumerate(h.levels)}, face_sums)


# ---------------------------------------------------------------------------
# Serialization


def _maps_to_doc(maps: DegreeMaps) -> dict:
    return {str(k): sorted(map(list, m.entries()))
            for k, m in sorted(maps.items())}


def _maps_from_doc(doc: Mapping, src: ChainComplex, dst: ChainComplex) -> dict[int, BitMatrix]:
    out = {}
    for k_str, entries in doc.items():
        k = int(k_str)
        out[k] = BitMatrix.from_entries(
            dst.dim(k), src.dim(k), [(int(r), int(c)) for r, c in entries])
    return out


def _malformed(what: str, exc: Exception) -> ComplexError:
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ComplexError(f"malformed {what} document: {reason}")


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
    try:
        n = int(doc["n"])
        objects = {int(s): filtered_from_doc(od) for s, od in doc["objects"].items()}
        maps = {}
        for entry in doc.get("maps", []):
            s, t = int(entry["from_mask"]), int(entry["to_mask"])
            if s not in objects or t not in objects:
                raise ValueError(f"map {s}->{t} names a missing vertex")
            maps[(s, t)] = _maps_from_doc(
                entry.get("matrices", {}), objects[s].complex, objects[t].complex)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        if isinstance(exc, ComplexError):
            raise
        raise _malformed("diagram", exc) from exc
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
    try:
        levels = tuple(complex_from_doc(cd) for cd in doc["levels"])
        faces = {}
        for entry in doc.get("faces", []):
            i, j = int(entry["level"]), int(entry["face_index"])
            if not (1 <= i < len(levels) and 0 <= j <= i):
                raise ValueError(f"face map d_{j} at level {i} does not exist")
            faces[(i, j)] = _maps_from_doc(
                entry.get("matrix", {}), levels[i], levels[i - 1])
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        if isinstance(exc, ComplexError):
            raise
        raise _malformed("hyperresolution", exc) from exc
    return Hyperresolution(levels, faces)
