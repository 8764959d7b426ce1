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
from typing import Mapping, TypeAlias

from .complexes import (
    ChainComplex,
    ComplexError,
    FilteredComplex,
    complex_from_doc,
    complex_to_doc,
    deligne_shift,
    filtered_from_doc,
    filtered_to_doc,
)
from .gf2 import BitMatrix, BitSubspace
from .pages import SpectralSequence, transported_page


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
        out = []
        for s in self.vertex_masks():
            if s not in self.objects:
                out.append(f"missing diagram vertex for mask {s}")
        if out:
            return out
        for s, t in self.edges():
            src, dst = self.objects[s], self.objects[t]
            maps = self.maps.get((s, t), {})
            if not _is_chain_map(maps, src.complex, dst.complex):
                out.append(f"map {s}->{t} is not a chain map")
                continue
            # Filtered: image of each level stays in the same level.
            lo = min(src.p_range[0], dst.p_range[0])
            hi = max(src.p_range[1], dst.p_range[1])
            for p in range(lo, hi + 1):
                for k in src.complex.degrees():
                    f = self.map_between(s, t, k)
                    img = BitSubspace.span(
                        f.rows, [f.mul_vec(b) for b in src.level(p, k).basis])
                    if not dst.level(p, k).contains_subspace(img):
                        out.append(
                            f"map {s}->{t} does not preserve level p={p} in degree {k}")
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
    masks = sorted(d.objects)
    # offsets[(s, k)] = starting index of block (s, i) inside total degree
    # i + |s| - 1; we key blocks by (s, internal degree i).
    total_dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}
    for s in masks:
        cx = d.objects[s].complex
        shift = s.bit_count() - 1
        for i in cx.degrees():
            k = i + shift
            offsets[(s, i)] = total_dims.get(k, 0)
            total_dims[k] = total_dims.get(k, 0) + cx.dim(i)

    boundary: dict[int, BitMatrix] = {}
    for k in sorted(total_dims):
        entries: list[tuple[int, int]] = []
        for s in masks:
            cx = d.objects[s].complex
            shift = s.bit_count() - 1
            i = k - shift
            if cx.dim(i) == 0:
                continue
            col0 = offsets[(s, i)]
            # internal boundary into block (s, i-1)
            if cx.dim(i - 1):
                row0 = offsets[(s, i - 1)]
                entries.extend(
                    (row0 + r, col0 + c) for r, c in cx.d(i).entries())
            # diagram maps into blocks (t, i) at total degree k-1
            m = s
            while m:
                bit = m & -m
                m ^= bit
                t = s ^ bit
                if d.objects[t].complex.dim(i) == 0:
                    continue
                row0 = offsets[(t, i)]
                f = d.map_between(s, t, i)
                entries.extend((row0 + r, col0 + c) for r, c in f.entries())
        boundary[k] = BitMatrix.from_entries(
            total_dims.get(k - 1, 0), total_dims[k], entries)

    total = ChainComplex.make(total_dims, boundary)

    p_min = min(d.objects[s].p_range[0] for s in masks)
    p_max = max(d.objects[s].p_range[1] for s in masks)
    levels: dict[int, dict[int, BitSubspace]] = {}
    for p in range(p_min, p_max + 1):
        levels[p] = {}
        for k in total.degrees():
            vecs = []
            for s in masks:
                shift = s.bit_count() - 1
                i = k - shift
                if d.objects[s].complex.dim(i) == 0:
                    continue
                col0 = offsets[(s, i)]
                for b in d.objects[s].level(p, i).basis:
                    vecs.append(b << col0)
            levels[p][k] = BitSubspace.span(total.dim(k), vecs)
    return FilteredComplex(total, levels)


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
    the blocks with i <= p.
    """
    n = len(h.levels)
    total_dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}
    for i, cx in enumerate(h.levels):
        for j in cx.degrees():
            k = i + j
            offsets[(i, j)] = total_dims.get(k, 0)
            total_dims[k] = total_dims.get(k, 0) + cx.dim(j)

    boundary: dict[int, BitMatrix] = {}
    for k in sorted(total_dims):
        entries: list[tuple[int, int]] = []
        for i, cx in enumerate(h.levels):
            j = k - i
            if cx.dim(j) == 0:
                continue
            col0 = offsets[(i, j)]
            if cx.dim(j - 1):
                row0 = offsets[(i, j - 1)]
                entries.extend(
                    (row0 + r, col0 + c) for r, c in cx.d(j).entries())
            if i > 0 and h.levels[i - 1].dim(j):
                row0 = offsets[(i - 1, j)]
                for face_j in range(i + 1):
                    f = h.face(i, face_j, j)
                    entries.extend(
                        (row0 + r, col0 + c) for r, c in f.entries())
        boundary[k] = BitMatrix.from_entries(
            total_dims.get(k - 1, 0), total_dims[k], entries)

    total = ChainComplex.make(total_dims, boundary)
    levels: dict[int, dict[int, BitSubspace]] = {}
    for p in range(n):
        levels[p] = {}
        for k in total.degrees():
            vecs = []
            for i in range(min(p, n - 1) + 1):
                j = k - i
                if h.levels[i].dim(j) == 0:
                    continue
                col0 = offsets[(i, j)]
                vecs.extend((1 << (col0 + c)) for c in range(h.levels[i].dim(j)))
            levels[p][k] = BitSubspace.span(total.dim(k), vecs)
    return FilteredComplex(total, levels)


@dataclass(frozen=True)
class WeightCompareReport:
    ok: bool
    mismatches: tuple[tuple[int, int, int, int, int], ...]  # (r, p, q, got, want)


def hyperres_weight_compare(ss: SpectralSequence) -> WeightCompareReport:
    """Compare the level-filtered pages of a hyperresolution, ``ss`` of
    its :func:`skeleton_filtration`, with the pages of the shifted
    filtration on the same total complex.

    For every r >= 1 the shifted page at (p, q) must equal the original
    page r+1 transported to (2p+q, -p).
    """
    ss_dec = SpectralSequence(deligne_shift(ss.fc))
    mismatches = []
    for r in range(1, max(ss.r_inf, ss_dec.r_inf) + 1):
        got = ss_dec.page(r)
        want = transported_page(ss, r + 1)
        for key in sorted(set(got) | set(want)):
            g, w = got.get(key, 0), want.get(key, 0)
            if g != w:
                mismatches.append((r, key[0], key[1], g, w))
    return WeightCompareReport(not mismatches, tuple(mismatches))


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
    n = int(doc["n"])
    objects = {int(s): filtered_from_doc(od) for s, od in doc["objects"].items()}
    maps = {}
    for entry in doc.get("maps", []):
        s, t = int(entry["from_mask"]), int(entry["to_mask"])
        maps[(s, t)] = _maps_from_doc(
            entry.get("matrices", {}), objects[s].complex, objects[t].complex)
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
    levels = tuple(complex_from_doc(cd) for cd in doc["levels"])
    faces = {}
    for entry in doc.get("faces", []):
        i, j = int(entry["level"]), int(entry["face_index"])
        faces[(i, j)] = _maps_from_doc(
            entry.get("matrix", {}), levels[i], levels[i - 1])
    return Hyperresolution(levels, faces)
