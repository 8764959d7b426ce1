"""Independent reference implementations used to cross-check results.

Everything here works on plain lists of 0/1 ints (no bit packing, no
code shared with the package under test) so agreement is meaningful;
``from_dense`` and ``matrix_to_dense`` convert between such lists and the
package's ``BitMatrix``.  The exception is the reference subspace algebra
(``subspace_sum``, ``intersect``, ``preimage``, ``image_of_subspace``,
``rank_kernel_image``, ``inverse`` and ``boundaries``), built on the
package's public ``rref``, ``kernel_of_columns``, ``BitMatrix`` and
``BitSubspace`` and checked against enumeration and dense rank in
test_gf2.  The package needs none of it.  ``relative_cycles_oracle`` and
``deligne_shift_oracle`` write the defining formula F_p ∩ ∂⁻¹F_t with it,
as the reference for the one-kernel computation in adapted bases.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from weightlab.complexes import FilteredComplex
from weightlab.gf2 import BitMatrix, BitSubspace, DimensionError, kernel_of_columns, rref


def dense_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on dense 0/1 lists."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] % 2:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] % 2:
                m[i] = [(a + b) % 2 for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def span_vectors(basis: list[list[int]], width: int | None = None) -> set[tuple[int, ...]]:
    """All vectors of the span, enumerated (small dims only)."""
    if width is None:
        width = len(basis[0]) if basis else 0
    if not basis:
        return {tuple([0] * width)}
    out = set()
    for coeffs in product((0, 1), repeat=len(basis)):
        v = [0] * width
        for c, b in zip(coeffs, basis):
            if c:
                v = [(a + x) % 2 for a, x in zip(v, b)]
        out.add(tuple(v))
    return out


def from_dense(dense: Sequence[Sequence[int]], cols: int | None = None) -> BitMatrix:
    """Dense list of rows of 0/1 entries -> BitMatrix (test-side convenience)."""
    if cols is None:
        cols = len(dense[0]) if dense else 0
    return BitMatrix.from_entries(len(dense), cols, [
        (i, j) for i, row in enumerate(dense) for j, b in enumerate(row) if b & 1])


def matrix_to_dense(m) -> list[list[int]]:
    """BitMatrix -> dense list of rows (test-side convenience); reads the
    column words directly, as a call per entry dominates the product tests."""
    return [[(col >> i) & 1 for col in m.col_data] for i in range(m.rows)]


def betti_numbers(dims: dict[int, int], boundary_dense: dict[int, list[list[int]]]) -> dict[int, int]:
    """Mod-2 Betti numbers from dense boundary matrices by rank counting."""
    def rank(k: int) -> int:
        rows = boundary_dense.get(k)
        if not rows or not rows[0]:
            return 0
        return dense_rank(rows)
    out = {}
    for k, n in dims.items():
        out[k] = n - rank(k) - rank(k + 1)
    return out


def subspace_from_bits(basis: list[int], width: int) -> set[tuple[int, ...]]:
    dense = [[(b >> j) & 1 for j in range(width)] for b in basis]
    return span_vectors(dense) if dense else {tuple([0] * width)}


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer matrix product."""
    cols = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def unimodular_inverse(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (result is integral)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            x = a[i][j]
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(x))
        out.append(row)
    return out


def rational_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def snf_saturate_mod2(vectors: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """The RREF basis of the mod-2 saturation, always by the package's
    Smith normal form route (no mod-2 shortcut), reduced and echelonized
    here on dense rows."""
    from weightlab.lattice import saturation_basis

    rows = [[x % 2 for x in row] for row in saturation_basis(vectors, n)] if vectors else []
    # Gauss-Jordan over GF(2), pivot = lowest coordinate.
    basis: list[list[int]] = []
    for c in range(n):
        piv = next((r for r in rows if r[c]), None)
        if piv is None:
            continue
        rows = [r for r in rows if r is not piv]
        for r in rows + basis:
            if r[c]:
                r[:] = [(a + b) % 2 for a, b in zip(r, piv)]
        basis.append(piv)
    return tuple(sum(1 << j for j, x in enumerate(r) if x) for r in basis)


def oracle_orbit_group(n: int, ray_vectors) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """(ray span basis, free coordinates, element of every v < 2^n) for
    the orbit group (Z/2)^n / span, on the SNF route: the complement is
    the unit vectors off the pivots, and v's element reads the free
    coordinates of v reduced by the span."""
    span = snf_saturate_mod2(ray_vectors, n)
    pivots = {(b & -b).bit_length() - 1 for b in span}
    free = [i for i in range(n) if i not in pivots]
    coords = []
    for v in range(1 << n):
        for b in span:
            if v >> ((b & -b).bit_length() - 1) & 1:
                v ^= b
        coords.append(sum(1 << j for j, i in enumerate(free) if v >> i & 1))
    return span, tuple(free), coords


def pairwise_fan_diagnostics(n: int, rays, cones) -> list[str]:
    """``Fan.diagnostics`` as a pairwise scan over the face lists: the
    gradedness and diamond checks look for intermediate faces among all
    faces of each cone, in O(Σ |faces|²).  The ray checks reuse the
    package's primitivity helper and take ranks by Bareiss elimination;
    repeated rays are found by comparing each used ray with every earlier
    one.  The face-lattice checks share no code with it."""
    from weightlab.lattice import is_primitive

    out = []
    if "0" not in cones:
        out.append("zero cone missing")
    for ray in rays:
        if len(ray) != n:
            out.append(f"ray {ray} has wrong length")
        elif not is_primitive(ray):
            out.append(f"ray {ray} is not primitive")
    used = sorted({i for c in cones.values() for i in c.ray_indices if 0 <= i < len(rays)})
    for pos, i in enumerate(used):
        same = [j for j in used[:pos] if rays[j] == rays[i]]
        if same:
            out.append(f"rays {same[0]} and {i} are the same vector {list(rays[i])}")
    for c in cones.values():
        bad = sorted(i for i in c.ray_indices if not 0 <= i < len(rays))
        if bad:
            out.append(f"cone {c.id!r} uses ray indices {bad}, the fan has "
                       f"{len(rays)} rays")
        elif all(len(rays[i]) == n for i in c.ray_indices):
            want = rational_rank([rays[i] for i in sorted(c.ray_indices)])
            if c.dim != want:
                out.append(f"cone {c.id!r} declares dim {c.dim}, rays have rank {want}")
        for fid in sorted(c.faces):
            if fid not in cones:
                out.append(f"cone {c.id!r} lists unknown face {fid!r}")
            elif cones[fid].dim >= c.dim:
                out.append(f"face {fid!r} of {c.id!r} does not drop dimension")
            elif any(i not in c.ray_indices for i in cones[fid].ray_indices):
                stray = sorted(i for i in cones[fid].ray_indices if i not in c.ray_indices)
                out.append(f"face {fid!r} of {c.id!r} uses rays {stray}, "
                           f"which {c.id!r} does not")
        if c.id != "0" and "0" not in c.faces:
            out.append(f"cone {c.id!r} does not list the zero cone as a face")
        for fid in c.faces:
            if fid in cones:
                if cones[fid].faces - c.faces:
                    out.append(f"faces of cone {c.id!r} are not transitively closed")
                    break
    if out:
        return out
    for c in cones.values():
        for fid in sorted(c.faces):
            intermediate = any(
                fid in cones[mid].faces for mid in c.faces if mid != fid)
            if not intermediate and cones[fid].dim != c.dim - 1:
                out.append(
                    f"face lattice not graded: {fid!r} < {c.id!r} skips dimension")
    for c in cones.values():
        for fid in sorted(c.faces):
            if cones[fid].dim != c.dim - 2:
                continue
            between = [
                mid for mid in c.faces
                if cones[mid].dim == c.dim - 1 and fid in cones[mid].faces
            ]
            if len(between) != 2:
                out.append(
                    f"diamond property fails between {fid!r} and {c.id!r} "
                    f"({len(between)} intermediate cones)")
    return out


def bergman_fan_doc(lines) -> dict:
    """The fine Bergman fan of a simple matroid of rank 3, given by its
    lines of three or more points, as a simplicial fan document.  Two
    points on no given line make a line of their own.  Each proper nonempty
    flat F gives the ray e_F of Z^E/Z(1, ..., 1), written in the
    coordinates of E without its last point (e_F minus (1, ..., 1) when F
    holds that point), and each point on a line gives a cone."""
    points = sorted(set().union(*map(set, lines)))
    lines = [frozenset(line) for line in lines]
    lines += [frozenset(pair) for pair in combinations(points, 2)
              if not any(set(pair) <= line for line in lines)]
    flats = [frozenset([p]) for p in points] + lines
    rays = [[(p in f) - (points[-1] in f) for p in points[:-1]] for f in flats]
    return {"lattice_rank": len(points) - 1, "rays": rays, "simplicial": True,
            "cones": [{"rays": [flats.index(frozenset([p])), flats.index(line)]}
                      for line in lines for p in sorted(line)]}


def oracle_simplicial_cones(doc) -> dict[str, tuple[list[int], int, list[str]]]:
    """The cones ``parse_fan`` makes from a valid simplicial document with
    string or null ids, as {id: (sorted rays, dim, sorted faces)}, by a
    walk-down and a union: every subset of a declared ray set is reached
    by dropping one ray at a time, and a cone's faces are the union over
    its facets of each facet and its faces.  A cone
    without a declared id is "c" and its sorted ray indices, primed past
    any id declared for other rays."""
    raw = [(cd.get("id"), frozenset(cd["rays"])) for cd in doc["cones"]]
    rays_of = {cid: idx for cid, idx in raw if cid is not None}

    def name(idx):
        if not idx:
            return "0"
        cid = "c" + ",".join(map(str, sorted(idx)))
        while rays_of.get(cid, idx) != idx:
            cid += "'"
        return cid

    declared = {idx: name(idx) if cid is None else cid for cid, idx in raw}
    facets = {}
    todo = [frozenset(), *declared]
    while todo:
        idx = todo.pop()
        if idx not in facets:
            facets[idx] = [idx - {i} for i in idx]
            todo.extend(facets[idx])
    ids = {idx: declared[idx] if idx in declared else name(idx) for idx in facets}
    ids[frozenset()] = "0"
    faces = {}
    for idx in sorted(facets, key=len):
        faces[idx] = frozenset().union(*(faces[f] | {ids[f]} for f in facets[idx]))
    return {ids[idx]: (sorted(idx), len(idx), sorted(faces[idx])) for idx in facets}


# ---------------------------------------------------------------------------
# Euler calculus: the cell-keyed forms the numbered operators replaced.


def oracle_link(cx, weights) -> dict:
    """The link operator in pull form, cell by cell in ``dims`` order:
    (La)(s) = a(s) * (1 + (-1)^(dim s - 1)) + sum over the cofaces t of s
    of a(t) * (-1)^(dim t - 1), the cofaces found by scanning every
    cell's face set."""
    out = {}
    for c, s in cx.dims.items():
        val = weights.get(c, 0) * (0 if s % 2 == 0 else 2)
        for tau, fs in cx.faces.items():
            if c in fs and weights.get(tau, 0):
                a = weights[tau]
                val += a if (cx.dims[tau] - 1) % 2 == 0 else -a
        if val:
            out[c] = val
    return out


def oracle_chain_boundary(cx, k, members) -> frozenset:
    """The parity boundary of a k-chain read from the pull-form link: the
    (k-1)-cells where the link of the chain's indicator is odd."""
    if k == 0:
        return frozenset()
    lam = oracle_link(cx, dict.fromkeys(members, 1))
    return frozenset(c for c, v in lam.items() if v % 2 and cx.dims[c] == k - 1)


def oracle_map_fault(source, target, assignment) -> str | None:
    """The first fault of a cellwise map, scanning the assignment face by
    face, the faces of a cell in cell order, or None for a valid map."""
    order = {c: i for i, c in enumerate(source.dims)}
    for c in source.dims:
        if c not in assignment:
            return f"map not defined on cell {c}"
    for c, d in assignment.items():
        if c not in source.dims:
            return f"map assigns cell {c}, which is not in the source"
        if d not in target.dims:
            return f"image cell {d} not in target"
        if target.dims[d] > source.dims[c]:
            return f"map raises dimension on {c}"
        for f in sorted(source.faces[c], key=order.__getitem__):
            img = assignment[f]
            if img != d and img not in target.faces[d]:
                return f"map not face-compatible at {f} < {c}"
    return None


def oracle_simplex_order(simplices) -> list:
    """The cells of the closure of (vertex set, copy) simplices in order
    of first appearance: each simplex, then its proper subsets (copy 0)
    by size and lexicographically."""
    from itertools import combinations

    order = {}
    for vs, copy in simplices:
        vs = tuple(sorted(set(vs)))
        order.setdefault(("s", vs, copy), None)
        for r in range(1, len(vs)):
            for sub in combinations(vs, r):
                order.setdefault(("s", sub, 0), None)
    return list(order)


def oracle_simplex_tables(simplices) -> tuple[dict, dict]:
    """The dims and face sets of the closure of (vertex set, copy)
    simplices, keyed in order of first appearance: every cell's faces
    are the proper subsets of its vertices, copy 0."""
    from itertools import combinations

    dims = {c: len(c[1]) - 1 for c in oracle_simplex_order(simplices)}
    faces = {c: frozenset(("s", sub, 0) for r in range(1, len(c[1]))
                          for sub in combinations(c[1], r)) for c in dims}
    return dims, faces


def oracle_product_tables(a, b) -> tuple[dict, dict]:
    """The dims and face sets of the product complex, keyed by nested
    cell: the faces of (ca, cb) are the pairs from the closures of ca
    and cb, but the cell itself."""
    dims, faces = {}, {}
    for ca, da in a.dims.items():
        for cb, db in b.dims.items():
            dims[("x", ca, cb)] = da + db
            faces[("x", ca, cb)] = frozenset(
                ("x", fa, fb) for fa in a.faces[ca] | {ca} for fb in b.faces[cb] | {cb}
                if (fa, fb) != (ca, cb))
    return dims, faces


def oracle_restrict_fault(cx, is_open) -> str | None:
    """The first fault of an openness predicate, scanning the cofaces of
    each open cell, both in cell order, or None for an open predicate."""
    order = {c: i for i, c in enumerate(cx.dims)}
    for cell in cx.dims:
        if is_open(cell):
            for tau in sorted(cx.cofaces[cell], key=order.__getitem__):
                if not is_open(tau):
                    return f"predicate is not open at {cell} < {tau}"
    return None


def oracle_sorted_cells(dims, k=None) -> list:
    """The cells of dimension k (every cell for None), by dimension and text."""
    return sorted((c for c in dims if k is None or dims[c] == k),
                  key=lambda c: (dims[c], str(c)))


def oracle_collapse_page(page, r_inf: int) -> int:
    """The least r >= 2 whose reindexed page equals the limit page, found
    by walking the pages: ``page(r)`` is reindexed page r, and page
    r_inf + 1 is the limit."""
    limit = page(r_inf + 1)
    return next(r for r in range(2, r_inf + 2) if page(r) == limit)


def oracle_complex_diagnostics(dims, boundary) -> list[str]:
    """``complexes.complex_diagnostics`` with ∂∂ tested row-wise: the
    product d_k·d_{k+1} is formed as a matrix and compared with zero."""
    from weightlab.gf2 import BitMatrix

    out = []
    def dim(k: int) -> int:
        return dims.get(k, 0)
    for k, m in boundary.items():
        if m.cols != dim(k) or m.rows != dim(k - 1):
            out.append(f"boundary shape mismatch in degree {k}")
    if out:
        return out
    for k in sorted(dims):
        d_k = boundary.get(k, BitMatrix.zero(dim(k - 1), dim(k)))
        d_k1 = boundary.get(k + 1, BitMatrix.zero(dim(k), dim(k + 1)))
        if not d_k.mul(d_k1).is_zero():
            out.append(f"boundary squared is nonzero at degree {k + 1}")
    return out


def oracle_toric_boundary(fan, groups) -> tuple[dict, dict]:
    """The boundary and levels of ``toric_cell_complex(fan).filtered``
    from the given orbit groups, as the build first wrote them: every
    cover walks the subsets of its live generators itself, and each
    column is a list of row indices packed at the end."""
    from math import comb
    from weightlab.toric import _bit_masks, _cover_images, _level_order, _times_image

    by_codim: dict[int, list[str]] = {}
    for cid in fan.cone_ids():
        by_codim.setdefault(fan.codim(cid), []).append(cid)
    dims = {k: len(cids) << k for k, cids in by_codim.items()}
    offsets = {cid: i << k for k, cids in by_codim.items() for i, cid in enumerate(cids)}
    position: dict[int, list[int]] = {}
    for k, cids in by_codim.items():
        position[k] = pos = [0] * dims[k]
        for j, b in enumerate(_level_order(k, len(cids))):
            pos[b] = j
    boundary = {}
    for k, cids in by_codim.items():
        if k - 1 not in by_codim:
            continue
        rows_at, cols_at = position[k - 1], position[k]
        without = _bit_masks(k - 1)
        columns: list[list[int]] = [[] for _ in range(dims[k])]
        for sigma in cids:
            col0 = offsets[sigma]
            for tau in fan.covers(sigma):
                row0 = offsets[tau]
                gens = _cover_images(groups[sigma], groups[tau])
                live = sum(1 << i for i, c in enumerate(gens) if c)
                images = {0: 1}
                columns[cols_at[col0]].append(rows_at[row0])
                s = -live & live
                while s:
                    low = s & -s
                    img, c = images[s ^ low], gens[low.bit_length() - 1]
                    if c & (c - 1):
                        img = _times_image(img, c, without)
                    else:
                        img = (img & without[c.bit_length() - 1]) << c
                    images[s] = img
                    column = columns[cols_at[col0 + s]]
                    while img:
                        t = img & -img
                        column.append(rows_at[row0 + t.bit_length() - 1])
                        img ^= t
                    s = (s - live) & live
        boundary[k] = BitMatrix.from_column_indices(dims[k - 1], columns)
    levels = {
        k: tuple(-w for w in range(k, -1, -1) for _ in range(len(cids) * comb(k, w)))
        for k, cids in by_codim.items()
    }
    return boundary, levels


def oracle_orbit_sum_poly(fan):
    """Σ_σ (t − 1)^codim σ, one polynomial product per factor."""
    from weightlab.poly import Poly

    t_minus_1 = Poly.make([-1, 1])
    total = Poly.zero()
    for cid in fan.cone_ids():
        term = Poly.one()
        for _ in range(fan.codim(cid)):
            term = term * t_minus_1
        total = total + term
    return total


def oracle_page_doc(pages, reindexed, infinity, report, profile) -> str:
    """The ``--format doc`` document through the ``json`` encoder: rows
    as dicts, the profile with string keys, ``indent=2, sort_keys=True``."""
    import json

    return json.dumps({
        "pages": [{"r": r, "p": p, "q": q, "dim": d} for r, p, q, d in pages],
        "reindexed": [{"r": r, "p": p, "q": q, "dim": d} for r, p, q, d in reindexed],
        "infinity": [{"p": p, "q": q, "dim": d} for p, q, d in infinity],
        "pure": report.is_pure,
        "collapse_page": report.collapse_page,
        "support_ok": report.support_ok,
        "weight_profile": {
            str(k): {str(p): d for p, d in sorted(by_p.items())}
            for k, by_p in sorted(profile.items())
        },
    }, indent=2, sort_keys=True)


def oracle_totalize(blocks, maps) -> tuple[dict, dict]:
    """The total complex of ``complexes.totalize``'s blocks and maps,
    assembled entry by entry: (dims, entries) with ``entries[k]`` the set
    of (row, column) entries of the total boundary of degree k, repeated
    entries cancelling.  Each piece is read through ``matrix_to_dense``."""
    dims: dict = {}
    offsets: dict = {}
    for b, (shift, fc) in blocks.items():
        for i in fc.complex.degrees():
            offsets[(b, i)] = dims.get(i + shift, 0)
            dims[i + shift] = offsets[(b, i)] + fc.complex.dim(i)
    pieces = [((b, i), (b, i - 1), blocks[b][1].complex.d(i)) for b, i in offsets]
    pieces += [((b, i), (c, i), m) for (b, c), by_i in maps.items() for i, m in by_i.items()]
    entries: dict = {k: set() for k in dims}
    for src, dst, m in pieces:
        if src in offsets and dst in offsets:
            col0, row0 = offsets[src], offsets[dst]
            total = entries[src[1] + blocks[src[0]][0]]
            for r, row in enumerate(matrix_to_dense(m)):
                for c, x in enumerate(row):
                    if x:
                        total ^= {(row0 + r, col0 + c)}
    return dims, entries


def augmentation_to_cells(order: Sequence[int], k: int, v: int) -> int:
    """A degree-k vector of the toric augmentation basis written in the
    cell basis.  Coordinate j is the monomial a_S of the cone block at
    position ``order[j]`` = c·2^k + S, and a_S = Σ_{t ⊆ S} x^t is the sum
    of the cells c·2^k + t."""
    out = 0
    for j, position in enumerate(order):
        if v >> j & 1:
            block, s = position >> k << k, position & ((1 << k) - 1)
            for t in range(1 << k):
                if t & s == t:
                    out ^= 1 << (block + t)
    return out


def vec_to_string(v: int, width: int) -> str:
    """``gf2.vec_to_string`` as first written: one shift per coordinate."""
    return "".join("1" if (v >> i) & 1 else "0" for i in range(width))


def kunneth_bars(b1: Counter, b2: Counter) -> Counter:
    """The barcode of a tensor product of filtered complexes, from the
    barcodes of its factors: bars (degree, birth, death), death None for an
    unpaired vector, levels adding.  The interval rules of Gakhar–Perea,
    "Künneth formulae in persistent homology" (2019)."""
    out: Counter = Counter()
    for (k, a, b), m in b1.items():
        for (l, c, d), n in b2.items():
            if b is None and d is None:
                out[(k + l, a + c, None)] += m * n
            elif d is None:
                out[(k + l, a + c, b + c)] += m * n
            elif b is None:
                out[(k + l, a + c, a + d)] += m * n
            else:
                g, G = sorted((b - a, d - c))
                out[(k + l, a + c, a + c + g)] += m * n
                out[(k + l + 1, a + c + G, a + c + G + g)] += m * n
    return out


def _same_ambient(a: BitSubspace, b: BitSubspace) -> int:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return a.ambient_dim


def subspace_sum(a: BitSubspace, b: BitSubspace) -> BitSubspace:
    """The span of two subspaces of one ambient space."""
    return BitSubspace.span(_same_ambient(a, b), a.basis + b.basis)


def intersect(a: BitSubspace, b: BitSubspace) -> BitSubspace:
    """a ∩ b from the kernel of (c, d) -> c·A + d·B over the stacked
    bases: the A-part of each kernel vector lies in both spans."""
    n = _same_ambient(a, b)
    mask = (1 << a.dim) - 1
    m = BitMatrix.from_columns(n, a.basis)
    return BitSubspace.span(n, [
        m.mul_vec(c & mask) for c in kernel_of_columns(a.basis + b.basis)])


def preimage(m: BitMatrix, target: BitSubspace) -> BitSubspace:
    """The subspace {x : m·x in target} of the domain of m: the kernel of
    the columns reduced modulo the target."""
    if m.rows != target.ambient_dim:
        raise DimensionError("target ambient does not match codomain")
    return BitSubspace.span(m.cols, kernel_of_columns([target.reduce(c) for c in m.col_data]))


def image_of_subspace(m: BitMatrix, sub: BitSubspace) -> BitSubspace:
    if m.cols != sub.ambient_dim:
        raise DimensionError("subspace ambient does not match domain")
    return BitSubspace.span(m.rows, [m.mul_vec(b) for b in sub.basis])


def rank_kernel_image(m: BitMatrix) -> tuple[int, BitSubspace, BitSubspace]:
    """Rank, kernel (in the domain) and image (in the codomain) of m."""
    kernel = BitSubspace.span(m.cols, kernel_of_columns(m.col_data))
    image = BitSubspace.span(m.rows, m.col_data)
    return image.dim, kernel, image


def inverse(m: BitMatrix) -> BitMatrix:
    """The inverse of a square m, from the RREF of its columns each tagged
    with its index above the rows: row i of the RREF is e_i plus the tag
    of the columns that sum to e_i, exactly when m is invertible."""
    if m.rows != m.cols:
        raise DimensionError("inverse of non-square matrix")
    n = m.rows
    rows = rref(c | 1 << (n + j) for j, c in enumerate(m.col_data))
    if [r & ((1 << n) - 1) for r in rows] != [1 << i for i in range(n)]:
        raise DimensionError("matrix is singular")
    return BitMatrix(n, n, tuple(r >> n for r in rows))


def boundaries(cx, k: int) -> BitSubspace:
    """The boundaries in degree k of a chain complex: the image of d_{k+1}."""
    return rank_kernel_image(cx.d(k + 1))[2]


def relative_cycles_oracle(fc, p: int, t: int, k: int):
    """F_p K_k ∩ ∂⁻¹(F_t K_{k-1}) by its defining formula: the level
    intersected with the preimage of the lower level."""
    return intersect(fc.level(p, k), preimage(fc.complex.d(k), fc.level(t, k - 1)))


def deligne_shift_oracle(fc) -> FilteredComplex:
    """The shifted filtration by its defining formula: level p in degree k
    is the part of the old level p + k whose boundary lies in the old
    level p + k - 1, over the same range of levels as ``deligne_shift``."""
    ks = fc.complex.degrees()
    if not ks:
        return fc
    p_min, p_max = fc.p_range
    return FilteredComplex.from_subspaces(fc.complex, {
        p: {k: relative_cycles_oracle(fc, p + k, p + k - 1, k) for k in ks}
        for p in range(p_min - ks[-1], p_max - ks[0] + 1)})
