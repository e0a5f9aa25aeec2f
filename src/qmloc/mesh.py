"""Conforming 2D triangulations: topology, patches, quality measures, refinement.

Element, vertex and edge ids are dense 0-based indices.  Lists of element
sets are CSR int64 pairs (offsets, ids), set i being ids[offsets[i]:offsets[i + 1]].
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement, NonConforming, UnknownLocus

_AREA_TOL = 1e-14  # relative to the element's squared longest edge
_HANG_TOL = 1e-12  # distance to an edge's line, relative to the edge length
_PAIR_BLOCK = 1 << 14  # candidate pairs per block of `box_point_pairs`


@dataclass(frozen=True)
class Triangulation:
    """Immutable conforming triangulation with derived topology.

    vertices: (nv, 2) coordinates.
    triangles: (nt, 3) vertex ids, counter-clockwise.
    edges: (ne, 2) vertex-id pairs, each pair sorted ascending.
    edge_elements: CSR, per edge 1 (boundary) or 2 (interior) element ids.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_elements: tuple              # CSR (offsets, ids)
    triangle_edges: np.ndarray        # (nt, 3) edge id opposite local vertex i
    boundary_vertices: np.ndarray     # (nv,) bool
    boundary_edges: np.ndarray        # (ne,) bool
    areas: np.ndarray                 # (nt,)
    diameters: np.ndarray             # h_K
    inball_diameters: np.ndarray      # rho_K = twice the inradius
    vertex_elements: tuple            # CSR: the star of each vertex, ascending
    parents: np.ndarray | None = None  # child-to-parent map after refinement

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def shape_parameter(self) -> float:
        return float(np.max(self.diameters / self.inball_diameters))

    def interior_edges(self):
        return tuple(int(e) for e in np.flatnonzero(~self.boundary_edges))

    def interior_vertices(self):
        return tuple(int(v) for v in np.flatnonzero(~self.boundary_vertices))


def build_triangulation(vertices, triangles) -> Triangulation:
    """Validate raw arrays and derive edges, boundary flags and quality measures.

    Every mesh that comes from outside the refinement goes through here:
    `load_mesh`, user arrays and the coarse built-in tilings.  Triangle
    orientation is normalized to counter-clockwise.  Raises
    DegenerateElement for zero-area triangles and NonConforming for
    over-shared edges, overlapping triangles on an edge or hanging vertices.
    """
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise ValueError("vertices must be an (n, 2) array")
    if tris.ndim != 2 or tris.shape[1] != 3 or len(tris) == 0:
        raise ValueError("triangles must be a non-empty (n, 3) array")
    if not np.all(np.isfinite(verts)):
        raise ValueError("vertex coordinates must be finite")
    if tris.min() < 0 or tris.max() >= len(verts):
        raise ValueError("triangle vertex id out of range")
    if len(_sorted_distinct(tris)) != len(verts):
        raise ValueError("every vertex must be referenced by a triangle")

    scale = np.maximum(np.max(np.abs(verts)), 1.0)
    with np.errstate(over="ignore"):  # squared lengths and areas below are <= 8 scale^2
        if not np.isfinite(8.0 * scale**2):
            raise ValueError(f"vertex coordinates up to {scale:.3g} overflow float64 in areas")
    flip, areas, diameters, rho, vertex_elements = _element_geometry(verts, tris)
    tris = tris.copy()
    tris[flip] = tris[flip][:, [0, 2, 1]]

    # edge table: one integer key lo*nv + hi per (element, local edge i), the
    # edge opposite local vertex i; sorted keys are the sorted vertex pairs
    nv = len(verts)
    first, second = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
    keys = (np.minimum(first, second) * nv + np.maximum(first, second)).ravel()
    uniq, where, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    over = np.flatnonzero(counts > 2)
    if len(over):
        e = int(over[np.argmin(where[over])])  # first edge met in element order
        key = (int(uniq[e] // nv), int(uniq[e] % nv))
        raise NonConforming(f"edge {key} shared by {int(counts[e])} triangles")
    edges = np.stack([uniq // nv, uniq % nv], axis=1)
    # a stable sort keeps the element ids of each edge ascending
    order = np.argsort(inverse, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    edge_elements = (offsets, order // 3)
    # counter-clockwise neighbours traverse their shared edge in opposite
    # directions; the same direction means the two triangles overlap
    ascending = (first < second).ravel()[order]
    pairs = np.flatnonzero(counts == 2)
    same = pairs[ascending[offsets[pairs]] == ascending[offsets[pairs] + 1]]
    if len(same):
        k0, k1 = edge_elements[1][offsets[same[0]]:offsets[same[0]] + 2].tolist()
        a, b = edges[same[0]].tolist()
        raise NonConforming(f"triangles {k0} and {k1} overlap on edge ({a}, {b})")
    boundary_edges = counts == 1
    tri_edges = inverse.reshape(len(tris), 3)

    boundary_vertices = np.zeros(nv, dtype=bool)
    boundary_vertices[edges[boundary_edges].ravel()] = True

    _check_hanging_vertices(verts, edges)

    return Triangulation(
        vertices=verts,
        triangles=tris,
        edges=edges,
        edge_elements=edge_elements,
        triangle_edges=tri_edges,
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
        areas=areas,
        diameters=diameters,
        inball_diameters=rho,
        vertex_elements=vertex_elements,
    )


def _element_geometry(verts, tris):
    """The quality measures and vertex stars of the triangles `tris`.

    Returns (flip, areas, diameters, rho, vertex_elements): `flip` marks the
    clockwise triangles, rho is twice the inradius and vertex_elements the
    CSR star of each vertex, ascending.  Raises DegenerateElement for a
    triangle whose area is at most _AREA_TOL times its squared diameter.
    """
    v = verts[tris]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    areas = np.abs(signed)
    e = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]  # the sides opposite vertex 0, 1, 2
    side = np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])  # np.linalg.norm's sum
    diameters = side.max(axis=1)
    # relative to h_K^2, so the test reads the same at every scale
    degenerate = areas <= _AREA_TOL * diameters**2
    if np.any(degenerate):
        raise DegenerateElement(
            f"triangles with non-positive area: {np.flatnonzero(degenerate).tolist()}")
    semiper = 0.5 * side.sum(axis=1)
    rho = 2.0 * areas / semiper  # twice the inradius

    # a non-degenerate triangle holds each vertex once, so the stars do not
    # depend on its orientation
    flat = tris.ravel()
    vertex_elements = (np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=len(verts)))]),
                       np.argsort(flat, kind="stable") // 3)
    return signed < 0, areas, diameters, rho, vertex_elements


def region_rows(regions, rows):
    """The CSR regions `rows` (an int array) of the CSR `regions`."""
    offsets, ids = regions
    rows = np.asarray(rows, dtype=np.int64)
    counts = offsets[rows + 1] - offsets[rows]
    return np.concatenate([[0], np.cumsum(counts)]), ids[_ranges(offsets[rows], counts)]


def _region_groups(regions):
    """Walk CSR regions by size: yields (rows (G,), elements (G, E)) for
    each region size E in ascending order, rows ascending."""
    offsets, ids = regions
    sizes = np.diff(offsets)
    for E in _sorted_distinct(sizes):
        rows = np.flatnonzero(sizes == E)
        yield rows, ids[offsets[rows][:, None] + np.arange(E)]


def _sorted_distinct(a) -> np.ndarray:
    """The sorted distinct values of `a`, flattened, as a plain `np.unique(a)`
    gives them; numpy 2.4 imports `numpy.ma` on that call, not on this."""
    s = np.sort(a, axis=None)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _ranges(starts, counts):
    """The ranges [starts[i], starts[i] + counts[i]) concatenated."""
    before = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(before - starts, counts)


def box_point_pairs(points, lo, hi, cell):
    """Candidate (box, point) pairs for the boxes [lo[i], hi[i]] and points.

    The points are bucketed on a uniform grid of the given cell size,
    coarsened to at most about 3 * len(points) cells; each box is paired
    with every point in the grid cells it overlaps, so every point inside a
    box (as float comparisons see it) is among that box's pairs.  Yields
    (box ids, point ids) in blocks of consecutive boxes, in ascending box
    order, each block holding about `_PAIR_BLOCK` pairs or one box, so the
    temporaries of a caller's test stay bounded.
    """
    points = np.asarray(points, dtype=float)
    origin = points.min(axis=0)
    extent = points.max(axis=0) - origin
    n = len(points)
    cell = max(float(cell), math.sqrt(extent[0] * extent[1] / n), float(extent.max()) / n)
    if not cell > 0:
        cell = 1.0  # all points coincide
    shape = np.floor(extent / cell).astype(np.int64) + 1

    def index(xy):  # grid cell of each coordinate, clipped one past the grid
        return np.clip(np.floor((xy - origin) / cell), -1, shape).astype(np.int64)

    pix = index(points)
    flat = pix[:, 0] * shape[1] + pix[:, 1]
    order = np.argsort(flat, kind="stable")
    # cell c holds the points order[starts[c]:starts[c + 1]], row by row
    starts = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=shape.prod()))])
    table = np.zeros((shape[0] + 1, shape[1] + 1), dtype=np.int64)
    table[1:, 1:] = np.diff(starts).reshape(shape).cumsum(0).cumsum(1)

    blo = np.maximum(index(np.asarray(lo, dtype=float)), 0)
    bhi = np.minimum(index(np.asarray(hi, dtype=float)), shape - 1)
    rows = np.maximum(bhi[:, 0] - blo[:, 0] + 1, 0) * (bhi[:, 1] >= blo[:, 1])
    x0, y0 = blo[:, 0], blo[:, 1]
    x1, y1 = np.maximum(bhi[:, 0] + 1, x0), np.maximum(bhi[:, 1] + 1, y0)
    found = table[x1, y1] - table[x0, y1] - table[x1, y0] + table[x0, y0]
    weight = found + rows
    block = (np.cumsum(weight) - weight) // _PAIR_BLOCK
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [len(block)]])
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        box = np.repeat(np.arange(b0, b1), rows[b0:b1])
        row = _ranges(x0[b0:b1], rows[b0:b1])
        first = starts[row * shape[1] + y0[box]]
        count = starts[row * shape[1] + bhi[box, 1] + 1] - first
        yield np.repeat(box, count), order[_ranges(first, count)]


def _check_hanging_vertices(verts, edges):
    """A vertex strictly inside another triangle's edge breaks conformity.

    A vertex hangs on an edge of length L when it lies within _HANG_TOL * L
    of the edge's line, strictly between its ends.  Tests only the vertices
    near each edge, found by `box_point_pairs` on the edge's bounding box
    padded by twice that distance, and reports the lowest edge id, then the
    lowest vertex id, that hangs.
    """
    pa, pb = verts[edges[:, 0]], verts[edges[:, 1]]
    d = pb - pa
    L2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    L = np.sqrt(L2)
    pad = (2.0 * _HANG_TOL * L)[:, None]  # twice the distance also covers rounding
    lo, hi = np.minimum(pa, pb) - pad, np.maximum(pa, pb) + pad
    for e, v in box_point_pairs(verts, lo, hi, L.mean()):
        rel = verts[v] - pa[e]
        de = d[e]
        # distance |cross| / L to the line, tested as |cross| <= _HANG_TOL * L^2
        cross = np.abs(rel[:, 0] * de[:, 1] - rel[:, 1] * de[:, 0])
        t = (rel[:, 0] * de[:, 0] + rel[:, 1] * de[:, 1]) / L2[e]
        on = ((cross <= _HANG_TOL * L2[e]) & (t > 1e-12) & (t < 1 - 1e-12)
              & (v != edges[e, 0]) & (v != edges[e, 1]))
        if on.any():
            first = np.argmin(e[on] * len(verts) + v[on])
            a, b = edges[e[on][first]]
            raise NonConforming(
                f"vertex {int(v[on][first])} hangs on edge ({int(a)}, {int(b)})"
            )


def element_affine(tri: Triangulation, k=slice(None)):
    """Affine maps F(xi) = v0 + B xi from the reference triangle onto the
    elements k (one id, ids or all): v0 (..., 2) and B (..., 2, 2) with
    columns v1 - v0, v2 - v0."""
    v = tri.vertices[tri.triangles[k]]
    return v[..., 0, :], np.stack([v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]], axis=-1)


def require_locus(kind: str, ident, count: int) -> int:
    """`ident` as an int when it is a Python or numpy integer, not a bool,
    in [0, count); raises UnknownLocus otherwise, naming the `kind`."""
    if not isinstance(ident, (int, np.integer)) or isinstance(ident, bool):
        raise UnknownLocus(f"{kind} id {ident!r} is not an integer")
    if not 0 <= ident < count:
        raise UnknownLocus(f"{kind} {ident}")
    return int(ident)


def vertex_patch(tri: Triangulation, z: int):
    """omega_z: all elements containing vertex z, ascending."""
    z = require_locus("vertex", z, tri.n_vertices)
    offsets, ids = tri.vertex_elements
    return ids[offsets[z]:offsets[z + 1]]


def element_patch(tri: Triangulation, k: int):
    """omega_K: all elements sharing at least one vertex with K, ascending."""
    k = require_locus("element", k, tri.n_elements)
    return _sorted_distinct(region_rows(tri.vertex_elements, tri.triangles[k])[1])


def edge_pair(tri: Triangulation, e: int):
    """omega_F: the one or two elements containing edge F, ascending."""
    e = require_locus("edge", e, tri.n_edges)
    offsets, ids = tri.edge_elements
    return ids[offsets[e]:offsets[e + 1]]


def uniform_refine(tri: Triangulation) -> Triangulation:
    """Red refinement: each triangle into 4 similar children via edge midpoints.

    The child of parent k at its local vertex i is 4k + i, and 4k + 3 is the
    middle child.  The returned mesh carries a child-to-parent map so
    piecewise-constant data transfers by indexing.

    The tables are derived from the parent's, not re-checked by
    `build_triangulation`, and equal what it would build: the children keep
    their parent's orientation, so no flip arises, and they share only full
    edges, so no vertex can hang.  The degenerate-area test still applies.
    """
    nv, ne, nt = tri.n_vertices, tri.n_edges, tri.n_elements
    midpoints = 0.5 * (tri.vertices[tri.edges[:, 0]] + tri.vertices[tri.edges[:, 1]])
    verts = np.vstack([tri.vertices, midpoints])
    a, b, c = tri.triangles.T
    te = tri.triangle_edges
    mbc, mca, mab = (nv + te).T  # midpoint of the edge opposite a, b, c
    children = np.stack([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)],
                        axis=0).transpose(2, 0, 1).reshape(-1, 3)
    _, areas, diameters, rho, vertex_elements = _element_geometry(verts, children)

    # half edges (p, nv + e) first, sorted by p, then e: a stable sort of the
    # parent's endpoints; half[2e + s] is the half of edge e at edges[e, s]
    ends = tri.edges.ravel()
    by_end = np.argsort(ends, kind="stable")
    half = np.empty(2 * ne, dtype=np.int64)
    half[by_end] = np.arange(2 * ne)
    halved, vertex = by_end // 2, ends[by_end]  # each half edge's parent edge and vertex
    # then the 3 midpoint-midpoint edges of each parent, slot i opposite the
    # corner child i: parent edges (te[k, i + 1], te[k, i + 2]), mod 3
    e1, e2 = te[:, [1, 2, 0]], te[:, [2, 0, 1]]
    inner_keys = (np.minimum(e1, e2) * ne + np.maximum(e1, e2)).ravel()
    by_key = np.argsort(inner_keys)
    inner = np.empty(3 * nt, dtype=np.int64)
    inner[by_key] = 2 * ne + np.arange(3 * nt)
    edges = np.concatenate([np.column_stack([vertex, nv + halved]),
                            nv + np.column_stack(np.divmod(inner_keys[by_key], ne))])

    # the half of parent edge te[k, i] at its endpoint local vertex i + 1
    # (`at_next`) and i + 2 (`at_prev`), mod 3
    up = tri.triangles[:, [1, 2, 0]] > tri.triangles[:, [2, 0, 1]]  # edges[te, 0] is i + 2
    at_next, at_prev = half[2 * te + up], half[2 * te + ~up]
    inner = inner.reshape(nt, 3)
    triangle_edges = np.stack([
        np.column_stack([inner[:, 0], at_prev[:, 1], at_next[:, 2]]),
        np.column_stack([at_next[:, 0], inner[:, 1], at_prev[:, 2]]),
        np.column_stack([at_prev[:, 0], at_next[:, 1], inner[:, 2]]),
        np.column_stack([inner[:, 2], inner[:, 0], inner[:, 1]]),
    ], axis=1).reshape(-1, 3)

    # a half edge lies in the corner children, at its end, of its parent
    # edge's elements, ascending as those are; inner slot i of parent k lies
    # in 4k + i and 4k + 3
    offsets, ids = tri.edge_elements
    counts = np.diff(offsets)[halved]
    owners = ids[_ranges(offsets[halved], counts)]
    corner = np.argmax(tri.triangles[owners] == np.repeat(vertex, counts)[:, None], axis=1)
    k, i = np.divmod(by_key, 3)
    edge_ids = np.concatenate([4 * owners + corner,
                               np.column_stack([4 * k + i, 4 * k + 3]).ravel()])
    edge_offsets = np.concatenate([[0], np.cumsum(np.concatenate([counts, np.full(3 * nt, 2)]))])

    boundary_edges = np.concatenate([tri.boundary_edges[halved], np.zeros(3 * nt, dtype=bool)])
    boundary_vertices = np.concatenate([tri.boundary_vertices, tri.boundary_edges])

    return Triangulation(
        vertices=verts,
        triangles=children,
        edges=edges,
        edge_elements=(edge_offsets, edge_ids),
        triangle_edges=triangle_edges,
        boundary_vertices=boundary_vertices,
        boundary_edges=boundary_edges,
        areas=areas,
        diameters=diameters,
        inball_diameters=rho,
        vertex_elements=vertex_elements,
        parents=np.repeat(np.arange(nt, dtype=np.int64), 4),
    )


def save_mesh(tri: Triangulation, path, coefficient=None) -> None:
    """Write the mesh JSON schema (vertices, triangles, optional coefficient)."""
    doc = {
        "vertices": [[float(x), float(y)] for x, y in tri.vertices],
        "triangles": [[int(a), int(b), int(c)] for a, b, c in tri.triangles],
    }
    if coefficient is not None:
        doc["coefficient"] = [float(v) for v in coefficient]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _numeric(doc: dict, key: str) -> np.ndarray:
    """The numbers under `key` as an array; ValueError when the entry is
    missing, has rows of different lengths or holds anything but (nested
    lists of) numbers, JSON true and false included."""
    if key not in doc:
        raise ValueError(f"mesh file has no {key!r} entry")
    try:
        arr = np.asarray(doc[key])
    except ValueError:  # numpy refuses ragged nesting
        raise ValueError(f"mesh file entry {key!r} has rows of different lengths") from None
    # np.asarray reads booleans mixed with numbers as 0 and 1
    if arr.size and (arr.dtype.kind not in "iuf" or any(
            type(x) is bool for x in np.asarray(doc[key], dtype=object).flat)):
        raise ValueError(f"mesh file entry {key!r} must hold numbers only")
    return arr


def load_mesh(path):
    """Read the mesh JSON schema; returns (Triangulation, coefficient-or-None).

    Raises ValueError for a document that is not an object or nests too
    deeply to parse, a missing entry, a ragged or non-numeric entry (JSON
    booleans are not numbers), NaN/Inf coordinates, and non-integer vertex
    ids.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("mesh file nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("mesh file must hold a JSON object")
    verts = _numeric(doc, "vertices").astype(float)
    if verts.size and not np.all(np.isfinite(verts)):
        raise ValueError("mesh file contains non-finite coordinates")
    tris = _numeric(doc, "triangles")
    if tris.dtype.kind == "f" and tris.size:
        # NaN and +-inf fail both tests; the bound keeps the cast exact
        if not np.all((tris == np.round(tris)) & (np.abs(tris) < 2.0**63)):
            raise ValueError("triangle vertex ids must be integers")
    tri = build_triangulation(verts, tris.astype(np.int64))
    coeff = doc.get("coefficient")
    if coeff is not None:
        coeff = _numeric(doc, "coefficient").astype(float)
        if coeff.shape != (tri.n_elements,):
            raise ValueError("coefficient length does not match element count")
    return tri, coeff
