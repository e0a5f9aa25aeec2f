"""Conforming 2D triangulations: topology, patches, quality measures, refinement.

Element, vertex and edge ids are dense 0-based indices.  All set-valued
queries return sorted tuples so that downstream tie-breaks are deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElement, NonConforming, UnknownLocus

_AREA_TOL = 1e-14


@dataclass(frozen=True)
class Triangulation:
    """Immutable conforming triangulation with derived topology.

    vertices: (nv, 2) coordinates.
    triangles: (nt, 3) vertex ids, counter-clockwise.
    edges: (ne, 2) vertex-id pairs, each pair sorted ascending.
    edge_elements: tuple of tuples, 1 (boundary) or 2 (interior) element ids.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_elements: tuple
    triangle_edges: np.ndarray        # (nt, 3) edge id opposite local vertex i
    boundary_vertices: np.ndarray     # (nv,) bool
    boundary_edges: np.ndarray        # (ne,) bool
    areas: np.ndarray                 # (nt,)
    diameters: np.ndarray             # h_K
    inball_diameters: np.ndarray      # rho_K = twice the inradius
    vertex_elements: tuple = field(repr=False, default=())  # per vertex: sorted element ids
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


def build_triangulation(vertices, triangles, parents=None) -> Triangulation:
    """Validate raw arrays and derive edges, boundary flags and quality measures.

    Triangle orientation is normalized to counter-clockwise.  Raises
    DegenerateElement for zero-area triangles and NonConforming for
    over-shared edges or hanging vertices.
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
    if len(np.unique(tris)) != len(verts):
        raise ValueError("every vertex must be referenced by a triangle")

    tris = tris.copy()
    p0, p1, p2 = (verts[tris[:, k]] for k in range(3))
    d1, d2 = p1 - p0, p2 - p0
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    flip = signed < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    areas = np.abs(signed)
    scale = np.maximum(np.max(np.abs(verts)), 1.0)
    if np.any(areas <= _AREA_TOL * scale**2):
        raise DegenerateElement(
            f"triangles with non-positive area: {np.flatnonzero(areas <= _AREA_TOL * scale**2).tolist()}"
        )

    # edge table
    edge_map: dict[tuple[int, int], list[int]] = {}
    for k, (a, b, c) in enumerate(tris):
        for u, v in ((b, c), (c, a), (a, b)):
            key = (int(min(u, v)), int(max(u, v)))
            edge_map.setdefault(key, []).append(k)
    for key, els in edge_map.items():
        if len(els) > 2:
            raise NonConforming(f"edge {key} shared by {len(els)} triangles")
    edge_keys = sorted(edge_map)
    edge_ids = {key: i for i, key in enumerate(edge_keys)}
    edges = np.array(edge_keys, dtype=np.int64)
    edge_elements = tuple(tuple(sorted(edge_map[key])) for key in edge_keys)
    boundary_edges = np.array([len(edge_map[key]) == 1 for key in edge_keys])

    tri_edges = np.empty((len(tris), 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(tris):
        for i, (u, v) in enumerate(((b, c), (c, a), (a, b))):
            tri_edges[k, i] = edge_ids[(int(min(u, v)), int(max(u, v)))]

    boundary_vertices = np.zeros(len(verts), dtype=bool)
    for e in np.flatnonzero(boundary_edges):
        boundary_vertices[edges[e]] = True

    _check_hanging_vertices(verts, edges, tris, scale)

    side = np.stack(
        [
            np.linalg.norm(p2 - p1, axis=1),
            np.linalg.norm(p0 - p2, axis=1),
            np.linalg.norm(p1 - p0, axis=1),
        ],
        axis=1,
    )
    diameters = side.max(axis=1)
    semiper = 0.5 * side.sum(axis=1)
    rho = 2.0 * areas / semiper  # twice the inradius

    vertex_elements: list[list[int]] = [[] for _ in range(len(verts))]
    for k, tri in enumerate(tris):
        for v in tri:
            vertex_elements[int(v)].append(k)
    vertex_elements_t = tuple(tuple(sorted(v)) for v in vertex_elements)

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
        vertex_elements=vertex_elements_t,
        parents=None if parents is None else np.asarray(parents, dtype=np.int64),
    )


def _check_hanging_vertices(verts, edges, tris, scale):
    """A vertex strictly inside another triangle's edge breaks conformity."""
    tol = 1e-12 * scale
    for a, b in edges:
        pa, pb = verts[a], verts[b]
        d = pb - pa
        L2 = float(d @ d)
        rel = verts - pa
        cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
        t = (rel @ d) / L2
        on = (cross <= tol * math.sqrt(L2)) & (t > 1e-12) & (t < 1 - 1e-12)
        on[[a, b]] = False
        if np.any(on):
            raise NonConforming(
                f"vertex {int(np.flatnonzero(on)[0])} hangs on edge ({int(a)}, {int(b)})"
            )


def vertex_patch(tri: Triangulation, z: int):
    """omega_z: all elements containing vertex z."""
    if not 0 <= z < tri.n_vertices:
        raise UnknownLocus(f"vertex {z}")
    return tri.vertex_elements[z]


def element_patch(tri: Triangulation, k: int):
    """omega_K: all elements sharing at least one vertex with K."""
    if not 0 <= k < tri.n_elements:
        raise UnknownLocus(f"element {k}")
    out: set[int] = set()
    for v in tri.triangles[k]:
        out.update(tri.vertex_elements[int(v)])
    return tuple(sorted(out))


def edge_pair(tri: Triangulation, e: int):
    """omega_F: the one or two elements containing edge F."""
    if not 0 <= e < tri.n_edges:
        raise UnknownLocus(f"edge {e}")
    return tri.edge_elements[e]


def patch_of(tri: Triangulation, locus):
    """Generic patch query; locus is ('vertex'|'element'|'edge', id)."""
    kind, ident = locus
    if kind == "vertex":
        return vertex_patch(tri, ident)
    if kind == "element":
        return element_patch(tri, ident)
    if kind == "edge":
        return edge_pair(tri, ident)
    raise UnknownLocus(f"unknown locus kind {kind!r}")


def shape_parameter(tri: Triangulation) -> float:
    return tri.shape_parameter


def uniform_refine(tri: Triangulation) -> Triangulation:
    """Red refinement: each triangle into 4 similar children via edge midpoints.

    The returned mesh carries a child-to-parent map so piecewise-constant
    data transfers by indexing.
    """
    nv = tri.n_vertices
    midpoints = 0.5 * (tri.vertices[tri.edges[:, 0]] + tri.vertices[tri.edges[:, 1]])
    verts = np.vstack([tri.vertices, midpoints])
    new_tris = []
    parents = []
    for k, (a, b, c) in enumerate(tri.triangles):
        # edge opposite local vertex i
        mbc = nv + tri.triangle_edges[k, 0]
        mca = nv + tri.triangle_edges[k, 1]
        mab = nv + tri.triangle_edges[k, 2]
        new_tris.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
        parents.extend([k] * 4)
    return build_triangulation(verts, np.array(new_tris), parents=np.array(parents))


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


def load_mesh(path):
    """Read the mesh JSON schema; returns (Triangulation, coefficient-or-None).

    Rejects NaN/Inf coordinates.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    verts = np.asarray(doc["vertices"], dtype=float)
    if verts.size and not np.all(np.isfinite(verts)):
        raise ValueError("mesh file contains non-finite coordinates")
    tri = build_triangulation(verts, np.asarray(doc["triangles"], dtype=np.int64))
    coeff = doc.get("coefficient")
    if coeff is not None:
        coeff = np.asarray(coeff, dtype=float)
        if len(coeff) != tri.n_elements:
            raise ValueError("coefficient length does not match element count")
    return tri, coeff
