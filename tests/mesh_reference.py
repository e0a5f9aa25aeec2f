"""Per-element loop references for the mesh and space set-up.

These are the plain loops that the array passes replace: the edge table by
a dict of canonical vertex pairs, the conformity check that tests every
vertex against every edge, red refinement one parent at a time, node
numbering by interning canonical keys, node supports by a loop over the
elements, and the checkerboard one square at a time.  Tests require the array passes to
reproduce them field by field (`assert_same_fields`).
"""
import dataclasses
import itertools

import numpy as np

from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import checkerboard_mesh, fig1_meshes, hexagon_mesh
from qmloc.errors import DegenerateElement, NonConforming, UnsupportedDegree
from qmloc.fespace import LagrangeSpace, _lattice
from qmloc.mesh import _AREA_TOL, _HANG_TOL, Triangulation
from qmloc.mesh import build_triangulation as fast_triangulation


def _same(a, b):
    if isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(b, tuple) and b and isinstance(b[0], np.ndarray):  # CSR regions
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def assert_same_fields(fast, ref):
    """Every dataclass field equal: arrays (also the two of a CSR pair) in
    dtype and values, the rest by ==."""
    for f in dataclasses.fields(ref):
        assert _same(getattr(fast, f.name), getattr(ref, f.name)), f.name


def csr(regions):
    """CSR (offsets, ids) of a list of element-id sequences."""
    sizes = [len(r) for r in regions]
    return (np.array([0] + list(itertools.accumulate(sizes)), dtype=np.int64),
            np.array([int(k) for r in regions for k in r], dtype=np.int64))


def catalog():
    """Name -> (vertices, triangles, refinements) of the meshes the set-up
    references are compared on: the hexagon, checkerboard N = 1..4, the
    fig1 tilings refined 0..3 times and the unit square refined to 2,048
    elements."""
    def raw(tri, refines=0):
        return tri.vertices, tri.triangles, refines

    meshes = {"hexagon": raw(hexagon_mesh(0.1)[0])}
    for n in range(1, 5):
        meshes[f"checkerboard{n}"] = raw(checkerboard_mesh(n)[0])
    for side in ("left", "right"):
        for r in range(4):
            meshes[f"fig1-{side}{r}"] = raw(fig1_meshes(4.0, side)[0], r)
    meshes["square2048"] = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                            np.array([[0, 1, 2], [0, 2, 3]]), 5)
    return meshes


def build_triangulation(vertices, triangles, parents=None) -> Triangulation:
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
    side = np.stack(
        [
            np.linalg.norm(p2 - p1, axis=1),
            np.linalg.norm(p0 - p2, axis=1),
            np.linalg.norm(p1 - p0, axis=1),
        ],
        axis=1,
    )
    diameters = side.max(axis=1)
    if np.any(areas <= _AREA_TOL * diameters**2):
        raise DegenerateElement(
            f"triangles with non-positive area: {np.flatnonzero(areas <= _AREA_TOL * diameters**2).tolist()}"
        )

    edge_map: dict[tuple[int, int], list[int]] = {}
    ascending: dict[tuple[int, int], list[bool]] = {}
    for k, (a, b, c) in enumerate(tris):
        for u, v in ((b, c), (c, a), (a, b)):
            key = (int(min(u, v)), int(max(u, v)))
            edge_map.setdefault(key, []).append(k)
            ascending.setdefault(key, []).append(bool(u < v))
    for key, els in edge_map.items():
        if len(els) > 2:
            raise NonConforming(f"edge {key} shared by {len(els)} triangles")
    edge_keys = sorted(edge_map)
    for key in edge_keys:  # counter-clockwise neighbours traverse an edge both ways
        if len(edge_map[key]) == 2 and ascending[key][0] == ascending[key][1]:
            k0, k1 = edge_map[key]
            raise NonConforming(f"triangles {k0} and {k1} overlap on edge {key}")
    edge_ids = {key: i for i, key in enumerate(edge_keys)}
    edges = np.array(edge_keys, dtype=np.int64)
    edge_elements = csr([sorted(edge_map[key]) for key in edge_keys])
    boundary_edges = np.array([len(edge_map[key]) == 1 for key in edge_keys])

    tri_edges = np.empty((len(tris), 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(tris):
        for i, (u, v) in enumerate(((b, c), (c, a), (a, b))):
            tri_edges[k, i] = edge_ids[(int(min(u, v)), int(max(u, v)))]

    boundary_vertices = np.zeros(len(verts), dtype=bool)
    for e in np.flatnonzero(boundary_edges):
        boundary_vertices[edges[e]] = True

    check_hanging_vertices(verts, edges)

    semiper = 0.5 * side.sum(axis=1)
    rho = 2.0 * areas / semiper

    vertex_elements: list[list[int]] = [[] for _ in range(len(verts))]
    for k, tri in enumerate(tris):
        for v in tri:
            vertex_elements[int(v)].append(k)
    vertex_elements_t = csr([sorted(v) for v in vertex_elements])

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


def check_hanging_vertices(verts, edges):
    """Every vertex against every edge: O(edges x vertices)."""
    for a, b in edges:
        pa, pb = verts[a], verts[b]
        d = pb - pa
        L2 = float(d @ d)
        rel = verts - pa
        cross = np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0])
        t = (rel @ d) / L2
        on = (cross <= _HANG_TOL * L2) & (t > 1e-12) & (t < 1 - 1e-12)
        on[[a, b]] = False
        if np.any(on):
            raise NonConforming(
                f"vertex {int(np.flatnonzero(on)[0])} hangs on edge ({int(a)}, {int(b)})"
            )


def uniform_refine(tri: Triangulation) -> Triangulation:
    nv = tri.n_vertices
    midpoints = 0.5 * (tri.vertices[tri.edges[:, 0]] + tri.vertices[tri.edges[:, 1]])
    verts = np.vstack([tri.vertices, midpoints])
    new_tris = []
    parents = []
    for k, (a, b, c) in enumerate(tri.triangles):
        mbc = nv + tri.triangle_edges[k, 0]
        mca = nv + tri.triangle_edges[k, 1]
        mab = nv + tri.triangle_edges[k, 2]
        new_tris.extend(
            [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
        )
        parents.extend([k] * 4)
    return build_triangulation(verts, np.array(new_tris), parents=np.array(parents))


VERTEX, EDGE, INTERIOR = "vertex", "edge", "interior"


def build_space(tri: Triangulation, degree: int, dirichlet_on_boundary: bool = False) -> LagrangeSpace:
    if not 1 <= degree <= 4:
        raise UnsupportedDegree(f"degree {degree} not in 1..4")
    multi, ref, _ = _lattice(degree)
    nloc = len(multi)

    coords: list[np.ndarray] = []
    kinds: list[str] = []
    entities: list[int] = []
    keymap: dict = {}
    elem_nodes = np.empty((tri.n_elements, nloc), dtype=np.int64)
    vertex_nodes = np.full(tri.n_vertices, -1, dtype=np.int64)
    edge_interior = np.full((tri.n_edges, degree - 1), -1, dtype=np.int64)

    def intern(key, xy, kind, entity):
        gid = keymap.get(key)
        if gid is None:
            gid = len(coords)
            keymap[key] = gid
            coords.append(xy)
            kinds.append(kind)
            entities.append(entity)
            if kind == VERTEX:
                vertex_nodes[entity] = gid
            elif kind == EDGE:
                edge_interior[entity, degree - 1 - key[2]] = gid
        return gid

    for k, (a, b, c) in enumerate(tri.triangles):
        gverts = (int(a), int(b), int(c))
        pts = tri.vertices[list(gverts)]
        for loc, (i, j, m) in enumerate(multi):
            w = (i, j, m)
            xy = (i * pts[0] + j * pts[1] + m * pts[2]) / degree
            nz = [t for t in range(3) if w[t] > 0]
            if len(nz) == 1:
                key = (VERTEX, gverts[nz[0]])
                gid = intern(key, xy, VERTEX, gverts[nz[0]])
            elif len(nz) == 2:
                zero = 3 - nz[0] - nz[1]
                eid = int(tri.triangle_edges[k, zero])
                u, v = nz
                gu, gv = gverts[u], gverts[v]
                lo = u if gu < gv else v
                key = (EDGE, eid, w[lo])
                gid = intern(key, xy, EDGE, eid)
            else:
                key = (INTERIOR, k, loc)
                gid = intern(key, xy, INTERIOR, k)
            elem_nodes[k, loc] = gid

    nodes = np.array(coords)
    support = [[] for _ in nodes]  # element loop: the elements listing each node
    for k, row in enumerate(elem_nodes):
        for gid in row:
            support[gid].append(k)
    edge_nodes = np.array([(vertex_nodes[a], *edge_interior[e], vertex_nodes[b])
                           for e, (a, b) in enumerate(tri.edges)], dtype=np.int64)
    boundary = np.zeros(len(nodes), dtype=bool)
    for gid, (kind, ent) in enumerate(zip(kinds, entities)):
        if kind == VERTEX:
            boundary[gid] = tri.boundary_vertices[ent]
        elif kind == EDGE:
            boundary[gid] = tri.boundary_edges[ent]
    dirichlet = boundary.copy() if dirichlet_on_boundary else np.zeros(len(nodes), dtype=bool)

    return LagrangeSpace(
        tri=tri,
        degree=degree,
        nodes=nodes,
        element_nodes=elem_nodes,
        node_elements=csr(support),
        dirichlet=dirichlet,
        vertex_nodes=vertex_nodes,
        edge_nodes=edge_nodes,
    )


def checkerboard_mesh_loop(N: int):
    """`counterexamples.checkerboard_mesh` one square at a time."""
    n = 2 * N
    xs = np.linspace(0.0, 1.0, n + 1)
    V = np.array([[x, y] for y in xs for x in xs])

    def vid(i, j):
        return j * (n + 1) + i

    tris, vals = [], []
    low = 1.0 / (N * N)
    for j in range(n):
        for i in range(n):
            bl, br = vid(i, j), vid(i + 1, j)
            tr, tl = vid(i + 1, j + 1), vid(i, j + 1)
            # diagonal tl -> br
            tris.append([bl, br, tl])
            tris.append([br, tr, tl])
            a = low if (i + j) % 2 == 1 else 1.0
            vals.extend([a, a])
    tri = fast_triangulation(V, np.array(tris))
    return tri, attach_coefficient(tri, vals)
