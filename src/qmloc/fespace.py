"""Continuous Lagrange spaces of degree 1..4 on a triangulation.

Node bookkeeping uses the barycentric lattice: a local node is a multi-index
(i, j, k) with i+j+k = degree, placed at (i*v0 + j*v1 + k*v2)/degree.  Nodes
on shared edges are deduplicated across elements via canonical keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PointOutsideElement, SingularMassMatrix, UnsupportedDegree
from .mesh import Triangulation
from .quadrature import reference_triangle_rule

VERTEX, EDGE, INTERIOR = "vertex", "edge", "interior"


@lru_cache(maxsize=None)
def _lattice(degree: int):
    """Local multi-indices, reference coordinates and monomial exponents."""
    multi = [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]
    ref = np.array([(j / degree, k / degree) for i, j, k in multi])
    expo = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return tuple(multi), ref, tuple(expo)


def _monomials(pts, expo):
    pts = np.atleast_2d(pts)
    vals = np.empty((len(pts), len(expo)))
    dx = np.empty_like(vals)
    dy = np.empty_like(vals)
    x, y = pts[:, 0], pts[:, 1]
    for m, (a, b) in enumerate(expo):
        vals[:, m] = x**a * y**b
        dx[:, m] = a * x ** max(a - 1, 0) * y**b if a else 0.0
        dy[:, m] = b * x**a * y ** max(b - 1, 0) if b else 0.0
    return vals, dx, dy


@lru_cache(maxsize=None)
def _nodal_coefficients(degree: int):
    """Monomial coefficients of the reference nodal basis (Vandermonde inverse)."""
    _, ref, expo = _lattice(degree)
    V, _, _ = _monomials(ref, expo)
    return np.linalg.inv(V)


def reference_basis(degree: int, pts):
    """Values and reference gradients of all nodal basis functions at pts."""
    _, _, expo = _lattice(degree)
    C = _nodal_coefficients(degree)
    vals, dx, dy = _monomials(pts, expo)
    return vals @ C, np.stack([dx @ C, dy @ C], axis=-1)


@dataclass(frozen=True)
class LagrangeSpace:
    tri: Triangulation
    degree: int
    nodes: np.ndarray            # (n, 2) global node coordinates
    element_nodes: np.ndarray    # (nt, nloc) global node ids, lattice order
    node_kind: tuple             # per node: 'vertex' | 'edge' | 'interior'
    node_entity: tuple           # owning vertex/edge/element id
    boundary_nodes: np.ndarray   # (n,) bool: node on the domain boundary
    dirichlet: np.ndarray        # (n,) bool mask (all False unless requested)
    vertex_nodes: np.ndarray     # (nv,) global node id of each mesh vertex
    edge_interior_nodes: np.ndarray  # (ne, degree-1) ids from the lower-id endpoint on

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def local_size(self) -> int:
        return (self.degree + 1) * (self.degree + 2) // 2

    def edge_nodes(self, e: int):
        """Global ids of the degree+1 nodes on edge e, ordered from the
        lower-id endpoint."""
        a, b = self.tri.edges[e]
        return (int(self.vertex_nodes[a]), *map(int, self.edge_interior_nodes[e]),
                int(self.vertex_nodes[b]))


def build_space(tri: Triangulation, degree: int, dirichlet_on_boundary: bool = False) -> LagrangeSpace:
    """Number the global nodes of the degree-`degree` Lagrange space."""
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
                # lower-endpoint weights degree-1 .. 1, walking away from it
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
                # node interior to the edge opposite the zero entry
                zero = 3 - nz[0] - nz[1]
                eid = int(tri.triangle_edges[k, zero])
                u, v = nz
                gu, gv = gverts[u], gverts[v]
                lo = u if gu < gv else v
                key = (EDGE, eid, w[lo])  # lattice weight of the lower-id endpoint
                gid = intern(key, xy, EDGE, eid)
            else:
                key = (INTERIOR, k, loc)
                gid = intern(key, xy, INTERIOR, k)
            elem_nodes[k, loc] = gid

    nodes = np.array(coords)
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
        node_kind=tuple(kinds),
        node_entity=tuple(entities),
        boundary_nodes=boundary,
        dirichlet=dirichlet,
        vertex_nodes=vertex_nodes,
        edge_interior_nodes=edge_interior,
    )


def element_affine(tri: Triangulation, k: int):
    """Affine map F(xi) = v0 + B xi from the reference triangle onto element k."""
    v = tri.vertices[tri.triangles[k]]
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    return v[0], B


def to_reference(tri: Triangulation, k: int, pts):
    v0, B = element_affine(tri, k)
    return np.atleast_2d(pts - v0) @ np.linalg.inv(B).T


def eval_basis(space: LagrangeSpace, k: int, pts, tol: float = 1e-10):
    """Values and physical gradients of the local nodal basis at pts in K.

    Returns (values (n, nloc), gradients (n, nloc, 2)).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v0, B = element_affine(space.tri, k)
    Binv = np.linalg.inv(B)
    ref = (pts - v0) @ Binv.T
    lam0 = 1.0 - ref[:, 0] - ref[:, 1]
    if np.any(ref < -tol) or np.any(lam0 < -tol):
        raise PointOutsideElement(f"point outside element {k}")
    vals, grads_ref = reference_basis(space.degree, ref)
    grads = grads_ref @ Binv
    return vals, grads


def element_mass_matrix(space: LagrangeSpace, k: int):
    """Exact local mass matrix via a rule of exactness 2*degree + 2."""
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    v0, B = element_affine(space.tri, k)
    detB = abs(np.linalg.det(B))
    vals, _ = reference_basis(space.degree, pts_ref)
    return (vals.T * (w_ref * detB)) @ vals


def element_dual_basis(space: LagrangeSpace, k: int):
    """Coefficients of the L2(K)-dual basis in the local nodal basis.

    Row z gives psi_z^K = sum_y D[z, y] phi_y, so that
    int_K psi_z phi_y = delta_zy.
    """
    M = element_mass_matrix(space, k)
    try:
        D = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - mesh validated earlier
        raise SingularMassMatrix(str(exc)) from exc
    return D


@lru_cache(maxsize=None)
def _lobatto_like_1d(degree: int):
    """1D Lagrange basis on equispaced nodes 0, 1/deg, ..., 1 (monomial coeffs)."""
    t = np.linspace(0.0, 1.0, degree + 1)
    V = np.vander(t, degree + 1, increasing=True)
    return np.linalg.inv(V), t


def edge_basis_1d(degree: int, t):
    """Values of the edge-restricted nodal basis at parameters t in [0, 1]."""
    C, _ = _lobatto_like_1d(degree)
    V = np.vander(np.atleast_1d(t), degree + 1, increasing=True)
    return V @ C


def face_dual_basis(space: LagrangeSpace, e: int):
    """L2(F)-dual basis on edge e.

    Returns (node_ids, D) with node_ids the degree+1 global nodes on F ordered
    from the lower-id endpoint, and D such that psi_z = sum_y D[z, y] phi_y
    (phi_y the edge-restricted nodal basis), int_F psi_z phi_y = delta_zy.
    """
    a, b = space.tri.edges[e]
    L = float(np.linalg.norm(space.tri.vertices[b] - space.tri.vertices[a]))
    deg = space.degree
    # Gauss rule exact for degree 2*deg on [0, 1]
    x, w = np.polynomial.legendre.leggauss(deg + 2)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    Phi = edge_basis_1d(deg, t)
    M = L * (Phi.T * wt) @ Phi
    try:
        D = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularMassMatrix(str(exc)) from exc
    return space.edge_nodes(e), D
