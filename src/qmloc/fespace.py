"""Continuous Lagrange spaces of degree 1..4 on a triangulation.

Node bookkeeping uses the barycentric lattice: a local node is a multi-index
(i, j, k) with i+j+k = degree, placed at (i*v0 + j*v1 + k*v2)/degree.  Nodes
shared by elements are numbered once, by integer codes of their vertex,
edge or element (see `build_space`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularMassMatrix, UnsupportedDegree
from .mesh import Triangulation, element_affine
from .quadrature import _leggauss01, reference_triangle_rule

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
    multi, _, _ = _lattice(degree)
    nloc, nt, nv = len(multi), tri.n_elements, tri.n_vertices
    per_edge = degree - 1
    tris = tri.triangles

    # one integer code per (element, lattice node): the vertex id; past nv,
    # per edge its interior nodes by the lattice weight of the lower-id
    # endpoint; past those, per element its interior nodes
    codes = np.empty((nt, nloc), dtype=np.int64)
    kinds = []
    n_interior = 0
    for loc, w in enumerate(multi):
        nz = [t for t in range(3) if w[t] > 0]
        if len(nz) == 1:
            codes[:, loc] = tris[:, nz[0]]
            kinds.append(VERTEX)
        elif len(nz) == 2:
            u, v = nz
            eid = tri.triangle_edges[:, 3 - u - v]  # the edge opposite the zero entry
            w_lo = np.where(tris[:, u] < tris[:, v], w[u], w[v])
            codes[:, loc] = nv + eid * per_edge + w_lo - 1
            kinds.append(EDGE)
        else:
            codes[:, loc] = n_interior
            n_interior += 1
            kinds.append(INTERIOR)
    interior = np.array(kinds) == INTERIOR
    first_interior = nv + tri.n_edges * per_edge
    codes[:, interior] += first_interior + n_interior * np.arange(nt)[:, None]

    # global ids by first occurrence in element order
    uniq, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[by_first] = np.arange(len(uniq))
    elem_nodes = rank[inverse].reshape(nt, nloc)
    code, first = uniq[by_first], first[by_first]
    k, loc = first // nloc, first % nloc
    w = np.array(multi)[loc]
    pts = tri.vertices[tris[k]]
    nodes = (w[:, :1] * pts[:, 0] + w[:, 1:2] * pts[:, 1] + w[:, 2:] * pts[:, 2]) / degree

    is_vertex, is_edge = code < nv, (code >= nv) & (code < first_interior)
    eid, w_lo = np.divmod(code[is_edge] - nv, max(per_edge, 1))
    w_lo += 1
    entity = k.copy()
    entity[is_vertex] = code[is_vertex]
    entity[is_edge] = eid
    ids = np.arange(len(code))
    vertex_nodes = np.empty(nv, dtype=np.int64)
    vertex_nodes[code[is_vertex]] = ids[is_vertex]
    edge_interior = np.empty((tri.n_edges, per_edge), dtype=np.int64)
    # lower-endpoint weights degree-1 .. 1, walking away from it
    edge_interior[eid, degree - 1 - w_lo] = ids[is_edge]
    boundary = np.zeros(len(code), dtype=bool)
    boundary[is_vertex] = tri.boundary_vertices[code[is_vertex]]
    boundary[is_edge] = tri.boundary_edges[eid]
    dirichlet = boundary.copy() if dirichlet_on_boundary else np.zeros(len(nodes), dtype=bool)

    return LagrangeSpace(
        tri=tri,
        degree=degree,
        nodes=nodes,
        element_nodes=elem_nodes,
        node_kind=tuple(kinds[i] for i in loc.tolist()),
        node_entity=tuple(entity.tolist()),
        boundary_nodes=boundary,
        dirichlet=dirichlet,
        vertex_nodes=vertex_nodes,
        edge_interior_nodes=edge_interior,
    )


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


@lru_cache(maxsize=None)
def _reference_face_dual(degree: int):
    """Inverse mass matrix of the edge-restricted nodal basis on [0, 1]."""
    t, wt = _leggauss01(degree + 2)  # exact for degree 2*degree
    Phi = edge_basis_1d(degree, t)
    try:
        D = np.linalg.inv((Phi.T * wt) @ Phi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularMassMatrix(str(exc)) from exc
    D.setflags(write=False)
    return D
