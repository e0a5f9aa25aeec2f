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

from .errors import UnsupportedDegree
from .mesh import Triangulation
from .quadrature import _leggauss01, reference_triangle_rule


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
    node_elements: tuple         # CSR: the support of each node's basis function, ascending
    dirichlet: np.ndarray        # (n,) bool mask (all False unless requested)
    vertex_nodes: np.ndarray     # (nv,) global node id of each mesh vertex
    edge_nodes: np.ndarray       # (ne, degree+1) ids from the lower-id endpoint on

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def require_degree(degree: int) -> None:
    """Raises UnsupportedDegree unless 1 <= degree <= 4."""
    if not 1 <= degree <= 4:
        raise UnsupportedDegree(f"degree {degree} not in 1..4")


def build_space(tri: Triangulation, degree: int, dirichlet_on_boundary: bool = False) -> LagrangeSpace:
    """Number the global nodes of the degree-`degree` Lagrange space."""
    require_degree(degree)
    multi, _, _ = _lattice(degree)
    nloc, nt, nv = len(multi), tri.n_elements, tri.n_vertices
    per_edge = degree - 1
    tris = tri.triangles

    # one integer code per (element, lattice node): the vertex id; past nv,
    # per edge its interior nodes by the lattice weight of the lower-id
    # endpoint; past those, per element its interior nodes
    codes = np.empty((nt, nloc), dtype=np.int64)
    for loc, w in enumerate(multi):
        nz = [t for t in range(3) if w[t] > 0]
        if len(nz) == 1:
            codes[:, loc] = tris[:, nz[0]]
        elif len(nz) == 2:
            u, v = nz
            eid = tri.triangle_edges[:, 3 - u - v]  # the edge opposite the zero entry
            w_lo = np.where(tris[:, u] < tris[:, v], w[u], w[v])
            codes[:, loc] = nv + eid * per_edge + w_lo - 1
    interior = (np.array(multi) > 0).all(axis=1)
    n_interior = int(interior.sum())
    first_interior = nv + tri.n_edges * per_edge
    codes[:, interior] = (first_interior + n_interior * np.arange(nt)[:, None]
                          + np.arange(n_interior))

    # every code occurs (build_triangulation puts every vertex in a triangle,
    # and each edge and element holds all of its interior codes), so the
    # codes are 0..N-1 and each one's node is its rank by first occurrence
    first = np.unique(codes.ravel(), return_index=True)[1]
    by_first = np.argsort(first, kind="stable")
    node = np.empty(len(first), dtype=np.int64)
    node[by_first] = np.arange(len(first))
    elem_nodes = node[codes]
    k, loc = np.divmod(first[by_first], nloc)
    w = np.array(multi)[loc]
    pts = tri.vertices[tris[k]]
    nodes = (w[:, :1] * pts[:, 0] + w[:, 1:2] * pts[:, 1] + w[:, 2:] * pts[:, 2]) / degree

    # a stable sort keeps the element ids of each node ascending
    flat = elem_nodes.ravel()
    node_elements = (np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=len(nodes)))]),
                     np.argsort(flat, kind="stable") // nloc)
    vertex_nodes = node[:nv]
    edge_nodes = np.empty((tri.n_edges, degree + 1), dtype=np.int64)
    edge_nodes[:, [0, -1]] = vertex_nodes[tri.edges]
    # lower-endpoint weights degree-1 .. 1, walking away from it
    edge_nodes[:, 1:-1] = node[nv:first_interior].reshape(tri.n_edges, per_edge)[:, ::-1]
    dirichlet = np.zeros(len(nodes), dtype=bool)
    if dirichlet_on_boundary:
        dirichlet[edge_nodes[tri.boundary_edges]] = True

    return LagrangeSpace(
        tri=tri,
        degree=degree,
        nodes=nodes,
        element_nodes=elem_nodes,
        node_elements=node_elements,
        dirichlet=dirichlet,
        vertex_nodes=vertex_nodes,
        edge_nodes=edge_nodes,
    )


def element_mass_matrix(space: LagrangeSpace, k: int):
    """Exact local mass matrix via a rule of exactness 2*degree + 2."""
    pts_ref, w_ref = reference_triangle_rule(2 * space.degree + 2)
    vals, _ = reference_basis(space.degree, pts_ref)
    return (vals.T * (w_ref * (2.0 * space.tri.areas[k]))) @ vals


def element_dual_basis(space: LagrangeSpace, k: int):
    """Coefficients of the L2(K)-dual basis in the local nodal basis.

    Row z gives psi_z^K = sum_y D[z, y] phi_y, so that
    int_K psi_z phi_y = delta_zy.
    """
    return np.linalg.inv(element_mass_matrix(space, k))


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
    D = np.linalg.inv((Phi.T * wt) @ Phi)
    D.setflags(write=False)
    return D
