"""Point evaluation of the nodal bases and the edge dual basis, element by
element and edge by edge.

The package evaluates bases only at reference points, once per quadrature
class, and the face-dual moments as one gather over all edges; these are the
per-element and per-edge forms that the oracles and the basis tests use.
"""
import numpy as np

from qmloc.errors import PointOutsideElement
from qmloc.fespace import _reference_face_dual, reference_basis
from qmloc.mesh import element_affine


def element_basis(space, ks, pts):
    """Values and physical gradients of the local nodal bases of the elements
    ks at stacked points pts (K, n, 2), pts[i] lying in element ks[i].

    Returns (values (K, n, nloc), gradients (K, n, nloc, 2)).  Raises
    PointOutsideElement for a point more than 1e-10 outside its element in
    reference coordinates.
    """
    ks = np.asarray(ks)
    pts = np.asarray(pts, dtype=float)
    v0, B = element_affine(space.tri, ks)
    Binv = np.linalg.inv(B)
    ref = (pts - v0[:, None]) @ Binv.transpose(0, 2, 1)
    tol = 1e-10
    outside = (ref < -tol).any(axis=(1, 2)) | ((1.0 - ref[..., 0] - ref[..., 1]) < -tol).any(axis=1)
    if outside.any():
        raise PointOutsideElement(f"point outside element {ks[outside][0]}")
    K, n = pts.shape[:2]
    vals, grads_ref = reference_basis(space.degree, ref.reshape(-1, 2))
    nloc = vals.shape[1]
    grads = (grads_ref.reshape(K, -1, 2) @ Binv).reshape(K, n, nloc, 2)
    return vals.reshape(K, n, nloc), grads


def eval_basis(space, k, pts):
    """`element_basis` of the single element k at pts (n, 2): returns
    (values (n, nloc), gradients (n, nloc, 2))."""
    vals, grads = element_basis(space, [k], np.atleast_2d(np.asarray(pts, dtype=float))[None])
    return vals[0], grads[0]


def face_dual_basis(space, e):
    """L2(F)-dual basis on edge e.

    Returns (node_ids, D) with node_ids the degree+1 global nodes on F ordered
    from the lower-id endpoint, and D such that psi_z = sum_y D[z, y] phi_y
    (phi_y the edge-restricted nodal basis), int_F psi_z phi_y = delta_zy.
    """
    a, b = space.tri.edges[e]
    L = float(np.linalg.norm(space.tri.vertices[b] - space.tri.vertices[a]))
    return space.edge_nodes(e), _reference_face_dual(space.degree) / L
