"""Per-node and per-element loop references for the quasi-interpolants.

These are the plain loops that the array selection and the table-driven
operators replace: K_max(z) from the star of each node and F_z by a
geometric on-edge test, the face-dual moments edge by edge with a rule
mapped to physical points, the element-dual moments element by element from
the plan, and the norms by quadrature at the plan's nodes.  Tests compare
the fast path against them.
"""
import numpy as np

from qmloc.bestapprox import element_tables
from qmloc.coeff import select_kmax_fz, space_star
from qmloc.errors import QuadratureFailure, UnknownLocus
from qmloc.fespace import _reference_face_dual, edge_basis_1d, element_dual_basis
from qmloc.interp import InterpolantResult, _edge_quadrature
from qmloc.quadrature import _leggauss01, radial_rule

from fespace_reference import eval_basis, face_dual_basis
from ritz_reference import element_samples


def select_kmax(tri, coeff, star):
    """Element of maximal coefficient in the star, smallest id on ties."""
    star = tuple(star)
    a = coeff.values
    best = star[0]
    for k in star[1:]:
        if a[k] > a[best]:
            best = k
    return int(best)


def interior_element(space, node):
    """The element of an element-interior node (a node on no edge), else
    None."""
    if node in space.edge_nodes:
        return None
    return int(np.flatnonzero((space.element_nodes == node).any(axis=1))[0])


def select_kmax_of_node(space, coeff, node):
    return select_kmax(space.tri, coeff, space_star(space, node))


def select_fz(space, coeff, node):
    """Edge F_z of K_max(z) containing the node, by distance to each edge;
    None for element-interior nodes."""
    if interior_element(space, node) is not None:
        return None
    kmax = select_kmax_of_node(space, coeff, node)
    tri = space.tri
    xy = space.nodes[node]
    h = tri.diameters[kmax]
    for e in sorted(int(e) for e in tri.triangle_edges[kmax]):
        va, vb = tri.vertices[tri.edges[e]]
        d = vb - va
        t = float(np.dot(xy - va, d) / np.dot(d, d))
        r = xy - va
        dist = abs(float(d[0] * r[1] - d[1] * r[0])) / float(np.linalg.norm(d))
        if -1e-12 <= t <= 1 + 1e-12 and dist <= 1e-12 * h:
            return e
    raise UnknownLocus(f"node {node} lies on no edge of element {kmax}")


def edge_quadrature(space, target, e):
    """Physical points (n, 2) and weights along edge e, graded toward a
    singular point at an endpoint of the edge."""
    tri = space.tri
    i, j = tri.edges[e]
    p0, p1 = tri.vertices[i], tri.vertices[j]
    d = p1 - p0
    L = float(np.linalg.norm(d))
    sing = None
    for s in getattr(target, "singular_points", ()) or ():
        loc = np.asarray(s.location, float)
        u = float(d @ (loc - p0)) / (L * L)
        if np.linalg.norm(loc - p0) <= 1e-12 * max(L, 1.0):
            sing = (p0, p1, s)
        elif np.linalg.norm(loc - p1) <= 1e-12 * max(L, 1.0):
            sing = (p1, p0, s)
        elif 1e-12 < u < 1.0 - 1e-12 and abs(
            d[0] * (loc[1] - p0[1]) - d[1] * (loc[0] - p0[0])
        ) <= 1e-12 * L:
            raise QuadratureFailure(
                f"singular point strictly inside edge {e}; refine the mesh instead"
            )
    if sing is None:
        t, w = _leggauss01(12)
        return p0 + np.outer(t, d), L * w
    origin, other, s = sing
    r, w = radial_rule(L, s.exponent, tuple(s.radial_breakpoints), space.degree)
    return origin + np.outer(r / L, other - origin), w


def edge_moment_values(space, target, e):
    """Face-dual node values on edge e as {node-id: value}."""
    ids, D = face_dual_basis(space, e)
    pts, wts = edge_quadrature(space, target, e)
    tri = space.tri
    p0, p1 = tri.vertices[tri.edges[e]]
    t = np.linalg.norm(pts - p0, axis=1) / float(np.linalg.norm(p1 - p0))
    moments = edge_basis_1d(space.degree, t).T @ (wts * target.value(pts))
    return dict(zip(ids, D @ moments))


def quasi_interpolate(target, space, coeff, plan):
    """The skeleton operator node by node.  Returns the interpolant and the
    per-node selections: ('edge', F_z, K_max), ('element', K) or None."""
    n = space.n_nodes
    x = np.zeros(n)
    prov, sel = [None] * n, [None] * n
    edge_cache = {}
    fits = element_tables(target, plan, space).grad_fits if space.degree >= 3 else None
    for z in range(n):
        if space.dirichlet[z]:
            prov[z] = "boundary-zero"
            continue
        k = interior_element(space, z)
        if k is not None:
            x[z] = fits[k, int(np.flatnonzero(space.element_nodes[k] == z)[0])]
            prov[z] = "interior-best-fit"
            sel[z] = ("element", k)
        else:
            e = select_fz(space, coeff, z)
            if e not in edge_cache:
                edge_cache[e] = edge_moment_values(space, target, e)
            x[z] = edge_cache[e][z]
            prov[z] = "face-dual"
            sel[z] = ("edge", e, select_kmax_of_node(space, coeff, z))
    return InterpolantResult(space=space, coefficients=x, provenance=tuple(prov)), sel


def add_at_quasi_interpolate(target, tables, coeff):
    """The skeleton operator of one target from its tables, the face-dual
    moments of the chosen edges summed node by node of the edge rule by
    `np.add.at`: the arithmetic that `interp.quasi_interpolate_each` keeps
    bit for bit for every target it batches."""
    space = tables.space
    kmax, loc, fz = select_kmax_fz(space, coeff)
    x = np.zeros(space.n_nodes)
    interior = (fz < 0) & ~space.dirichlet
    x[interior] = tables.grad_fits[kmax[interior], loc[interior]]
    face = np.flatnonzero((fz >= 0) & ~space.dirichlet)
    edges, row = np.unique(fz[face], return_inverse=True)
    pos = np.argmax(space.edge_nodes[edges][row] == face[:, None], axis=1)
    owner, t, w = _edge_quadrature(space, target, edges)
    p0 = space.tri.vertices[space.tri.edges[edges, 0]]
    d = space.tri.vertices[space.tri.edges[edges, 1]] - p0
    moments = np.zeros((len(edges), space.degree + 1))
    np.add.at(moments, owner, (w * target.value(p0[owner] + t[:, None] * d[owner]))[:, None]
              * edge_basis_1d(space.degree, t))
    D = _reference_face_dual(space.degree)
    x[face] = (moments @ D.T / np.linalg.norm(d, axis=1)[:, None])[row, pos]
    return x


def l2_quasi_interpolate(target, space, coeff, plan):
    """The element-dual operator node by node: int_Kmax u psi_z."""
    x = np.zeros(space.n_nodes)
    moments, duals = {}, {}
    for z in range(space.n_nodes):
        k = select_kmax_of_node(space, coeff, z)
        if k not in moments:
            pts, wts, u, _ = element_samples(plan, target, k)
            vphi, _ = eval_basis(space, k, pts)
            moments[k] = vphi.T @ (wts * u)
            duals[k] = element_dual_basis(space, k)
        loc = int(np.flatnonzero(space.element_nodes[k] == z)[0])
        x[z] = float(duals[k][loc] @ moments[k])
    return InterpolantResult(space=space, coefficients=x,
                             provenance=("element-dual",) * space.n_nodes)


def interpolant_gradient(interp, k, pts):
    _, grads = eval_basis(interp.space, k, pts)
    return np.einsum("qid,i->qd", grads, interp.coefficients[interp.space.element_nodes[k]])


def energy_norm_sq(target, coeff, plan, region=None):
    """||a^(1/2) grad u||^2 over a region (default: all elements)."""
    region = range(coeff.tri.n_elements) if region is None else sorted(region)
    total = 0.0
    for k in region:
        _, wts, _, gu = element_samples(plan, target, k)
        total += coeff.values[k] * float(wts @ np.einsum("qd,qd->q", gu, gu))
    return total


def l2_norm_sq(target, plan, region=None):
    region = range(plan.tri.n_elements) if region is None else sorted(region)
    total = 0.0
    for k in region:
        _, wts, u, _ = element_samples(plan, target, k)
        total += float(wts @ (u * u))
    return total


def interpolant_norms_sq(interp, coeff, plan):
    """(||Iu||^2, ||a^(1/2) grad Iu||^2) by quadrature at the plan's nodes."""
    space = interp.space
    l2, energy = 0.0, 0.0
    for k in range(space.tri.n_elements):
        pts, wts = plan.element_rule(k)
        vals, _ = eval_basis(space, k, pts)
        v = vals @ interp.coefficients[space.element_nodes[k]]
        g = interpolant_gradient(interp, k, pts)
        l2 += float(wts @ (v * v))
        energy += coeff.values[k] * float(wts @ np.einsum("qd,qd->q", g, g))
    return l2, energy
