"""Lagrange spaces, nodal bases, and element/face dual bases."""
import numpy as np
import pytest

from qmloc.counterexamples import checkerboard_mesh, fig1_left_pattern, hexagon_mesh
from qmloc.errors import PointOutsideElement, UnsupportedDegree
from qmloc.fespace import (_lattice, build_space, edge_basis_1d, element_dual_basis,
                           element_mass_matrix, reference_basis)
from qmloc.mesh import build_triangulation, uniform_refine

import mesh_reference
from fespace_reference import (element_basis, eval_basis, face_dual_basis, node_levels,
                               pseudo_peripheral_levels)

V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
T = np.array([[0, 1, 2], [0, 2, 3]])


@pytest.fixture
def tri():
    return build_triangulation(V, T)


@pytest.mark.parametrize("degree,count", [(1, 4), (2, 9), (3, 16), (4, 25)])
def test_node_counts(tri, degree, count):
    space = build_space(tri, degree)
    assert space.n_nodes == count
    assert space.element_nodes.shape == (2, (degree + 1) * (degree + 2) // 2)


def test_unsupported_degree(tri):
    with pytest.raises(UnsupportedDegree):
        build_space(tri, 0)
    with pytest.raises(UnsupportedDegree):
        build_space(tri, 5)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_partition_of_unity(tri, degree):
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2))
    pts = pts[pts[:, 0] >= pts[:, 1]]  # inside element 0
    space = build_space(tri, degree)
    vals, grads = eval_basis(space, 0, pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_nodal_property(tri, degree):
    space = build_space(tri, degree)
    for k in range(2):
        ids = space.element_nodes[k]
        vals, _ = eval_basis(space, k, space.nodes[ids])
        assert np.allclose(vals, np.eye(len(ids)), atol=1e-11)


def test_point_outside_element(tri):
    space = build_space(tri, 1)
    with pytest.raises(PointOutsideElement):
        eval_basis(space, 0, np.array([[0.05, 0.9]]))  # belongs to element 1


@pytest.mark.parametrize("degree", [1, 3])
def test_element_basis_stacks_eval_basis(tri, degree):
    space = build_space(tri, degree)
    pts = np.stack([space.nodes[space.element_nodes[k]] for k in range(2)])
    vals, grads = element_basis(space, [0, 1], pts)
    for k in range(2):
        v, g = eval_basis(space, k, pts[k])
        assert np.array_equal(vals[k], v) and np.array_equal(grads[k], g)
    with pytest.raises(PointOutsideElement, match="element 1"):
        element_basis(space, [0, 1], pts[[0, 0]])  # row 1 holds the nodes of element 0


def test_element_dual_basis_linear(tri):
    # biorthogonal dual of the linear hats on one triangle: rows of M^{-1};
    # scaled by the area they are [[9,-3,-3],[-3,9,-3],[-3,-3,9]]
    D = element_dual_basis(build_space(tri, 1), 0)
    area = 0.5
    assert np.allclose(D * area, np.array([[9.0, -3.0, -3.0],
                                           [-3.0, 9.0, -3.0],
                                           [-3.0, -3.0, 9.0]]), atol=1e-12)


def test_dual_norm_linear(tri):
    # ||psi_z||^2_K = 9/|K| for linear elements
    space = build_space(tri, 1)
    M = element_mass_matrix(space, 0)
    D = element_dual_basis(space, 0)
    norms = np.diag(D @ M @ D.T)
    assert np.allclose(norms, 9.0 / 0.5, rtol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_element_dual_reproduces_point_values(tri, degree):
    # p(z) = int_K p psi_z for every polynomial p of degree <= degree
    rng = np.random.default_rng(7)
    space = build_space(tri, degree)
    from qmloc.quadrature import triangle_rule

    for k in range(2):
        ids = space.element_nodes[k]
        D = element_dual_basis(space, k)
        pts, wts = triangle_rule(2 * degree, *V[T[k]])
        vals, _ = eval_basis(space, k, pts)
        for _ in range(100):
            coef = rng.standard_normal(len(ids))

            def p(x):
                v, _ = eval_basis(space, k, x)
                return v @ coef

            moments = vals.T @ (wts * p(pts))
            dual_values = D @ moments
            assert np.allclose(dual_values, p(space.nodes[ids]), atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_face_dual_reproduces_point_values(tri, degree):
    # 1D analogue on an edge: p(z) = int_F p psi_z^F
    rng = np.random.default_rng(11)
    space = build_space(tri, degree)
    e = tri.interior_edges()[0]
    ids, D = face_dual_basis(space, e)
    i, j = tri.edges[e]
    p0, p1 = tri.vertices[i], tri.vertices[j]
    L = float(np.linalg.norm(p1 - p0))
    x, w = np.polynomial.legendre.leggauss(degree + 2)
    t = 0.5 * (x + 1.0)
    wts = 0.5 * L * w
    phi = edge_basis_1d(degree, t)
    t_nodes = np.linalg.norm(space.nodes[list(ids)] - p0, axis=1) / L
    for _ in range(100):
        coef = rng.standard_normal(degree + 1)
        pv = np.polyval(coef, t)
        moments = phi.T @ (wts * pv)
        assert np.allclose(D @ moments, np.polyval(coef, t_nodes), atol=1e-10)


def test_face_dual_linear_closed_form(tri):
    # for linears on an edge of length L: psi_z = (4 phi_z - 2 phi_y)/L
    space = build_space(tri, 1)
    e = tri.interior_edges()[0]
    ids, D = face_dual_basis(space, e)
    L = np.sqrt(2.0)
    assert np.allclose(D, (2.0 / L) * np.array([[2.0, -1.0], [-1.0, 2.0]]), atol=1e-12)


def test_dirichlet_mask(tri):
    space = build_space(tri, 2, dirichlet_on_boundary=True)
    # only the interior-edge midpoint and the diagonal's endpoints... on this
    # mesh every vertex is on the boundary; free nodes = diagonal midpoint only
    free = ~space.dirichlet
    assert free.sum() == 1
    mid = space.nodes[np.flatnonzero(free)[0]]
    assert np.allclose(mid, [0.5, 0.5])


def _rescan_numbering(tri, degree):
    """Node numbering by canonical keys, with each edge's interior nodes
    found by rescanning the whole key map: the quadratic reference for
    build_space.  Returns (nodes, element_nodes, per-edge node tuples)."""
    multi, _, _ = _lattice(degree)
    coords, keymap = [], {}
    elem_nodes = np.empty((tri.n_elements, len(multi)), dtype=np.int64)
    vertex_node = {}
    for k, (a, b, c) in enumerate(tri.triangles):
        gverts = (int(a), int(b), int(c))
        pts = tri.vertices[list(gverts)]
        for loc, w in enumerate(multi):
            nz = [t for t in range(3) if w[t] > 0]
            if len(nz) == 1:
                key = ("vertex", gverts[nz[0]])
            elif len(nz) == 2:
                eid = int(tri.triangle_edges[k, 3 - nz[0] - nz[1]])
                lo = nz[0] if gverts[nz[0]] < gverts[nz[1]] else nz[1]
                key = ("edge", eid, w[lo])
            else:
                key = ("interior", k, loc)
            if key not in keymap:
                keymap[key] = len(coords)
                coords.append((w[0] * pts[0] + w[1] * pts[1] + w[2] * pts[2]) / degree)
                if key[0] == "vertex":
                    vertex_node[key[1]] = keymap[key]
            elem_nodes[k, loc] = keymap[key]
    edges = []
    for e, (a, b) in enumerate(tri.edges):
        found = [(key[2], gid) for key, gid in keymap.items()
                 if key[0] == "edge" and key[1] == e]
        inner = [gid for _, gid in sorted(found, reverse=True)]
        edges.append((vertex_node[int(a)], *inner, vertex_node[int(b)]))
    return np.array(coords), elem_nodes, edges


# the three meshes of the first numbering test keep their names
_ALIASES = {"checkerboard": "checkerboard2", "fig1-left": "fig1-left2"}
_MESHES = ["hexagon", "checkerboard", "fig1-left"] + [
    name for name in mesh_reference.catalog()
    if name not in ("hexagon", *_ALIASES.values())]


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh", _MESHES)
def test_numbering_matches_rescan(mesh, degree):
    verts, tris, refines = mesh_reference.catalog()[_ALIASES.get(mesh, mesh)]
    tri = build_triangulation(verts, tris)
    for _ in range(refines):
        tri = uniform_refine(tri)
    space = build_space(tri, degree, dirichlet_on_boundary=True)
    ref = mesh_reference.build_space(tri, degree, dirichlet_on_boundary=True)
    mesh_reference.assert_same_fields(space, ref)
    if tri.n_elements <= 512:  # the rescan is quadratic
        nodes, elem_nodes, edges = _rescan_numbering(tri, degree)
        assert np.array_equal(space.nodes, nodes)
        assert np.array_equal(space.element_nodes, elem_nodes)
        assert list(map(tuple, space.edge_nodes.tolist())) == edges


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_node_levels_are_a_level_structure(degree):
    """The levels of `fespace_reference.node_levels`: every node has a
    level, the first level is one node, and the nodes of each element lie
    in one level or two adjacent ones; a second component continues the
    levels after the first."""
    square = uniform_refine(uniform_refine(build_triangulation(V, T)))
    two = build_triangulation(np.vstack([square.vertices, square.vertices + 2.0]),
                              np.vstack([square.triangles, square.triangles + square.n_vertices]))
    for mesh in (square, two):
        space = build_space(mesh, degree)
        levels = node_levels(space)
        assert (np.bincount(levels) > 0).all() and np.count_nonzero(levels == 0) == 1
        spread = levels[space.element_nodes]
        assert (spread.max(axis=1) - spread.min(axis=1) <= 1).all()
    near, far = levels[space.nodes[:, 0] < 1.5], levels[space.nodes[:, 0] > 1.5]
    assert near.max() < far.min() or far.max() < near.min()


_LEVEL_SPACES = ({f"fig1-{r}": (lambda r=r: build_space(fig1_left_pattern(1.0, r)[0], 1))
                  for r in range(1, 6)}
                 | {f"checkerboard-{N}": (lambda N=N: build_space(checkerboard_mesh(N)[0], 1,
                                                                  dirichlet_on_boundary=True))
                    for N in range(2, 17)}
                 | {"hexagon": lambda: build_space(hexagon_mesh(0.1)[0], 1),
                    "hexagon-dirichlet": lambda: build_space(hexagon_mesh(0.1)[0], 1,
                                                             dirichlet_on_boundary=True)})


@pytest.mark.parametrize("case", sorted(_LEVEL_SPACES))
def test_one_search_prices_the_factor_as_the_pseudo_peripheral_levels(case):
    """On every free set `ritz_each` factors over (the unknowns; all nodes
    or all but node 0 on a space without Dirichlet nodes), the levels of
    one search from a node of least degree, which the chain oracle
    `ritz_reference.level_fronts` orders by, have the widths of the
    pseudo-peripheral levels, in the same or the reverse order, and so the
    same chain price 8 (sum w_i^2 + sum w_i w_(i-1))."""
    space = _LEVEL_SPACES[case]()
    free = ~space.dirichlet
    pinned = free.copy()
    pinned[0] = False
    for unknowns in ([free] if space.dirichlet.any() else [free, pinned]):
        got = np.bincount(node_levels(space)[unknowns])
        want = np.bincount(pseudo_peripheral_levels(space)[unknowns])
        got, want = got[got > 0], want[want > 0]
        assert np.array_equal(got, want) or np.array_equal(got, want[::-1])
        assert got @ got + got[1:] @ got[:-1] == want @ want + want[1:] @ want[:-1]
