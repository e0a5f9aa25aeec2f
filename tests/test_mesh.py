"""Triangulation construction, topology queries, refinement, and I/O."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmloc.errors import DegenerateElement, NonConforming
from qmloc.mesh import (_region_groups, box_point_pairs, build_triangulation, edge_pair,
                        element_patch, load_mesh, region_rows, save_mesh,
                        uniform_refine, vertex_patch)

import mesh_reference

SQUARE_V = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
SQUARE_T = np.array([[0, 1, 2], [0, 2, 3]])


@pytest.fixture
def square():
    return build_triangulation(SQUARE_V, SQUARE_T)


def test_counts_and_interior_entities(square):
    assert square.n_vertices == 4
    assert square.n_elements == 2
    assert square.n_edges == 5
    assert square.interior_edges() == (square.interior_edges()[0],)
    assert square.interior_vertices() == ()


def test_orientation_is_ccw(square):
    for k in range(square.n_elements):
        a, b, c = square.vertices[square.triangles[k]]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross > 0


def test_areas_and_diameters(square):
    assert np.allclose(square.areas, 0.5)
    assert np.allclose(square.diameters, np.sqrt(2.0))


def test_shape_parameter_right_triangle(square):
    # diameter sqrt(2), inscribed-ball diameter 2*area/semiperimeter = 2 - sqrt(2)
    expected = np.sqrt(2.0) / (2.0 - np.sqrt(2.0))
    assert square.shape_parameter == pytest.approx(expected, rel=1e-14)
    assert square.shape_parameter == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-14)


def test_patches(square):
    e = square.interior_edges()[0]
    assert set(edge_pair(square, e)) == {0, 1}
    assert set(vertex_patch(square, 0)) == {0, 1}
    assert set(vertex_patch(square, 1)) == {0}
    assert set(element_patch(square, 0)) == {0, 1}


def test_region_rows_and_groups():
    """A row selection keeps each row's ids in order; the walk visits every
    row once, grouped by size, sizes and rows ascending."""
    regions = mesh_reference.csr([[3], [0, 4], [1], [2, 5, 6], [7, 8]])
    offsets, ids = region_rows(regions, [3, 1, 1])
    assert offsets.tolist() == [0, 3, 5, 7] and ids.tolist() == [2, 5, 6, 0, 4, 0, 4]
    walk = [(rows.tolist(), elems.tolist()) for rows, elems in _region_groups(regions)]
    assert walk == [([0, 2], [[3], [1]]), ([1, 4], [[0, 4], [7, 8]]), ([3], [[2, 5, 6]])]


def test_uniform_refine_counts_and_parents(square):
    fine = uniform_refine(square)
    assert fine.n_elements == 8
    assert fine.n_vertices == 9
    assert sorted(fine.parents.tolist()) == [0] * 4 + [1] * 4
    assert np.isclose(fine.areas.sum(), 1.0)
    # red refinement preserves the shape parameter
    assert fine.shape_parameter == pytest.approx(square.shape_parameter, rel=1e-12)


def test_degenerate_element_rejected():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateElement):
        build_triangulation(V, np.array([[0, 1, 2]]))


def test_repeated_vertex_rejected():
    V = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises((DegenerateElement, NonConforming, ValueError)):
        build_triangulation(V, np.array([[0, 1, 1]]))


def test_hanging_vertex_rejected():
    # vertex 3 = (1,0) sits strictly inside the edge (0,1) of the top triangle
    V = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.0],
                  [0.5, -1.0], [1.5, -1.0]])
    T = np.array([[0, 1, 2], [0, 4, 3], [3, 5, 1]])
    with pytest.raises(NonConforming):
        build_triangulation(V, T)


def test_edge_overuse_rejected():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0], [0.0, -1.0]])
    T = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(NonConforming):
        build_triangulation(V, T)


@pytest.mark.parametrize("verts,tris,message", [
    (SQUARE_V[:3], [[0, 1, 2], [0, 1, 2]], "triangles 0 and 1 overlap on edge (0, 1)"),
    ([[0, 0], [1, 0], [0, 1], [0.2, 0.3]], [[0, 1, 2], [0, 1, 3]],
     "triangles 0 and 1 overlap on edge (0, 1)"),
])
def test_overlapping_triangles_rejected(verts, tris, message):
    """A duplicated triangle and a fold: both triangles of an edge traverse
    it in the same direction once counter-clockwise."""
    for build in (build_triangulation, mesh_reference.build_triangulation):
        with pytest.raises(NonConforming, match=rf"^{re.escape(message)}$"):
            build(np.asarray(verts, dtype=float), np.asarray(tris))


def test_save_load_round_trip(tmp_path, square):
    path = tmp_path / "mesh.json"
    save_mesh(square, path, coefficient=[2.0, 3.0])
    tri, coeff = load_mesh(path)
    assert np.array_equal(tri.vertices, square.vertices)
    assert np.array_equal(tri.triangles, square.triangles)
    assert np.allclose(coeff, [2.0, 3.0])


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"vertices": [[0, 0], [1, 0], [None, 1]], "triangles": [[0, 1, 2]]}
    path.write_text(json.dumps(doc).replace("null", "NaN"))
    with pytest.raises(ValueError):
        load_mesh(path)


@pytest.mark.parametrize("name", list(mesh_reference.catalog()))
def test_triangulation_matches_reference(name):
    verts, tris, refines = mesh_reference.catalog()[name]
    fast = build_triangulation(verts, tris)
    ref = mesh_reference.build_triangulation(verts, tris)
    mesh_reference.assert_same_fields(fast, ref)
    for _ in range(refines):
        fast, ref = uniform_refine(fast), mesh_reference.uniform_refine(ref)
        mesh_reference.assert_same_fields(fast, ref)


def _outcome(build, verts, tris):
    try:
        return build(verts, tris)
    except (ValueError, DegenerateElement, NonConforming) as exc:
        return type(exc), str(exc)


DEFECTS = ["none", "hanging", "moved", "third", "duplicate", "fold"]


def _defective_grid(seed, n, defect):
    """(vertices, triangles) of a perturbed n x n grid with one `defect`: a
    hanging vertex, a vertex moved onto an edge, a third triangle on one
    edge, a duplicated triangle or a vertex reflected across an edge of its
    triangle."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    inner = (verts > 0).all(axis=1) & (verts < 1).all(axis=1)
    verts[inner] += rng.uniform(-0.25, 0.25, (inner.sum(), 2)) / n
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            c, d = b + 1, a + 1
            tris += [(a, b, c), (a, c, d)] if rng.random() < 0.5 else [(a, b, d), (b, c, d)]
    tris = [t[::-1] if rng.random() < 0.5 else t for t in tris]  # mixed orientation
    k = int(rng.integers(len(tris)))
    a, b, c = tris[k]
    if defect == "hanging":  # split one triangle at the midpoint of one of its edges
        m = len(verts)
        verts = np.vstack([verts, 0.5 * (verts[a] + verts[b])])
        tris[k:k + 1] = [(a, m, c), (m, b, c)]
    elif defect == "moved":  # some vertex onto the edge (a, b)
        v = int(rng.integers(len(verts)))
        verts[v] = verts[a] + rng.uniform(0.2, 0.8) * (verts[b] - verts[a])
    elif defect == "third":  # another triangle on the edge (a, b)
        verts = np.vstack([verts, verts[c] + rng.uniform(-0.5, 0.5, 2)])
        tris.append((a, b, len(verts) - 1))
    elif defect == "duplicate":  # triangle k again, in either orientation
        tris.append((a, b, c) if rng.random() < 0.5 else (c, b, a))
    elif defect == "fold":  # c onto the other side of (a, b), over a neighbour
        d, rel = verts[b] - verts[a], verts[c] - verts[a]
        verts[c] = verts[a] + 2.0 * (rel @ d) / (d @ d) * d - rel
    return verts, np.array(tris)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), defect=st.sampled_from(DEFECTS))
def test_conformity_checks_match_reference(seed, n, defect):
    """On the grids of `_defective_grid`: the array build raises what the
    loop reference raises, or both accept and agree field by field."""
    verts, tris = _defective_grid(seed, n, defect)
    fast = _outcome(build_triangulation, verts, tris)
    ref = _outcome(mesh_reference.build_triangulation, verts, tris)
    if isinstance(ref, tuple):
        assert fast == ref
    else:
        assert not isinstance(fast, tuple), fast
        mesh_reference.assert_same_fields(fast, ref)


CATALOG = mesh_reference.catalog()


def _assert_same_outcome_scaled(verts, tris, k):
    """Built at 2^k times the coordinates, the mesh raises the same error
    type and message, or has exactly 4^k times the areas and 2^k times the
    diameters."""
    base = _outcome(build_triangulation, verts, tris)
    scaled = _outcome(build_triangulation, np.ldexp(verts, k), tris)
    if isinstance(base, tuple):
        assert scaled == base
    else:
        assert not isinstance(scaled, tuple), scaled
        assert np.array_equal(scaled.areas, np.ldexp(base.areas, 2 * k))
        assert np.array_equal(scaled.diameters, np.ldexp(base.diameters, k))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-60, 60), name=st.sampled_from(list(CATALOG)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), defect=st.sampled_from(DEFECTS))
@example(k=-40, name="square2048", seed=0, n=2, defect="none")
@example(k=-60, name="hexagon", seed=1, n=3, defect="hanging")
def test_mesh_checks_do_not_depend_on_scale(k, name, seed, n, defect):
    """The area and hanging-vertex tests are relative to each element and
    edge: a catalog mesh and a defective grid scaled by 2^k, |k| <= 60,
    build exactly as unscaled (the unit square at 2^-40 was refused as
    having non-positive area)."""
    verts, tris, _ = CATALOG[name]
    _assert_same_outcome_scaled(verts, tris, k)
    _assert_same_outcome_scaled(*_defective_grid(seed, n, defect), k)


def _assert_refines_as_rebuilt(tri, times):
    """Refines `tri` `times` times.  Each child mesh equals, field by field
    and dtype included, the array build of its own vertices and children,
    with every check run again, and, up to 4,096 children, the loop
    reference's refinement of the same parent (that reference is quadratic
    in size)."""
    for _ in range(times):
        fine = uniform_refine(tri)
        mesh_reference.assert_same_fields(
            fine, replace(build_triangulation(fine.vertices, fine.triangles), parents=fine.parents))
        if fine.n_elements <= 4096:
            mesh_reference.assert_same_fields(fine, mesh_reference.uniform_refine(tri))
        tri = fine


@pytest.mark.parametrize("name", ["hexagon", "checkerboard1", "checkerboard2", "checkerboard3",
                                  "checkerboard4", "fig1-left0", "fig1-right0", "square2048"])
def test_refinement_derives_what_the_checked_build_builds(name):
    """The derived tables of `uniform_refine` on the catalog meshes, refined
    4 times and fig1 6 times: skipping the checks loses nothing."""
    verts, tris, _ = CATALOG[name]
    _assert_refines_as_rebuilt(build_triangulation(verts, tris), 6 if name == "fig1-left0" else 4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), k=st.integers(-60, 60),
       times=st.integers(1, 3))
def test_refinement_derives_what_the_checked_build_builds_on_grids(seed, n, k, times):
    """The same on perturbed grids of mixed orientation, scaled by 2^k."""
    verts, tris = _defective_grid(seed, n, "none")
    _assert_refines_as_rebuilt(build_triangulation(np.ldexp(verts, k), tris), times)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 25))
def test_box_point_pairs_find_every_point_in_a_box(seed, m):
    """Lattice points on a grid of cell size 1 and boxes with integer or
    half-integer corners: the pairs hold every point inside a box,
    boundaries included, once, boxes in ascending order; for integer
    corners they hold nothing else."""
    rng = np.random.default_rng(seed)
    X, Y = np.meshgrid(np.arange(m + 1.0), np.arange(m + 1.0), indexing="ij")
    points = rng.permutation(np.column_stack([X.ravel(), Y.ravel()]))
    lo = rng.integers(-2, 2 * m + 3, (500, 2)) / 2.0
    hi = lo + rng.integers(-1, m + 1, (500, 2))  # some boxes empty
    box, pt = (np.concatenate(a) for a in zip(*box_point_pairs(points, lo, hi, 1.0)))
    assert np.all(np.diff(box) >= 0)
    assert len(set(zip(box.tolist(), pt.tolist()))) == len(box)
    inside = ((points[None] >= lo[:, None]) & (points[None] <= hi[:, None])).all(axis=2)
    found = np.zeros_like(inside)
    found[box, pt] = True
    assert not (inside & ~found).any()
    whole = (lo == np.round(lo)).all(axis=1)
    assert inside[box, pt][whole[box]].all()
