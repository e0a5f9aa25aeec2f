"""Quasi-monotonicity classifier, monotone paths, and derived selections."""
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmloc.coeff import (_witnesses, attach_coefficient, build_omega_hat,
                         check_quasi_monotonicity, find_monotone_path,
                         select_kmax_fz, space_star)
from qmloc.counterexamples import (checkerboard_mesh, fig1_left_pattern, fig1_meshes,
                                   hexagon_mesh)
from qmloc.errors import LocusMismatch, NoMonotonePath, NonPositiveValue, UnknownLocus
from qmloc.fespace import build_space
from qmloc.mesh import build_triangulation, edge_pair, element_patch, vertex_patch

import coeff_reference
from interp_reference import select_kmax as loop_select_kmax


def brute_force_quasi_monotone(tri, coeff):
    """Exhaustive simple-path enumeration over every vertex star."""
    a = coeff.values
    for z in range(tri.n_vertices):
        star = sorted(vertex_patch(tri, z))
        adj = {
            (k, kk)
            for k, kk in itertools.permutations(star, 2)
            if any(set(edge_pair(tri, e).tolist()) == {k, kk} for e in range(tri.n_edges))
        }
        for k, kk in itertools.permutations(star, 2):
            if a[k] > a[kk]:
                continue
            found = False
            for m in range(1, len(star) + 1):
                for path in itertools.permutations(star, m):
                    if path[0] != k or path[-1] != kk:
                        continue
                    if any((p, q) not in adj for p, q in zip(path, path[1:])):
                        continue
                    vals = a[list(path)]
                    if np.all(np.diff(vals) >= 0):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def perturbed_grid(n, rng):
    """The unit square in n x n cells with random diagonals (vertex stars of
    4 to 8 elements), interior vertices moved by up to a quarter cell."""
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
    return build_triangulation(verts, tris)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), levels=st.integers(1, 4),
       degree=st.sampled_from([1, 2, 3]))
def test_classifier_matches_the_loop_oracle(seed, n, levels, degree):
    """Random integer coefficients (so ties occur) on perturbed grids: every
    verdict and witness equals the per-star loop's, for the loci of the
    degree and for a shuffled node set of all kinds; up to n = 3 the verdict
    equals the exhaustive path search (edge pairs and single elements never
    fail, so the vertex stars decide every degree)."""
    rng = np.random.default_rng(seed)
    tri = perturbed_grid(n, rng)
    coeff = attach_coefficient(tri, rng.integers(1, levels + 1, tri.n_elements).astype(float))
    report = check_quasi_monotonicity(tri, coeff, degree=degree)
    assert report == coeff_reference.check_quasi_monotonicity(tri, coeff, degree=degree)
    loci = ([("vertex", z) for z in range(tri.n_vertices)]
            + [("edge", e) for e in range(tri.n_edges)]
            + [("element", k) for k in range(tri.n_elements)])
    node_set = [loci[i] for i in rng.permutation(len(loci))[:rng.integers(len(loci) + 1)]]
    assert (check_quasi_monotonicity(tri, coeff, node_set=node_set)
            == coeff_reference.check_quasi_monotonicity(tri, coeff, node_set=node_set))
    # numpy integer ids name the same loci, reported as plain ints
    numpy_ids = [(kind, np.int64(i) if k % 2 else np.int32(i))
                 for k, (kind, i) in enumerate(node_set)]
    with_numpy = check_quasi_monotonicity(tri, coeff, node_set=numpy_ids)
    assert with_numpy == check_quasi_monotonicity(tri, coeff, node_set=node_set)
    assert all(type(i) is int for (_, i), _ in with_numpy.verdicts)
    if n <= 3:
        assert report.quasi_monotone is brute_force_quasi_monotone(tri, coeff)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), ties=st.booleans(),
       degree=st.sampled_from([2, 3]))
def test_edge_and_element_loci_pass_as_the_squaring_pass_decides(seed, n, ties, degree):
    """Only vertex stars go through the squaring pass; run on every locus of
    the degree, random coefficients (integers with ties, or continuous),
    the pass gives the same verdicts and witnesses."""
    rng = np.random.default_rng(seed)
    tri = perturbed_grid(n, rng)
    a = rng.integers(1, 4, tri.n_elements).astype(float) if ties else rng.uniform(
        0.1, 10.0, tri.n_elements)
    report = check_quasi_monotonicity(tri, attach_coefficient(tri, a), degree=degree)
    patch = {"vertex": lambda z: vertex_patch(tri, z), "edge": lambda e: edge_pair(tri, e),
             "element": lambda k: [k]}
    regions = [np.asarray(patch[kind](i)) for (kind, i), _ in report.verdicts]
    offsets = np.concatenate([[0], np.cumsum([len(r) for r in regions])])
    witness = _witnesses(tri, a, (offsets, np.concatenate(regions))).tolist()
    loci = [locus for locus, _ in report.verdicts]
    assert report.verdicts == tuple((locus, k < 0) for locus, (k, _) in zip(loci, witness))
    assert report.witnesses == tuple((locus, k, kk) for locus, (k, kk) in zip(loci, witness)
                                     if k >= 0)


def test_unknown_locus_rejected():
    tri, coeff = hexagon_mesh(0.1)
    for locus, message in [(("face", 0), "unknown locus kind 'face'"),
                           (("vertex", 7), "vertex 7"), (("edge", -1), "edge -1"),
                           (("element", 6), "element 6")]:
        with pytest.raises(UnknownLocus, match=f"^{re.escape(message)}$"):
            check_quasi_monotonicity(tri, coeff, node_set=[("vertex", 0), locus])


def test_numpy_integer_loci_are_reported_as_ints():
    tri, coeff = hexagon_mesh(0.1)
    report = check_quasi_monotonicity(tri, coeff, node_set=[("vertex", np.int64(4)),
                                                            ("edge", np.uint8(2)),
                                                            ("element", np.int32(3))])
    assert report.verdicts == check_quasi_monotonicity(
        tri, coeff, node_set=[("vertex", 4), ("edge", 2), ("element", 3)]).verdicts
    assert [type(i) for (_, i), _ in report.verdicts] == [int, int, int]
    assert json.loads(json.dumps(report.to_json_dict()))["verdicts"][0]["locus"] == ["vertex", 4]


@pytest.mark.parametrize("locus, message", [
    (("vertex", 1.5), "vertex id 1.5 is not an integer"),
    (("vertex", True), "vertex id True is not an integer"),
    (("edge", 2.7), "edge id 2.7 is not an integer"),
    (("element", 3.9), "element id 3.9 is not an integer"),
    (("vertex", "1"), "vertex id '1' is not an integer"),
    (("vertex", None), "vertex id None is not an integer"),
], ids=["float-vertex", "bool-vertex", "float-edge", "float-element", "str-vertex",
        "none-vertex"])
def test_non_integer_locus_id_rejected(locus, message):
    tri, coeff = hexagon_mesh(0.1)
    with pytest.raises(UnknownLocus, match=f"^{re.escape(message)}$"):
        check_quasi_monotonicity(tri, coeff, node_set=[("vertex", 0), locus])


@pytest.mark.parametrize("call, message", [
    (lambda tri, coeff, space: build_omega_hat(tri, coeff, -1), "element -1"),
    (lambda tri, coeff, space: build_omega_hat(tri, coeff, 6), "element 6"),
    (lambda tri, coeff, space: build_omega_hat(tri, coeff, 1.5),
     "element id 1.5 is not an integer"),
    (lambda tri, coeff, space: space_star(space, -1), "node -1"),
    (lambda tri, coeff, space: space_star(space, space.n_nodes), "node 7"),
    (lambda tri, coeff, space: vertex_patch(tri, 1.5), "vertex id 1.5 is not an integer"),
    (lambda tri, coeff, space: vertex_patch(tri, True), "vertex id True is not an integer"),
    (lambda tri, coeff, space: edge_pair(tri, 2.0), "edge id 2.0 is not an integer"),
    (lambda tri, coeff, space: element_patch(tri, 1.5), "element id 1.5 is not an integer"),
    *[(lambda tri, coeff, space, k=k: find_monotone_path(tri, coeff, 0, k, 2), message)
      for k, message in [(True, "element id True is not an integer"),
                         (1.0, "element id 1.0 is not an integer"),
                         (1.5, "element id 1.5 is not an integer"), (-1, "element -1")]],
    (lambda tri, coeff, space: find_monotone_path(tri, coeff, 0, 2, 1.0),
     "element id 1.0 is not an integer"),
    *[(lambda tri, coeff, space, node_set=node_set:
       check_quasi_monotonicity(tri, coeff, node_set=node_set), message)
      for node_set, message in [
          ([("vertex",)], "locus ('vertex',) is not a (kind, id) pair"),
          ([("vertex", 1, 2)], "locus ('vertex', 1, 2) is not a (kind, id) pair"),
          ([5], "locus 5 is not a (kind, id) pair"),
          ([None], "locus None is not a (kind, id) pair"),
          ([(["vertex"], 1)], "unknown locus kind ['vertex']")]],
], ids=["omega-hat-negative", "omega-hat-past-end", "omega-hat-float", "space-star-negative",
        "space-star-past-end", "vertex-patch-float", "vertex-patch-bool", "edge-pair-float",
        "element-patch-float", "path-bool", "path-integral-float", "path-float",
        "path-negative", "path-float-target", "locus-of-one", "locus-of-three", "locus-int", "locus-none",
        "locus-list-kind"])
def test_every_locus_reader_refuses_a_bad_id_with_unknown_locus(call, message):
    tri, coeff = hexagon_mesh(0.1)
    with pytest.raises(UnknownLocus, match=f"^{re.escape(message)}$"):
        call(tri, coeff, build_space(tri, 1))


def test_find_monotone_path_refuses_elements_outside_the_star():
    tri, coeff = hexagon_mesh(0.1)
    assert vertex_patch(tri, 1).tolist() == [0, 5]
    with pytest.raises(LocusMismatch, match=r"^elements \(0, 2\) not both in the star of vertex 1$"):
        find_monotone_path(tri, coeff, 1, 0, 2)


def test_non_positive_coefficient_rejected():
    tri, _ = hexagon_mesh(0.1)
    with pytest.raises(NonPositiveValue):
        attach_coefficient(tri, [1, 1, 1, 0, 1, 1])


@pytest.mark.parametrize("M,expected", [(2, True), (4, True), (8, True), (1.5, False), (1, True)])
def test_fig1_left_verdicts(M, expected):
    tri, coeff = fig1_meshes(M, "left")
    assert check_quasi_monotonicity(tri, coeff).quasi_monotone is expected
    assert brute_force_quasi_monotone(tri, coeff) is expected


@pytest.mark.parametrize("M,expected", [(10, False), (100, False), (1, True)])
def test_fig1_right_verdicts(M, expected):
    tri, coeff = fig1_meshes(M, "right")
    assert check_quasi_monotonicity(tri, coeff).quasi_monotone is expected
    assert brute_force_quasi_monotone(tri, coeff) is expected


def test_hexagon_not_quasi_monotone_with_witness():
    tri, coeff = hexagon_mesh(0.1)
    report = check_quasi_monotonicity(tri, coeff)
    assert not report.quasi_monotone
    assert len(report.witnesses) > 0
    locus, k, kk = report.witnesses[0]
    assert coeff.values[k] <= coeff.values[kk]
    kind, z = locus
    assert kind == "vertex"
    assert find_monotone_path(tri, coeff, z, k, kk) is None
    assert brute_force_quasi_monotone(tri, coeff) is False


def test_checkerboard_not_quasi_monotone():
    tri, coeff = checkerboard_mesh(2)
    report = check_quasi_monotonicity(tri, coeff)
    assert not report.quasi_monotone
    assert len(report.witnesses) > 0
    assert brute_force_quasi_monotone(tri, coeff) is False


def test_constant_coefficient_quasi_monotone():
    tri, _ = hexagon_mesh(0.1)
    coeff = attach_coefficient(tri, np.full(6, 3.7))
    assert check_quasi_monotonicity(tri, coeff).quasi_monotone


def test_path_properties():
    tri, _ = hexagon_mesh(0.1)
    coeff = attach_coefficient(tri, [1, 2, 4, 8, 16, 32])
    path = find_monotone_path(tri, coeff, 0, 0, 3)
    assert path.elements[0] == 0 and path.elements[-1] == 3
    vals = coeff.values[list(path.elements)]
    assert np.all(np.diff(vals) >= 0)
    assert len(path.shared_edges) == len(path.elements) - 1
    for e, (k, kk) in zip(path.shared_edges, zip(path.elements, path.elements[1:])):
        assert set(edge_pair(tri, e).tolist()) == {k, kk}
    # shortest: 0 -> 1 -> 2 -> 3 around the fan
    assert path.elements == (0, 1, 2, 3)


def select_kmax(tri, coeff, star):
    """K_max of the vertex whose star is `star`, read from `select_kmax_fz`
    and checked against the per-star loop."""
    z = next(z for z in range(tri.n_vertices) if set(vertex_patch(tri, z)) == set(star))
    space = build_space(tri, 1)
    fast = int(select_kmax_fz(space, coeff)[0][space.vertex_nodes[z]])
    assert fast == loop_select_kmax(tri, coeff, star)
    return fast


def test_scale_invariance():
    tri, coeff = hexagon_mesh(0.1)
    scaled = attach_coefficient(tri, 17.0 * coeff.values)
    r1 = check_quasi_monotonicity(tri, coeff)
    r2 = check_quasi_monotonicity(tri, scaled)
    assert r1.quasi_monotone == r2.quasi_monotone
    assert r1.witnesses == r2.witnesses
    star = list(range(6))
    assert select_kmax(tri, coeff, star) == select_kmax(tri, scaled, star)


def test_kmax_tie_break_smallest_id():
    tri, _ = hexagon_mesh(0.1)
    coeff = attach_coefficient(tri, [1.0, 2.0, 2.0, 1.0, 2.0, 2.0])
    assert select_kmax(tri, coeff, list(range(6))) == 1


def test_select_fz_is_edge_of_kmax():
    tri, coeff = hexagon_mesh(0.1)
    space = build_space(tri, 1)
    kmaxs, _, fzs = select_kmax_fz(space, coeff)
    for z, (kmax, e) in enumerate(zip(kmaxs.tolist(), fzs.tolist())):
        assert e in tuple(int(x) for x in tri.triangle_edges[kmax])
        assert z in tuple(int(v) for v in tri.edges[e])


def test_omega_hat_constant_coefficient():
    tri, _ = hexagon_mesh(0.1)
    coeff = attach_coefficient(tri, np.ones(6))
    for k in range(6):
        omega = build_omega_hat(tri, coeff, k)
        assert k in omega
        patch = {kk for z in tri.triangles[k] for kk in vertex_patch(tri, int(z))}
        assert set(omega) <= patch


@pytest.mark.parametrize("degree", [1, 2])
def test_omega_hat_reaches_kmax_of_every_node(degree):
    tri, _ = hexagon_mesh(0.1)
    meshes = [(tri, attach_coefficient(tri, np.ones(6))), fig1_meshes(4, "left")]
    for tri, coeff in meshes:  # all ties, then a quasi-monotone contrast
        space = build_space(tri, degree)
        kmax = select_kmax_fz(space, coeff)[0]
        for k in range(tri.n_elements):
            omega = build_omega_hat(tri, coeff, k, space=space)
            assert set(kmax[space.element_nodes[k]].tolist()) <= set(omega)


def test_omega_hat_refuses_non_qm():
    tri, coeff = hexagon_mesh(0.1)
    with pytest.raises(NoMonotonePath):
        build_omega_hat(tri, coeff, 3)


def test_crucial_inequality_under_qm():
    tri, coeff = fig1_meshes(4, "left")
    for k in range(tri.n_elements):
        omega = build_omega_hat(tri, coeff, k)
        assert all(coeff.values[k] <= coeff.values[kk] + 1e-15 for kk in omega)


def _path_oracle_cases():
    """The meshes of the path oracle, each under its own coefficient and two
    seeded draws, one with ties and one without."""
    rng = np.random.default_rng(18)
    for tri, coeff in [hexagon_mesh(0.1), fig1_meshes(4, "left"), fig1_meshes(100, "right"),
                       checkerboard_mesh(2), fig1_left_pattern(0.25, refines=2)]:
        yield tri, coeff
        yield tri, attach_coefficient(tri, rng.choice([1.0, 2.0, 3.0], tri.n_elements))
        yield tri, attach_coefficient(tri, rng.uniform(0.1, 10.0, tri.n_elements))


def test_monotone_paths_match_the_bfs_oracle():
    """Every ordered pair of every vertex star: the path of the step-row walk
    is the dict BFS's, the lexicographically smallest shortest one, or None
    with it."""
    for tri, coeff in _path_oracle_cases():
        for z in range(tri.n_vertices):
            star = vertex_patch(tri, z)
            for k, kk in itertools.product(star.tolist(), repeat=2):
                assert (find_monotone_path(tri, coeff, z, k, kk)
                        == coeff_reference._bfs_path(tri, coeff.values, star, k, kk))


def _omega_hat_or_refusal(build, tri, coeff, k, space):
    try:
        return build(tri, coeff, k, space=space)
    except NoMonotonePath as exc:
        return str(exc)


@pytest.mark.parametrize("degree", [1, 2])
def test_omega_hat_is_the_union_of_oracle_paths(degree):
    """omega_hat at P1-P2 on fig1-left and on a constant coefficient equals
    the union of the oracle's paths; on the hexagon both refuse element 3,
    and only it, at the same node."""
    hexagon, coeff = hexagon_mesh(0.1)
    cases = [fig1_left_pattern(0.25, refines=1), fig1_meshes(4, "left"),
             (hexagon, attach_coefficient(hexagon, np.full(6, 2.0))), (hexagon, coeff)]
    for tri, coeff in cases:
        space = build_space(tri, degree)
        omegas = [_omega_hat_or_refusal(build_omega_hat, tri, coeff, k, space)
                  for k in range(tri.n_elements)]
        assert omegas == [_omega_hat_or_refusal(coeff_reference.omega_hat, tri, coeff, k, space)
                          for k in range(tri.n_elements)]
    assert [k for k, omega in enumerate(omegas) if isinstance(omega, str)] == [3]
