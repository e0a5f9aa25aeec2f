"""Non-quasi-monotone model problems: meshes, targets, analytic references."""
import numpy as np
import pytest

from qmloc.bestapprox import element_tables, energy_norm_sq
from qmloc.coeff import check_quasi_monotonicity
from qmloc.counterexamples import (analytic_energy_reference,
                                   checkerboard_mesh, checkerboard_target,
                                   fig1_left_pattern, fig1_meshes,
                                   hexagon_mesh, hexagon_target,
                                   radial_profile, radial_profile_derivative)
from qmloc.errors import ParameterOutOfRange
from qmloc.fespace import build_space
from qmloc.quadrature import make_quadrature_plan


def test_hexagon_mesh_shape():
    tri, coeff = hexagon_mesh(0.1)
    assert tri.n_elements == 6
    assert tri.n_vertices == 7
    np.testing.assert_allclose(coeff.values, [1, 0.01, 0.01, 1, 0.01, 0.01])
    assert not check_quasi_monotonicity(tri, coeff).quasi_monotone


def test_radial_profile_shape():
    eps = 0.1
    r = np.array([eps / 2, eps, 0.5, 1.0, 1.5])
    rho = radial_profile(eps, r)
    assert abs(rho[1] - (1 - eps)) < 1e-14
    assert abs(rho[2] - 0.5) < 1e-14
    assert rho[3] == 0.0 and rho[4] == 0.0
    # derivative consistent with finite differences
    rr = np.array([0.03, 0.07, 0.3, 0.8])
    h = 1e-7
    fd = (radial_profile(eps, rr + h) - radial_profile(eps, rr - h)) / (2 * h)
    np.testing.assert_allclose(radial_profile_derivative(eps, rr), fd, rtol=1e-5)


def _interface_points(eps, rng, n=200):
    """Points on the internal interfaces where the piecewise target meets."""
    pts = []
    t = rng.uniform(0.05, 0.95, n)
    quarter = n // 4
    # rays theta = 0, pi/2, pi, 3pi/2 and the circle r = eps
    pts.append(np.column_stack([t[:quarter], np.zeros(quarter)]))
    pts.append(np.column_stack([np.zeros(quarter), t[quarter:2 * quarter]]))
    pts.append(np.column_stack([-t[2 * quarter:3 * quarter], np.zeros(quarter)]))
    pts.append(np.column_stack([np.zeros(n - 3 * quarter),
                                -t[3 * quarter:]]))
    th = rng.uniform(0, 2 * np.pi, n)
    circ = eps * np.column_stack([np.cos(th), np.sin(th)])
    keep = np.abs(circ.sum(axis=1)) <= 1 - 1e-9
    pts.append(circ[keep])
    return np.vstack(pts)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.0125])
def test_hexagon_target_continuity(eps):
    target = hexagon_target(eps)
    rng = np.random.default_rng(11)
    pts = _interface_points(eps, rng)
    h = 1e-8
    for d in (np.array([h, 0.0]), np.array([0.0, h]), np.array([h, h]) / np.sqrt(2)):
        jump = np.abs(target.value(pts + d) - target.value(pts - d))
        # allow for the (finite) slope across the step; a genuine jump would
        # not shrink with h
        slope = np.linalg.norm(target.gradient(pts + d), axis=1) + \
            np.linalg.norm(target.gradient(pts - d), axis=1)
        assert np.max(jump - 10.0 * h * slope) < 1e-10


def test_hexagon_target_antisymmetry():
    target = hexagon_target(0.1)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.7, 0.7, (300, 2))
    pts = pts[np.abs(pts.sum(axis=1)) < 0.95]
    np.testing.assert_allclose(target.value(pts), -target.value(-pts), atol=1e-12)
    np.testing.assert_allclose(target.gradient(pts), target.gradient(-pts), atol=1e-12)


def test_hexagon_gradient_matches_finite_differences():
    target = hexagon_target(0.1)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-0.95, 0.95, (2000, 2))
    # stay inside the domain and away from interfaces/singularity
    m = (np.abs(pts.sum(axis=1)) < 0.9) & (np.linalg.norm(pts, axis=1) > 0.02)
    m &= (np.abs(pts[:, 0]) > 1e-3) & (np.abs(pts[:, 1]) > 1e-3)
    m &= np.abs(np.linalg.norm(pts, axis=1) - 0.1) > 1e-3
    m &= np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-3
    pts = pts[m][:500]
    g = target.gradient(pts)
    h = 1e-6
    fx = (target.value(pts + [h, 0]) - target.value(pts - [h, 0])) / (2 * h)
    fy = (target.value(pts + [0, h]) - target.value(pts - [0, h])) / (2 * h)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
    assert np.max(np.abs(g[:, 0] - fx) / scale) < 1e-5
    assert np.max(np.abs(g[:, 1] - fy) / scale) < 1e-5


def test_hexagon_target_vanishes_on_boundary():
    target = hexagon_target(0.1)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 100)
    # boundary pieces of the hexagonal domain
    segs = [
        (np.column_stack([t, 1 - t])),          # x + y = 1
        (np.column_stack([-t, -(1 - t)])),      # x + y = -1
        (np.column_stack([np.full_like(t, 1.0), -t])),   # x = 1, y in [-1, 0]
        (np.column_stack([-t, np.full_like(t, 1.0)])),   # y = 1 side
    ]
    for seg in segs:
        assert np.max(np.abs(target.value(seg))) < 1e-12


def test_analytic_energy_reference_values():
    ref = analytic_energy_reference(0.01)
    assert abs(ref["ball_gradient_sq"] - np.pi * 0.01 * 0.99 ** 2) < 1e-14
    ref = analytic_energy_reference(0.1)
    expected = 0.81 / 0.2 - 1.5 - np.log(0.1) + 0.2 - 0.005
    assert abs(ref["profile_sq_over_r"] - expected) < 1e-12
    assert ref["profile_sq_over_r"] <= ref["profile_sq_over_r_bound"] + 1e-12
    # the low-coefficient region energy shrinks with eps
    lo = analytic_energy_reference(0.05)["low_region_energy_sq"]
    hi = analytic_energy_reference(0.1)["low_region_energy_sq"]
    assert 0.0 < lo < hi


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_hexagon_low_region_energy_matches_quadrature(eps):
    tri, coeff = hexagon_mesh(eps)
    target = hexagon_target(eps)
    plan = make_quadrature_plan(tri, target)
    # elements 1 and 2 cover the upper-left quadrant where the closed form lives
    num = energy_norm_sq(target, coeff, plan, region=[1, 2])
    ref = analytic_energy_reference(eps)["low_region_energy_sq"]
    assert abs(num - ref) < 1e-8 * ref


def test_hexagon_ritz_orthogonality():
    tri, coeff = hexagon_mesh(0.1)
    target = hexagon_target(0.1)
    space = build_space(tri, 1, dirichlet_on_boundary=True)
    plan = make_quadrature_plan(tri, target)
    tables = element_tables(target, plan, space)
    b = np.bincount(space.element_nodes.ravel(),
                    (coeff.values[:, None] * tables.grad_moments).ravel(),
                    minlength=space.n_nodes)
    uu = energy_norm_sq(target, coeff, plan)
    assert np.max(np.abs(b[~space.dirichlet])) < 1e-8 * np.sqrt(uu)


def test_fig1_alpha_pattern():
    tri, coeff = fig1_left_pattern(1.0)
    assert np.allclose(coeff.values, coeff.values[0])
    tri, coeff = fig1_left_pattern(0.25)
    np.testing.assert_allclose(sorted(coeff.values), [1.0, 2.0, 3.0, 4.0])
    fine, cf = fig1_left_pattern(0.25, refines=2)
    assert fine.n_elements == 64
    # refinement inherits the parent's value
    assert set(np.unique(cf.values)) == set(np.unique(coeff.values))
    with pytest.raises(ParameterOutOfRange):
        fig1_left_pattern(0.75)
    with pytest.raises(ParameterOutOfRange):
        fig1_left_pattern(0.0)


def test_checkerboard_mesh_shape():
    tri, coeff = checkerboard_mesh(3)
    assert tri.n_elements == 72
    assert tri.n_vertices == 49
    assert sorted(set(coeff.values)) == [1.0 / 9.0, 1.0]
    assert not check_quasi_monotonicity(tri, coeff).quasi_monotone
    tri1, _ = checkerboard_mesh(1)
    assert tri1.n_elements == 8


@pytest.mark.parametrize("N", [2, 4])
def test_checkerboard_energy_matches_hexagon(N):
    tri, coeff = checkerboard_mesh(N)
    target = checkerboard_target(N)
    plan = make_quadrature_plan(tri, target)
    energy = energy_norm_sq(target, coeff, plan)
    hex_tri, hex_coeff = hexagon_mesh(1.0 / N)
    hex_target = hexagon_target(1.0 / N)
    hex_plan = make_quadrature_plan(hex_tri, hex_target)
    hex_energy = energy_norm_sq(hex_target, hex_coeff, hex_plan)
    assert abs(energy - hex_energy) < 1e-8 * hex_energy


def test_checkerboard_target_zero_on_macro_corners():
    N = 2
    target = checkerboard_target(N)
    corners = np.array([[i / N, j / N] for i in range(N + 1) for j in range(N + 1)])
    assert np.max(np.abs(target.value(corners))) < 1e-12
    # and on the corner triangles outside the rotated macro hexagons
    probe = np.array([[0.01, 0.01], [0.49, 0.49], [0.99, 0.99]])
    assert np.max(np.abs(target.value(probe))) < 1e-12


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        hexagon_target(0.6)
    with pytest.raises(ParameterOutOfRange):
        hexagon_target(1e-5)
    with pytest.raises(ParameterOutOfRange):
        hexagon_mesh(0.0)
    with pytest.raises(ParameterOutOfRange):
        checkerboard_target(1)
    with pytest.raises(ParameterOutOfRange):
        checkerboard_mesh(0)
    with pytest.raises((ParameterOutOfRange, ValueError)):
        fig1_meshes(4, "middle")
    with pytest.raises(ParameterOutOfRange):
        fig1_meshes(-1, "left")
