"""The error form of `qmloc.bestapprox` against the quadrature of the
difference u - V: every element, pair, star, global and interpolation error
of the `alpha` sweep's problem, at P1-P4 and contrasts 1 and 1e-6.

An error computed from double-precision samples of u carries an absolute
rounding floor of order eps * sqrt(E * err), E the energy of u on the locus:
the oracle's pointwise differences and the form's fits alike.  The bound
below is therefore 1e-8 relative plus 4 eps sqrt(E * err); the second term
is below 1e-8 relative wherever err > 8e-15 E.  On these meshes the largest
deviation is 2.3 eps sqrt(E * err), and 1.4e-8 relative near err = 1e-14 E,
so the plain 1e-8 relative gate does not hold down to err = 1e-18 E.
"""
import numpy as np
import pytest

from qmloc.bestapprox import element_tables, local_element_errors, local_ritz, ritz
from qmloc.counterexamples import fig1_left_pattern
from qmloc.fespace import build_space
from qmloc.fields import TargetField
from qmloc.harness import default_smooth_targets, run_alpha_robustness
from qmloc.interp import interpolation_error_sq, quasi_interpolate
from qmloc.mesh import region_rows
from qmloc.quadrature import make_quadrature_plan

from ritz_reference import QuadratureOracle, expanded_error

EPS = np.finfo(float).eps


def polynomial_target(degree, seed=3):
    """A random polynomial of total degree `degree`: a member of the space."""
    c = np.random.default_rng(seed).standard_normal((degree + 1, degree + 1))
    expo = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]

    def fn(p):
        x, y = p[:, 0], p[:, 1]
        gx = sum(a * c[a, b] * x ** (a - 1) * y**b for a, b in expo if a)
        gy = sum(b * c[a, b] * x**a * y ** (b - 1) for a, b in expo if b)
        return (sum(c[a, b] * x**a * y**b for a, b in expo),
                np.stack([gx + 0.0 * x, gy + 0.0 * x], axis=1))

    return TargetField(fn)


def every_error(target, tables, coeff):
    """(kind, error, elements, local node values of V) of every element,
    pair and star best error, the global best error and the interpolation
    error."""
    space, a = tables.space, coeff.values
    tri, en = space.tri, space.element_nodes
    nt = tri.n_elements
    out = []
    err, x = ritz(tables, a)
    out.append(("global", err, np.arange(nt), x[en]))
    itp = quasi_interpolate(target, tables, coeff)
    out.append(("interp", interpolation_error_sq(itp, tables, coeff).sum(), np.arange(nt),
                itp.coefficients[en]))
    for k, err in enumerate(local_element_errors(tables, coeff)):
        out.append(("element", err, [k], tables.grad_fits[k:k + 1]))
    for kind, (offsets, ids) in (("pair", region_rows(tri.edge_elements, tri.interior_edges())),
                                 ("star", tri.vertex_elements)):
        errs, xs = local_ritz(tables, a, (offsets, ids))
        for p, err in enumerate(errs):
            region = ids[offsets[p]:offsets[p + 1]]
            out.append((kind, err, region, xs[p, :len(region)]))
    return out


def setup(alpha, refines, degree, target):
    tri, coeff = fig1_left_pattern(alpha, refines=refines)
    space = build_space(tri, degree)
    plan = make_quadrature_plan(tri, target, exactness=2 * degree + 6)
    return element_tables(target, plan, space), plan, coeff


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_members_of_the_space_read_zero(degree, alpha):
    target = polynomial_target(degree)
    tables, plan, coeff = setup(alpha, 4, degree, target)
    energy = 0.0  # a ||grad u||^2 by the plan
    for _, ks, pts, wts in plan.blocks():
        gu = target.gradient(pts.reshape(-1, 2)).reshape(*wts.shape, 2)
        energy += float(coeff.values[ks] @ np.einsum("kq,kqd,kqd->k", wts, gu, gu))
    errors = every_error(target, tables, coeff)
    assert {kind for kind, *_ in errors} == {"global", "interp", "element", "pair", "star"}
    worst = max(err for _, err, _, _ in errors)
    assert 0.0 <= min(err for _, err, _, _ in errors) and worst < 1e-20 * energy


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_errors_match_the_quadrature_oracle(degree, alpha):
    target = default_smooth_targets()["sine" if degree < 3 else "exp"]
    tables, plan, coeff = setup(alpha, 3, degree, target)
    oracle = QuadratureOracle(tables.space, target, plan)
    a = coeff.values
    checked = 0
    for kind, err, elems, v in every_error(target, tables, coeff):
        energy = oracle.local_error(a, elems, np.zeros_like(v))
        want = oracle.local_error(a, elems, v)
        if want <= 1e-18 * energy:
            continue
        checked += 1
        assert abs(err - want) <= 1e-8 * want + 4 * EPS * np.sqrt(energy * want), \
            (kind, list(elems), err, want, energy)
    assert checked > tables.space.tri.n_elements


def test_the_expanded_form_rounds_at_the_energy():
    """Both oracles agree on the global error, the expanded form
    uu - 2 b.x + x^T A x only to rounding of the energy of u; the error form
    agrees to 1e-10 relative and does not move when the member 1e4 (x + 2y)^2
    of the space is added."""
    sine = default_smooth_targets()["sine"]
    for scale in (0.0, 1e4):
        def fn(p, scale=scale):
            u, g = sine.evaluate(p)
            s = p[:, 0] + 2.0 * p[:, 1]
            return u + scale * s * s, g + scale * np.stack([2.0 * s, 4.0 * s], axis=1)

        target = TargetField(fn)
        tables, plan, coeff = setup(1e-6, 2, 2, target)
        err, x = ritz(tables, coeff.values)
        space = tables.space
        want = QuadratureOracle(space, target, plan).error(coeff.values, x)
        energy = QuadratureOracle(space, target, plan).error(coeff.values, np.zeros(len(x)))
        expanded = expanded_error(space, coeff.values, target, plan, x)
        assert abs(expanded - want) <= 1e-13 * energy
        assert abs(err - want) <= 1e-10 * want
        if scale == 0.0:
            base = err
    assert abs(err - base) <= 1e-8 * base


def test_exp_at_p4_reads_the_true_error():
    """`alpha --refines 4 --ell 4 --alphas 1e-6`: the `exp` global error and
    element ratio, once read as 1.05e-7 and 8.9 through cancellation."""
    exp = default_smooth_targets()["exp"]
    rep, = run_alpha_robustness(alpha_values=(1e-6,), targets={"exp": exp}, degree=4,
                                refines=4)
    assert rep.global_error_sq == pytest.approx(4.305e-9, rel=1e-3)
    assert rep.ratio("element") == pytest.approx(1.494, abs=5e-3)
