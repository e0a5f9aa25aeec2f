"""Experiment sweeps, report rendering, and the empirical-constant probes."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmloc.harness as harness
from qmloc.bestapprox import LocalizationReport, _region_errors, element_tables, local_ritz
from qmloc.cli import EXIT_OK, main
from qmloc.counterexamples import checkerboard_mesh, checkerboard_target, fig1_refined
from qmloc.errors import ParameterOutOfRange, RefusesNonQM
from qmloc.fespace import build_space
from qmloc.fields import SingularPoint, TargetField
from qmloc.harness import (_tables, emit_report, estimate_inequality_constants,
                           render_report, run_alpha_robustness,
                           run_hexagon_sweep, run_reaction_diffusion,
                           run_star_sweep)
from qmloc.mesh import build_triangulation, region_rows, vertex_patch
from qmloc.quadrature import make_quadrature_plan

import harness_reference
import report_reference


def test_report_ignores_qmloc_rtol(monkeypatch, capsys):
    # the singular quadrature has no tolerance setting, so QMLOC_RTOL is
    # not read
    monkeypatch.delenv("QMLOC_RTOL", raising=False)
    argv = ["hexagon", "--eps", "0.1", "--format", "json"]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr().out
    monkeypatch.setenv("QMLOC_RTOL", "abc")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == plain
    assert "quadrature_rtol" not in plain


def test_hexagon_sweep_structure_and_determinism():
    reports = run_hexagon_sweep(eps_values=(0.1,))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.metadata["eps"] == 0.1
    # disjoint loci give lower bounds; star patches overlap, so their sum
    # may exceed the global error
    for kind in ("element", "pair"):
        assert rep.locus_sum(kind) <= rep.global_error_sq + 1e-12
        assert rep.ratio(kind) >= 1.0 - 1e-12
    assert rep.locus_sum("star") > 0
    # bit-identical rerun
    again = run_hexagon_sweep(eps_values=(0.1,))
    assert render_report(reports, "json") == render_report(again, "json")
    assert render_report(reports, "csv") == render_report(again, "csv")


def test_hexagon_csv_schema():
    reports = run_hexagon_sweep(eps_values=(0.1,))
    text = render_report(reports, "csv")
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    assert header == ["eps", "global_sq", "sum_element_sq", "sum_pair_sq",
                      "sum_star_sq", "ratio_element", "ratio_pair", "ratio_star"]
    row = lines[1].split(",")
    assert float(row[0]) == 0.1
    assert float(row[1]) > 0


def test_json_report_round_trips():
    reports = run_hexagon_sweep(eps_values=(0.1,))
    data = json.loads(render_report(reports, "json"))
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["global_error_sq"] == reports[0].global_error_sq


@pytest.mark.parametrize("sweep", ["hexagon", "stars", "stars N=8", "alpha", "rd", "no loci"])
def test_render_report_matches_the_payload_writers(sweep):
    reports = {
        "hexagon": lambda: run_hexagon_sweep(eps_values=(0.1, 0.05), degree=2),
        "stars": lambda: run_star_sweep(n_values=(2,)),
        "stars N=8": lambda: run_star_sweep(n_values=(8,)),
        "alpha": lambda: run_alpha_robustness(alpha_values=(1.0, 1e-6), refines=1),
        "rd": lambda: run_reaction_diffusion(alpha_values=(1.0, 1e-4), beta_values=(0.0, 1e4),
                                             refines=1),
        "no loci": lambda: [LocalizationReport(global_error_sq=0.5, metadata={"eps": 0.1}),
                            LocalizationReport(global_error_sq=0.0, loci={"element": []})],
    }[sweep]()
    for fmt in ("json", "csv"):
        assert render_report(reports, fmt) == report_reference.render_report(reports, fmt)


def test_rd_reports_share_their_locus_lists_across_beta():
    reports = run_reaction_diffusion(alpha_values=(1e-4,), refines=1)
    for first in range(0, 9, 3):  # one target, three betas
        for rep in reports[first + 1:first + 3]:
            assert rep.loci["element"] is reports[first].loci["element"]
            assert rep.loci["pair"] is reports[first].loci["pair"]


AWKWARD = (-0.0, 0.0, 5e-324, 1e-5, 0.1, 1e16, 1e22, float("inf"), float("-inf"), float("nan"))
_values = (st.sampled_from(AWKWARD) | st.floats()
           | st.sampled_from(AWKWARD).map(np.float64) | st.integers(-3, 3))
_ids = st.integers(0, 2**40) | st.integers(0, 2**31).map(np.int64)
_loci = st.dictionaries(st.sampled_from(["element", "pair", "star"]),
                        st.lists(st.tuples(_ids, _values), max_size=4), max_size=3)
_maps = st.dictionaries(st.integers(-3, 2**40), _values | st.text(max_size=4), max_size=4)
_metadata = st.dictionaries(st.sampled_from(["alpha", "beta", "target", "note"]),
                            _values | st.text(max_size=4) | st.booleans() | _maps, max_size=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy scalar sums and ratios of inf
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_values, _loci, _metadata), min_size=1, max_size=3), st.booleans())
def test_render_report_matches_the_payload_writers_on_awkward_values(points, share):
    reports = [LocalizationReport(global_error_sq=g, loci=loci, metadata=meta)
               for g, loci, meta in points]
    if share:  # the last report's lists are the first report's objects
        reports[-1].loci = dict(reports[0].loci)
    for fmt in ("json", "csv"):
        assert render_report(reports, fmt) == report_reference.render_report(reports, fmt)


def test_star_sweep_candidates_bound_star_errors():
    reports = run_star_sweep(n_values=(2,))
    rep = reports[0]
    assert rep.metadata["N"] == 2
    kinds = rep.metadata["star_kinds"]
    assert set(kinds.values()) <= {"center", "edge-midpoint", "corner"}
    bounds = rep.metadata["candidate_upper_bounds"]
    star = dict(rep.loci["star"])
    for z, bound in bounds.items():
        assert star[int(z)] <= bound + 1e-10 * max(1.0, bound)
    # each star error alone is a lower bound; the overlapping sum is an
    # upper bound for the global error
    for err in star.values():
        assert err <= rep.global_error_sq + 1e-12
    assert rep.locus_sum("star") >= rep.global_error_sq - 1e-12


@pytest.mark.parametrize("N", [2, 4])
def test_star_candidate_energy_matches_the_kernel(N):
    tri, coeff = checkerboard_mesh(N)
    target = checkerboard_target(N)
    space = build_space(tri, 1, dirichlet_on_boundary=True)
    tables = element_tables(target, make_quadrature_plan(tri, target, exactness=8), space)
    inner = tri.interior_vertices()
    stars = [vertex_patch(tri, z) for z in inner]
    regions = region_rows(tri.vertex_elements, inner)
    err, x = local_ritz(tables, coeff.values, regions)
    # the star's own minimizer, and zero
    own = _region_errors(tables, coeff.values, regions, x)
    empty = _region_errors(tables, coeff.values, regions, np.zeros_like(x))
    for p, z in enumerate(inner):
        r = list(stars[p])
        energy = coeff.values[r] @ tables.grad_sq[r]
        assert abs(own[p] - err[p]) <= 1e-12 * energy
        assert empty[p] == pytest.approx(energy, rel=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("N", range(2, 9))
def test_star_candidates_match_the_per_vertex_reference(monkeypatch, N, degree):
    seen = []

    def tables_of(tri, targets, degree, dirichlet=False):
        seen.append(_tables(tri, targets, degree, dirichlet)[0])
        return seen[-1:]

    monkeypatch.setattr(harness, "_tables", tables_of)
    meta = run_star_sweep(n_values=(N,), degree=degree)[0].metadata
    kinds, candidates = harness_reference.star_metadata(seen[0], checkerboard_mesh(N)[1], N)
    # keys in order, and the (positive) energies bit for bit
    assert list(meta["star_kinds"].items()) == list(kinds.items())
    assert list(meta["candidate_upper_bounds"].items()) == list(candidates.items())


_TABLE_FIELDS = ("stiffness", "mass", "grad_moments", "grad_sq", "value_moments", "value_sq",
                 "grad_fits", "grad_residual", "value_fits", "value_residual")
_FULL_PASS = {}  # (N, degree) -> (mesh, target, full-pass tables)


def _full_pass(N, degree):
    """The checkerboard's element tables by one plan and one table pass over
    every element, the oracle of the tables built once per period."""
    if (N, degree) not in _FULL_PASS:
        tri, _ = checkerboard_mesh(N)
        target = checkerboard_target(N)
        plan = make_quadrature_plan(tri, target, exactness=2 * degree + 6)
        _FULL_PASS[N, degree] = tri, target, element_tables(
            target, plan, build_space(tri, degree, dirichlet_on_boundary=True))
    return _FULL_PASS[N, degree]


def _gap(tables, want, name):
    """The largest difference of a table field, relative to its largest entry."""
    a = getattr(want, name)
    return np.max(np.abs(getattr(tables, name) - a)) / np.max(np.abs(a))


@pytest.mark.parametrize("N, degree", [(N, d) for N in range(2, 9) for d in range(1, 5)]
                         + [(16, 1)])
def test_congruent_cells_have_equal_tables(N, degree):
    """Every element's full-pass tables equal those of its translate in macro
    cell (0, 0) within 1e-13 of each field's largest entry: polar nodes are
    evaluated at their offsets from the singular point, not at s + offset."""
    tri, _, tables = _full_pass(N, degree)
    # squares row by row, two triangles each; the twin keeps the square's
    # parity in x and y and the triangle
    j, i = np.divmod(np.arange(tri.n_elements) // 2, 2 * N)
    twin = 2 * ((j % 2) * 2 * N + i % 2) + np.arange(tri.n_elements) % 2
    for name in _TABLE_FIELDS:
        a = getattr(tables, name)
        assert np.max(np.abs(a - a[twin])) <= 1e-13 * np.max(np.abs(a)), name


@settings(max_examples=12, deadline=None)
@given(N=st.integers(2, 8), degree=st.integers(1, 4))
def test_tables_once_per_period_match_the_full_pass(N, degree):
    tri, target, full = _full_pass(N, degree)
    tables = _tables(tri, [target], degree, dirichlet=True)[0]
    assert tables.space.n_nodes == full.space.n_nodes and tables.space.dirichlet.any()
    for name in _TABLE_FIELDS:
        assert _gap(tables, full, name) <= 1e-12, name


@pytest.mark.parametrize("degree", [1, 3])
def test_tables_once_per_period_on_a_mesh_that_is_not_periodic(monkeypatch, degree):
    """One interior macro corner of the N = 3 checkerboard moved off the
    lattice: its six elements each get their own table, every other element
    its translate's, and all match the full pass."""
    tri, _ = checkerboard_mesh(3)
    corner = int(np.flatnonzero(np.all(np.isclose(tri.vertices, [2 / 3, 1 / 3]), axis=1))[0])
    vertices = tri.vertices.copy()
    vertices[corner] += [0.013, -0.007]
    moved = build_triangulation(vertices, tri.triangles)
    target = checkerboard_target(3)
    sizes = []

    def plan_of(tri, target, exactness):
        sizes.append(tri.n_elements)
        return make_quadrature_plan(tri, target, exactness)

    monkeypatch.setattr(harness, "make_quadrature_plan", plan_of)
    tables = _tables(moved, [target], degree, dirichlet=True)[0]
    assert sizes == [8 + 6]
    full = element_tables(target, make_quadrature_plan(moved, target, 2 * degree + 6),
                          build_space(moved, degree, dirichlet_on_boundary=True))
    for name in _TABLE_FIELDS:
        assert _gap(tables, full, name) <= 1e-12, name


@pytest.mark.parametrize("degree", [1, 3])
def test_tables_of_a_periodic_and_a_smooth_target_in_one_call(monkeypatch, degree):
    """The N = 2 checkerboard target (tables once per period, gathered) and
    a smooth target (one full pass) in one call: one plan each, one shared
    space, and each target's tables bitwise equal to its own one-target
    call."""
    tri, _ = checkerboard_mesh(2)
    targets = [checkerboard_target(2), harness.default_smooth_targets()["sine"]]
    sizes = []

    def plan_of(tri, target, exactness):
        sizes.append(tri.n_elements)
        return make_quadrature_plan(tri, target, exactness)

    monkeypatch.setattr(harness, "make_quadrature_plan", plan_of)
    both = _tables(tri, targets, degree, dirichlet=True)
    assert sizes == [8, tri.n_elements]
    assert both[0].space is both[1].space and both[0].space.dirichlet.any()
    for target, tables in zip(targets, both):
        own = _tables(tri, [target], degree, dirichlet=True)[0]
        for name in _TABLE_FIELDS:
            assert np.array_equal(getattr(tables, name), getattr(own, name)), name


def test_alpha_robustness_on_constant_pattern():
    reports = run_alpha_robustness(alpha_values=(1.0, 1e-2), refines=1)
    ratios = [r.ratio("element") for r in reports]
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert max(ratios) / min(ratios) < 3.0
    for r in reports:
        assert r.metadata["interp_error_sq"] >= r.global_error_sq - 1e-12


def test_alpha_robustness_refuses_non_qm_pattern(monkeypatch):
    from qmloc.counterexamples import hexagon_mesh

    tri, coeff = hexagon_mesh(0.1)
    monkeypatch.setattr(harness, "fig1_refined", lambda refines: (tri, np.arange(6)))
    monkeypatch.setattr(harness, "fig1_left_values", lambda alpha: coeff.values)
    with pytest.raises(RefusesNonQM):
        run_alpha_robustness(alpha_values=(1e-2,), refines=0)


def _radial(p, mu=0.5):
    r2 = np.einsum("qd,qd->q", p, p)
    return r2 ** (mu / 2), mu * (r2 ** (mu / 2 - 1))[:, None] * p


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_fig1_tables_share_one_pass_per_plan_key(monkeypatch, degree):
    """Smooth targets and a singular one (another plan key) in one sweep:
    one plan and one table pass per key, and each target's tables bitwise
    equal to its own one-target pass on its own plan."""
    smooth = harness.default_smooth_targets()
    targets = {"sine": smooth["sine"],
               "radial": TargetField(_radial, (SingularPoint((0.0, 0.0), 0.5),)),
               "cubic": smooth["cubic"]}
    plans = []

    def plan_of(tri, target, exactness):
        plans.append(target)
        return make_quadrature_plan(tri, target, exactness)

    monkeypatch.setattr(harness, "make_quadrature_plan", plan_of)
    tri, coeffs, tables = harness._fig1_tables("fig1-left", (1.0, 1e-2), targets, degree, 2)
    assert plans == [targets["sine"], targets["radial"]] and len(coeffs) == 2
    space = build_space(tri, degree)
    for target, tab in zip(targets.values(), tables):
        one = element_tables(target, make_quadrature_plan(tri, target, 2 * degree + 6), space)
        for name in _TABLE_FIELDS:
            assert np.array_equal(getattr(tab, name), getattr(one, name)), name


@pytest.mark.parametrize("degree, refines", [(1, 2), (2, 1), (3, 1)])
def test_fig1_sweeps_match_the_per_target_loop(degree, refines):
    """`alpha` and `rd` JSON byte-identical to the per-target loops of
    `harness_reference`, one table pass and one operator per target."""
    targets = harness.default_smooth_targets()
    alphas, betas = (1.0, 1e-2, 1e-6), (0.0, 1e-4, 1e4)
    assert (render_report(run_alpha_robustness(alpha_values=alphas, degree=degree,
                                               refines=refines), "json")
            == render_report(harness_reference.alpha_reports(alphas, targets, degree, refines),
                             "json"))
    assert (render_report(run_reaction_diffusion(alpha_values=alphas, beta_values=betas,
                                                 degree=degree, refines=refines), "json")
            == render_report(harness_reference.rd_reports(alphas, betas, targets, degree,
                                                          refines), "json"))


@pytest.mark.parametrize("sweep", [run_alpha_robustness, run_reaction_diffusion])
@pytest.mark.parametrize("refines", [40, 10**9])
def test_fig1_sweeps_refuse_a_tiling_too_large_before_building_it(monkeypatch, sweep, refines):
    import qmloc.counterexamples

    def no_mesh(vertices, triangles):
        raise AssertionError("a mesh was built before its size was checked")

    monkeypatch.setattr(qmloc.counterexamples, "build_triangulation", no_mesh)
    with pytest.raises(ParameterOutOfRange, match=f"refines={refines} at degree 1 needs about"):
        sweep(refines=refines)


class PastTheGuard(Exception):
    pass


@pytest.mark.parametrize("degree, refines", [(3, 6), (1, 5)])  # alpha --ell 3, rd at P1
def test_fig1_memory_estimate_admits_the_documented_sizes(monkeypatch, degree, refines):
    def past_the_guard(refines):
        raise PastTheGuard

    monkeypatch.setattr(harness, "fig1_refined", past_the_guard)
    with pytest.raises(PastTheGuard):
        harness._fig1_tables("fig1-left", (1.0,), {}, degree, refines)


def test_checked_betas():
    assert harness._checked_betas((0, 1e-4, 1)) == [0.0, 1e-4, 1.0]
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=f"beta must be finite and >= 0, got {bad}"):
            harness._checked_betas((1.0, bad))


def test_reaction_diffusion_sweep():
    targets = {"sine": harness.default_smooth_targets()["sine"]}
    reports = run_reaction_diffusion(alpha_values=(1.0,), beta_values=(1e-4, 1.0),
                                     targets=targets)
    assert len(reports) == 2
    tri = fig1_refined(2)[0]
    for rep in reports:
        assert rep.metadata["splitting_ratio"] >= 1.0 - 1e-10
        assert rep.metadata["equivalence_ratio"] > 0
        assert rep.locus_sum("element") > 0
        assert rep.locus_sum("pair") > 0
        assert len(rep.loci["element"]) == tri.n_elements
        assert len(rep.loci["pair"]) == len(tri.interior_edges())


@pytest.mark.parametrize("degree", [1, 2])
def test_one_tree_per_space_and_free_set_in_a_sweep(monkeypatch, degree):
    """`alpha` over 4 alphas asks for the fronts of its pinned free set 4
    times and builds them once; `rd` over 2 alphas asks 4 times for the
    fronts of two free sets, the pinned one and all nodes, and builds each
    once.  The reports are those of a tree built for every call."""
    import qmloc.bestapprox

    build, builds, calls = qmloc.bestapprox.dissection_fronts, [], []

    def counted(space, free):
        builds.append((id(space), free.tobytes()))
        return build(space, free)

    def uncached(space, free):
        calls.append((id(space), free.tobytes()))
        return build(space, free)

    for sweep, trees in ((run_alpha_robustness, 1), (run_reaction_diffusion, 2)):
        with monkeypatch.context() as m:
            m.setattr(qmloc.bestapprox, "dissection_fronts", counted)
            builds.clear()
            shared = render_report(sweep(degree=degree, refines=1), "json")
        with monkeypatch.context() as m:
            m.setattr(qmloc.bestapprox, "_space_fronts", uncached)
            calls.clear()
            assert render_report(sweep(degree=degree, refines=1), "json") == shared
        assert len(builds) == len(set(builds)) == trees
        assert len(calls) == 4 and len(set(calls)) == trees


def test_rd_reports_share_the_pair_list_across_alpha():
    reports = run_reaction_diffusion(alpha_values=(1.0, 1e-4), refines=1)
    assert len(reports) == 18  # two alphas, each three targets by three betas
    for first in range(0, 9, 3):  # one target
        assert reports[first + 9].loci["pair"] is reports[first].loci["pair"]
        assert reports[first + 9].loci["element"] is not reports[first].loci["element"]


def test_splitting_ratio_at_high_contrast():
    # the combined system's diagonal spans ~1e11 here; an error read off as
    # uu - b.x instead of the approximant's energy misses this bound
    reports = run_reaction_diffusion(alpha_values=(1e-4,), refines=3)
    assert len(reports) == 9
    for rep in reports:
        assert rep.metadata["splitting_ratio"] >= 1.0 - 1e-12, rep.metadata


def test_inequality_constants():
    out = estimate_inequality_constants(refine_levels=3)
    for level in out["levels"]:
        np.testing.assert_allclose(level["phi_over_sqrt_area"],
                                   1.0 / np.sqrt(6.0), rtol=1e-10)
        np.testing.assert_allclose(level["psi_times_sqrt_area"], 3.0, rtol=1e-10)
    assert out["phi_over_sqrt_area_spread"] == pytest.approx(1.0)
    assert out["psi_times_sqrt_area_spread"] == pytest.approx(1.0)
    assert out["poincare_spread"] < 10.0
    assert out["trace_spread"] < 10.0


def test_emit_report_paths(tmp_path):
    reports = run_hexagon_sweep(eps_values=(0.1,))
    path = tmp_path / "out.csv"
    text = emit_report(reports, "csv", str(path))
    assert path.read_text() == text
    with pytest.raises(ParameterOutOfRange):
        emit_report([], "csv")
