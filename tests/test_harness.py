"""Experiment sweeps, report rendering, and the empirical-constant probes."""
import json

import numpy as np
import pytest

import qmloc.harness as harness
from qmloc.bestapprox import element_tables, local_ritz
from qmloc.cli import EXIT_OK, main
from qmloc.counterexamples import checkerboard_mesh, checkerboard_target
from qmloc.errors import ParameterOutOfRange, RefusesNonQM
from qmloc.fespace import build_space
from qmloc.harness import (emit_report, estimate_inequality_constants,
                           render_report, run_alpha_robustness,
                           run_hexagon_sweep, run_reaction_diffusion,
                           run_star_sweep)
from qmloc.mesh import region_rows, vertex_patch
from qmloc.quadrature import make_quadrature_plan


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
    err, x = local_ritz(tables, coeff.values, region_rows(tri.vertex_elements, inner),
                        fixed=space.dirichlet)
    for p, z in enumerate(inner):
        r = list(stars[p])
        energy = coeff.values[r] @ tables.grad_sq[r]
        # the star's own minimizer, as nodal values
        own = dict(zip(space.element_nodes[r].ravel().tolist(), x[p, :len(r)].ravel().tolist()))
        assert abs(harness._star_candidate_error(tables, coeff, z, own) - err[p]) <= 1e-12 * energy
        empty = harness._star_candidate_error(tables, coeff, z, {})
        assert empty == pytest.approx(energy, rel=1e-14)


def test_alpha_robustness_on_constant_pattern():
    reports = run_alpha_robustness(alpha_values=(1.0, 1e-2), refines=1)
    ratios = [r.ratio("element") for r in reports]
    assert all(r >= 1.0 - 1e-12 for r in ratios)
    assert max(ratios) / min(ratios) < 3.0
    for r in reports:
        assert r.metadata["interp_error_sq"] >= r.global_error_sq - 1e-12


def test_alpha_robustness_refuses_non_qm_pattern(monkeypatch):
    from qmloc.counterexamples import hexagon_mesh

    def bad_mesh(pattern, alpha, refines):
        return hexagon_mesh(0.1)

    monkeypatch.setattr(harness, "_pattern_mesh", bad_mesh)
    with pytest.raises(RefusesNonQM):
        run_alpha_robustness(alpha_values=(1e-2,), refines=0)


def test_reaction_diffusion_sweep():
    targets = {"sine": harness.default_smooth_targets()["sine"]}
    reports = run_reaction_diffusion(alpha_values=(1.0,), beta_values=(1e-4, 1.0),
                                     targets=targets)
    assert len(reports) == 2
    for rep in reports:
        assert rep.metadata["splitting_ratio"] >= 1.0 - 1e-10
        assert rep.metadata["equivalence_ratio"] > 0
        assert rep.locus_sum("element") > 0
        assert rep.locus_sum("pair") > 0


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
