"""Command-line entry point: exit codes, output formats, determinism."""
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmloc.cli import EXIT_INVALID, EXIT_NOT_QM, EXIT_OK, EXIT_SOLVER, build_parser, main
from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import checkerboard_mesh, fig1_meshes, hexagon_mesh
from qmloc.mesh import load_mesh, save_mesh

import coeff_reference
import harness_reference


@pytest.fixture
def hexagon_file(tmp_path):
    tri, coeff = hexagon_mesh(0.1)
    path = tmp_path / "hexagon.json"
    save_mesh(tri, str(path), coefficient=coeff.values)
    return str(path)


@pytest.fixture
def qm_file(tmp_path):
    tri, coeff = fig1_meshes(4, "left")
    path = tmp_path / "fig1.json"
    save_mesh(tri, str(path), coefficient=coeff.values)
    return str(path)


def test_qm_check_exit_codes(hexagon_file, qm_file, capsys):
    assert main(["qm-check", qm_file]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["quasi_monotone"] is True
    assert main(["qm-check", hexagon_file]) == EXIT_NOT_QM
    out = json.loads(capsys.readouterr().out)
    assert out["quasi_monotone"] is False
    assert out["witnesses"]


@pytest.mark.parametrize("mesh", ["hexagon", "checkerboard2", "fig1-left", "fig1-right"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_qm_check_output_matches_the_loop_oracle(tmp_path, capsys, mesh, ell):
    """stdout and exit code of `qm-check --ell` are the loop oracle's report,
    byte for byte."""
    tri, coeff = {"hexagon": lambda: hexagon_mesh(0.1),
                  "checkerboard2": lambda: checkerboard_mesh(2),
                  "fig1-left": lambda: fig1_meshes(4, "left"),
                  "fig1-right": lambda: fig1_meshes(10, "right")}[mesh]()
    path = tmp_path / "mesh.json"
    save_mesh(tri, str(path), coefficient=coeff.values)
    code = main(["qm-check", str(path), "--ell", str(ell)])
    tri, values = load_mesh(path)
    ref = coeff_reference.check_quasi_monotonicity(tri, attach_coefficient(tri, values),
                                                   degree=ell)
    assert capsys.readouterr().out == json.dumps(ref.to_json_dict(), sort_keys=True,
                                                 indent=2) + "\n"
    assert code == (EXIT_OK if ref.quasi_monotone else EXIT_NOT_QM)


@pytest.mark.parametrize("ell", ["0", "-2", "7"])
def test_qm_check_rejects_unsupported_degree(qm_file, capsys, ell):
    assert main(["qm-check", qm_file, "--ell", ell]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: degree {ell} not in 1..4\n"


def test_qm_check_missing_file(tmp_path):
    assert main(["qm-check", str(tmp_path / "nope.json")]) == EXIT_INVALID


def test_qm_check_requires_coefficient(tmp_path):
    tri, _ = hexagon_mesh(0.1)
    path = tmp_path / "plain.json"
    save_mesh(tri, str(path))
    assert main(["qm-check", str(path)]) == EXIT_INVALID


def _write_json(tmp_path, doc):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    return str(path)


MESH = {"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]],
        "coefficient": [1.0]}


@pytest.mark.parametrize("key", ["vertices", "triangles"])
def test_qm_check_missing_entry_is_invalid(tmp_path, capsys, key):
    doc = {k: v for k, v in MESH.items() if k != key}
    assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


def test_qm_check_top_level_array_is_invalid(tmp_path, capsys):
    assert main(["qm-check", _write_json(tmp_path, [MESH])]) == EXIT_INVALID
    assert capsys.readouterr().err.count("\n") == 1


def test_qm_check_non_integer_vertex_id_is_invalid(tmp_path, capsys):
    doc = dict(MESH, vertices=[[0, 0], [1, 0], [0, 1], [1, 1]],
               triangles=[[0, 1, 2], [1, 3, 2.5]], coefficient=[1.0, 1.0])
    assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "integer" in err


@pytest.mark.parametrize("doc", [
    dict(MESH, vertices=[[0, 0], [1, "0"], [0, 1]]),  # a string coordinate
    dict(MESH, coefficient=[[1.0]]),                   # a 2-D coefficient
])
def test_qm_check_malformed_entry_is_invalid(tmp_path, capsys, doc):
    assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_INVALID
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("key,value", [
    ("triangles", [[False, True, 2]]),          # would read as [[0, 1, 2]]
    ("vertices", [[0, 0], [1, True], [0, 1]]),
    ("coefficient", [True]),
    ("coefficient", [[1.0], [True]]),
])
def test_qm_check_json_booleans_are_not_numbers(tmp_path, capsys, key, value):
    assert main(["qm-check", _write_json(tmp_path, dict(MESH, **{key: value}))]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: mesh file entry {key!r} must hold numbers only\n"


@pytest.mark.parametrize("key,value", [
    ("vertices", [[0, 0], [1, 0], [0]]),
    ("triangles", [[0, 1, 2], [1, 2]]),
    ("vertices", [[0, 0], [1, [0]], [0, 1]]),
])
def test_qm_check_ragged_rows_get_a_schema_message(tmp_path, capsys, key, value):
    assert main(["qm-check", _write_json(tmp_path, dict(MESH, **{key: value}))]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: mesh file entry {key!r} has rows of different lengths\n"


@pytest.mark.parametrize("doc", [
    dict(MESH, triangles=[[0, 1, 2], [0, 1, 2]], coefficient=[1.0, 2.0]),  # duplicated
    {"vertices": [[0, 0], [1, 0], [0, 1], [0.2, 0.3]],                    # folded
     "triangles": [[0, 1, 2], [0, 1, 3]], "coefficient": [1.0, 2.0]},
])
def test_qm_check_overlapping_triangles_are_invalid(tmp_path, capsys, doc):
    assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: triangles 0 and 1 overlap on edge (0, 1)\n"


def test_qm_check_overflowing_coordinates_are_invalid(tmp_path, capsys):
    # a valid triangle of area 5e319: its area overflows float64
    doc = {"vertices": [[1e160, 0], [0, 0], [0, 1e160]], "triangles": [[0, 1, 2]],
           "coefficient": [1.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "overflow" in captured.err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)


@st.composite
def _perturbed_meshes(draw):
    """The mesh document of a perturbed n x n grid, n <= 3, with hanging,
    duplicated, folded or sliver triangles, then odd coordinates (NaN, +-inf,
    1e308, 1e-300), float, negative or out-of-range vertex ids, ragged
    rows, and a missing, mis-sized or invalid coefficient."""
    n = draw(st.integers(1, 3))
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    inner = (verts > 0).all(axis=1) & (verts < 1).all(axis=1)
    m = 2 * int(inner.sum())
    shift = draw(st.lists(st.floats(-0.25, 0.25), min_size=m, max_size=m))
    verts[inner] += np.reshape(shift, (-1, 2)) / n
    verts = verts.tolist()
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            tris += [[a, b, b + 1], [a, b + 1, a + 1]]
    index = st.integers(0, 10**6)
    for defect in draw(st.lists(st.sampled_from(["hanging", "duplicate", "fold", "sliver"]),
                                max_size=2)):
        k = draw(index) % len(tris)
        a, b, c = tris[k]
        pa, pb, pc = (np.array(verts[v]) for v in (a, b, c))
        d = pb - pa
        if defect == "hanging":  # split triangle k at the midpoint of (a, b)
            verts.append((0.5 * (pa + pb)).tolist())
            tris[k:k + 1] = [[a, len(verts) - 1, c], [len(verts) - 1, b, c]]
        elif defect == "duplicate":
            tris.append(draw(st.sampled_from([[a, b, c], [c, b, a]])))
        elif defect == "fold":  # c reflected across (a, b)
            verts[c] = (pa + 2.0 * ((pc - pa) @ d) / (d @ d) * d - (pc - pa)).tolist()
        else:  # c within a fraction s of |d| of the line through a and b
            s = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-9, 1e-3]))
            verts[c] = (pa + 0.5 * d + s * np.array([-d[1], d[0]])).tolist()
    coeff = draw(st.lists(st.sampled_from([1.0, 0.5, 1e-6, 1e6]), min_size=len(tris),
                          max_size=len(tris)))
    doc = {"vertices": verts, "triangles": tris, "coefficient": coeff}
    odd = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-300, 0.0]
    for defect in draw(st.lists(st.sampled_from(["coordinate", "id", "ragged", "coefficient",
                                                 "key"]), max_size=3)):
        if defect == "coordinate":  # by slice: a ragged row may be short
            j = draw(st.integers(0, 1))
            verts[draw(index) % len(verts)][j:j + 1] = [draw(st.sampled_from(odd))]
        elif defect == "id":
            row = tris[draw(index) % len(tris)]
            j = draw(st.integers(0, len(row) - 1)) if row else 0
            row[j:j + 1] = [draw(st.sampled_from([1.0, 0.5, -1, -2.0, len(verts), 2**63, 1e300]))]
        elif defect == "ragged":
            rows = draw(st.sampled_from([verts, tris]))
            k = draw(index) % len(rows)
            rows[k] = draw(st.sampled_from([rows[k][:-1], rows[k] + [0]]))
        elif defect == "coefficient":
            doc["coefficient"] = draw(st.sampled_from(
                [coeff[:-1], coeff + [1.0], [math.nan] + coeff[1:], [-1.0] + coeff[1:],
                 [0.0] + coeff[1:], [coeff], "1", None]))
        else:
            del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.one_of(_perturbed_meshes(), _JSON, st.fixed_dictionaries(
    {}, optional={"vertices": _JSON, "triangles": _JSON, "coefficient": _JSON})))
def test_qm_check_fuzzed_mesh_json_never_gives_a_traceback(tmp_path, capsys, doc):
    """Every document is classified (exit 0 or 3, nothing on stderr) or
    refused with exit 1 and one line on stderr; no exception escapes `main`
    and no warning is raised."""
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["qm-check", str(path)])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NOT_QM)
    assert captured.err.count("\n") == (code == EXIT_INVALID)
    assert "Traceback" not in captured.err


def test_qm_check_deeply_nested_json_is_invalid(tmp_path, capsys):
    path = tmp_path / "mesh.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["qm-check", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: mesh file nests too deeply to parse\n"


def test_qm_check_small_triangle_is_valid(tmp_path, capsys):
    # area 5e-17: the area test is relative to the element's own size
    doc = {"vertices": [[1e-8, 0], [0, 0], [0, 1e-8]], "triangles": [[0, 1, 2]],
           "coefficient": [1]}
    assert main(["qm-check", _write_json(tmp_path, doc)]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["quasi_monotone"] is True
    assert captured.err == ""


def test_cli_calls_load_no_scipy_and_import_nothing_after_set_up(qm_file):
    """A fresh interpreter builds the parser and then runs every command: no
    scipy module is loaded, and the calls import no module at all, so no
    import cost lands inside a call (a plain `np.unique` imports numpy.ma,
    and numpy.polynomial is imported only on use)."""
    code = ("import contextlib, io, sys\n"
            "from qmloc.cli import build_parser, main\n"
            "build_parser()\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    for argv in (['qm-check', {qm_file!r}], ['hexagon'], ['stars', '--n', '2'],\n"
            "                 ['alpha'], ['rd'], ['constants', '--levels', '2']):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(sorted(set(sys.modules) - before))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-2:] == ["[]", "[]"]


def test_bad_usage_is_invalid(capsys):
    assert main(["no-such-command"]) == EXIT_INVALID
    assert main([]) == EXIT_INVALID
    assert main(["hexagon", "--format", "yaml"]) == EXIT_INVALID
    capsys.readouterr()


def test_invalid_parameter_is_invalid(capsys):
    assert main(["hexagon", "--eps", "0.9"]) == EXIT_INVALID
    capsys.readouterr()


def test_hexagon_csv_stdout_and_determinism(capsys):
    assert main(["hexagon", "--eps", "0.1"]) == EXIT_OK
    first = capsys.readouterr().out
    header = [ln for ln in first.splitlines() if not ln.startswith("#")][0]
    assert header.startswith("eps,global_sq,")
    assert main(["hexagon", "--eps", "0.1"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_hexagon_output_file(tmp_path, capsys):
    out = tmp_path / "hex.json"
    assert main(["hexagon", "--eps", "0.1", "--format", "json",
                 "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text())
    assert data[0]["metadata"]["eps"] == 0.1


def test_constants_json(capsys):
    assert main(["constants", "--levels", "2"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert np.isclose(record["levels"][0]["phi_over_sqrt_area"],
                      1.0 / np.sqrt(6.0))


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_constants_rejects_levels_below_one(capsys, levels):
    assert main(["constants", "--levels", levels]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "levels must be >= 1" in err


@pytest.mark.parametrize("levels", [201, 10**6])
def test_constants_refuses_levels_above_200_before_building_any_mesh(
        capsys, monkeypatch, levels):
    import qmloc.harness

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before the levels were checked")

    monkeypatch.setattr(qmloc.harness, "build_triangulation", no_mesh)
    assert main(["constants", "--levels", str(levels)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: levels must be <= 200, got {levels}\n"


def test_constants_runs_to_levels_200(capsys):
    # a constant that underflows to 0 far beyond 200 levels would divide a
    # spread by 0
    assert main(["constants", "--levels", "200"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert len(record["levels"]) == 200
    values = [lv[key] for lv in record["levels"] for key in lv] + [
        record[key] for key in record if key.endswith("_spread")]
    assert all(math.isfinite(v) and v > 0 for v in values)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("levels", [1, 6])
def test_constants_match_the_refined_meshes(capsys, levels, ell):
    """One scaled element per level reads what element 0 of each whole
    refinement reads, byte for byte."""
    assert main(["constants", "--levels", str(levels), "--ell", str(ell)]) == EXIT_OK
    expected = harness_reference.inequality_constants(levels, ell)
    assert len(expected["levels"]) == levels
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["stars", "--n", "2", "--output", str(out)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write report to {out}")


@pytest.mark.parametrize("command", ["alpha", "rd"])
def test_sweeps_reject_negative_refines(capsys, command):
    assert main([command, "--refines", "-1"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "refines must be >= 0" in captured.err


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_rd_rejects_non_finite_beta(capsys, beta):
    assert main(["rd", f"--betas=1,{beta}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: beta must be finite and >= 0, got {beta}\n"


def test_stars_refuses_a_bad_n_before_building_any_mesh(capsys, monkeypatch):
    import qmloc.harness

    def no_mesh(N):
        raise AssertionError(f"checkerboard_mesh({N}) built before N was checked")

    # N = 1001 would first build an 8-million-element checkerboard
    monkeypatch.setattr(qmloc.harness, "checkerboard_mesh", no_mesh)
    assert main(["stars", "--n", "2,1001"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "got N=1001" in captured.err


@pytest.mark.parametrize("argv, memory, message", [
    # N = 1000: 8M elements, about 35.5 GiB at P1
    (["stars", "--n", "2,1000"], 7.6 * 2**30,
     "N=1000 at degree 1 needs about 35.5 GiB of 7.6 GiB of memory"),
    (["stars", "--n", "2,128", "--ell", "2"], 2**30,
     "N=128 at degree 2 needs about 1.91 GiB of 1 GiB of memory"),
    # the range of N is checked before its memory
    (["stars", "--n", "1001"], 1, "target defined for eps = 1/N in [0.001, 0.5]; got N=1001"),
])
def test_stars_refuses_what_will_not_fit_before_building_any_target_or_mesh(
        capsys, monkeypatch, argv, memory, message):
    import qmloc.harness

    def no_build(N):
        raise AssertionError(f"N={N} built before every N was checked")

    monkeypatch.setattr(qmloc.harness, "checkerboard_mesh", no_build)
    monkeypatch.setattr(qmloc.harness, "checkerboard_target", no_build)
    monkeypatch.setattr(qmloc.harness, "_physical_memory", lambda: memory)
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["alpha", "--alphas", "1e-6,0.7"],
     "the tiling is quasi-monotone only for alpha = 1 or alpha <= 1/2"),
    (["rd", "--betas", "1,nan"], "beta must be finite and >= 0, got nan"),
    (["hexagon", "--eps", "0.1,0.6"],
     "eps must lie in [0.001, 0.5] for resolvable quadrature, got 0.6"),
    # an unsupported degree is refused before any estimate, mesh or file load
    (["stars", "--ell", "0", "--n", "2"], "degree 0 not in 1..4"),
    (["hexagon", "--ell", "5"], "degree 5 not in 1..4"),
    (["constants", "--ell", "9", "--levels", "3"], "degree 9 not in 1..4"),
    (["constants", "--ell", "9", "--levels", "40"], "degree 9 not in 1..4"),
    (["alpha", "--ell", "7", "--refines", "2"], "degree 7 not in 1..4"),
    (["alpha", "--ell", "7", "--refines", "40"], "degree 7 not in 1..4"),
    (["rd", "--ell", "0"], "degree 0 not in 1..4"),
    (["qm-check", "--ell", "5", "mesh.json"], "degree 5 not in 1..4"),
])
def test_sweeps_refuse_a_bad_alpha_or_beta_before_building_any_mesh(capsys, monkeypatch,
                                                                    argv, message):
    import qmloc.cli
    import qmloc.counterexamples
    import qmloc.harness

    def no_mesh(vertices, triangles):
        raise AssertionError("a mesh was built before every alpha, beta and eps was checked")

    def no_estimate():
        raise AssertionError("memory was estimated before the degree was checked")

    def no_load(path):
        raise AssertionError("a mesh file was loaded before the degree was checked")

    hexagons = []  # the eps of each hexagon_mesh call

    def count_hexagons(eps):
        hexagons.append(eps)
        return hexagon_mesh(eps)

    monkeypatch.setattr(qmloc.counterexamples, "build_triangulation", no_mesh)
    monkeypatch.setattr(qmloc.harness, "build_triangulation", no_mesh)
    monkeypatch.setattr(qmloc.harness, "hexagon_mesh", count_hexagons)
    monkeypatch.setattr(qmloc.harness, "_physical_memory", no_estimate)
    monkeypatch.setattr(qmloc.cli, "load_mesh", no_load)
    assert main(argv) == EXIT_INVALID
    assert hexagons == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["alpha", "rd"])
def test_fig1_sweeps_refuse_a_tiling_too_large_before_building_it(capsys, monkeypatch, command):
    import qmloc.counterexamples

    def no_mesh(vertices, triangles):
        raise AssertionError("a mesh was built before its size was checked")

    monkeypatch.setattr(qmloc.counterexamples, "build_triangulation", no_mesh)
    assert main([command, "--refines", "40"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: refines=40 at degree 1 needs about")


@pytest.mark.parametrize("command", ["alpha", "rd", "hexagon"])
def test_a_level_factor_too_large_is_refused_in_one_line(capsys, monkeypatch, command):
    import qmloc.bestapprox

    monkeypatch.setattr(qmloc.bestapprox, "_physical_memory", lambda: 0)
    assert main([command, "--format", "json"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert re.fullmatch(r"error: a front factor of \d+ unknowns, \d+ fronts up to \d+ wide, "
                        r"needs about \S+ GiB of 0 GiB of memory\n", captured.err)


def test_stars_refuses_a_factor_that_does_not_fit_beside_what_the_run_holds(capsys, monkeypatch):
    """At 64 MiB of memory the N = 6 sweep's estimate (1.4 MB) and its
    factor each fit, but not the factor beside what the run holds once all
    but 4 KiB of it are: exit 1 and one line that names the price of the
    real tree, its fronts (`_front_bytes`) and the row, column and value
    of each entry it keeps."""
    import qmloc.bestapprox
    import qmloc.harness
    from qmloc.bestapprox import _front_bytes, dissection_fronts
    from qmloc.fespace import build_space

    memory = 2**26
    monkeypatch.setattr(qmloc.harness, "_physical_memory", lambda: memory)
    monkeypatch.setattr(qmloc.bestapprox, "_physical_memory", lambda: memory)
    monkeypatch.setattr(qmloc.bestapprox, "_held_memory", lambda: 0)
    assert main(["stars", "--n", "6", "--format", "json"]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(qmloc.bestapprox, "_held_memory", lambda: memory - 4096)
    assert main(["stars", "--n", "6", "--format", "json"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    # the price: the fronts, and the entries between free nodes of one
    # element whose row is eliminated in its column's front or after it
    space = build_space(checkerboard_mesh(6)[0], 1, dirichlet_on_boundary=True)
    free = ~space.dirichlet
    fronts = dissection_fronts(space, free)
    front = np.empty(len(fronts.order), dtype=int)
    front[fronts.order] = np.repeat(np.arange(len(fronts.sizes)), fronts.sizes)
    place = np.cumsum(free) - 1
    kept = {(place[i], place[j]) for nodes in space.element_nodes.tolist()
            for i in nodes for j in nodes
            if free[i] and free[j] and front[place[i]] >= front[place[j]]}
    price = (_front_bytes(fronts.sizes, np.array([len(B) for B in fronts.boundary]),
                          fronts.parent) + 24 * len(kept))
    assert price > 4096
    assert captured.err == (
        f"error: a front factor of 121 unknowns, {len(fronts.sizes)} fronts up to "
        f"{fronts.sizes.max()} wide, needs about {(memory - 4096 + price) / 2**30:.3g} GiB of "
        "0.0625 GiB of memory\n")


def test_stars_prices_its_elements_before_any_mesh_is_built(capsys, monkeypatch):
    """At N = 100 the sweep is priced by its 80,000 elements alone, at
    degree 1 as at degree 2: one byte short of that estimate it is refused
    with exit 1 and one line before the first mesh, and at the estimate it
    passes the check.  The factor prices its own fronts when it is built."""
    import qmloc.harness

    monkeypatch.setattr(qmloc.harness, "checkerboard_mesh",
                        lambda N: pytest.fail("a mesh built before the price"))
    for degree in (1, 2):
        argv = ["stars", "--n", "2,100", "--ell", str(degree), "--format", "json"]
        estimate = 8 * 100**2 * qmloc.harness._STAR_BYTES_PER_ELEMENT[degree]
        monkeypatch.setattr(qmloc.harness, "_physical_memory", lambda: estimate - 1)
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: N=100 at degree {degree} needs about "
                                f"{estimate / 2**30:.3g} GiB of {(estimate - 1) / 2**30:.3g} "
                                "GiB of memory\n")
        monkeypatch.setattr(qmloc.harness, "_physical_memory", lambda: estimate)
        with pytest.raises(pytest.fail.Exception, match="a mesh built before the price"):
            main(argv)


def test_held_memory_is_read_where_the_system_reports_it():
    from qmloc.bestapprox import _held_memory

    held = _held_memory()
    assert held > 0 if os.path.exists("/proc/self/statm") else held == 0


def _check_largest_betas(capsys, argv, count):
    """`rd` at the largest betas, a warning an error: exit 0 and `count`
    reports whose best errors are finite and tend to beta times the L2 best
    error as beta dominates the gradient term."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rd", "--refines", "1", *argv, "--format", "json"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == count
    for rep in reports:
        meta = rep["metadata"]
        assert all(np.isfinite(v) for v in (rep["global_error_sq"], meta["l2_global_sq"],
                                            meta["splitting_ratio"]))
        assert rep["global_error_sq"] > 0
        assert rep["global_error_sq"] == pytest.approx(meta["beta"] * meta["l2_global_sq"],
                                                       rel=1e-12)


def test_rd_at_the_largest_betas_is_finite_at_degree_1(capsys):
    # the front factor solves these systems
    _check_largest_betas(capsys, ["--betas", "1e308,1.7e308"], 12)
    _check_largest_betas(capsys, ["--betas", "1e200"], 6)


def test_rd_at_the_largest_betas_is_finite_at_degree_2(capsys):
    # the direct solve stays finite where conjugate gradients overflowed
    _check_largest_betas(capsys, ["--ell", "2", "--betas", "1e308,1.7e308"], 12)


@pytest.mark.parametrize("ell", ["1", "2"])
def test_a_global_solve_that_overflows_exits_2_in_one_line(capsys, monkeypatch, ell):
    """Operators whose entries are not finite fail in the factor's first
    front: exit 2, one line on stderr and no report."""
    import qmloc.bestapprox
    from qmloc.bestapprox import SparseMatrix

    operators = qmloc.bestapprox._operators
    monkeypatch.setattr(qmloc.bestapprox, "_operators", lambda *args: [
        SparseMatrix._of(m._keys, np.full_like(m._values, np.inf), m.shape)
        for m in operators(*args)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rd", "--refines", "1", "--ell", ell, "--format", "json"]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("solver failure: front 0 of the factor not finite; "
                            "the system overflows\n")


SWEEP_DEFAULTS = {
    "hexagon": {"eps": (0.1, 0.05, 0.025, 0.0125)},
    "stars": {"n": (2, 4, 8)},
    "alpha": {"alphas": (1.0, 1e-2, 1e-4, 1e-6), "pattern": "fig1-left", "refines": 2},
    "rd": {"alphas": (1.0, 1e-4), "betas": (1e-4, 1.0, 1e4), "pattern": "fig1-left",
           "refines": 2},
}
SWEEP_OPTIONS = {
    "hexagon": (["--eps", "0.2,0.3"], {"eps": (0.2, 0.3)}),
    "stars": (["--n", "6"], {"n": (6,)}),
    "alpha": (["--alphas", "1e-3", "--pattern", "p", "--refines", "3"],
              {"alphas": (1e-3,), "pattern": "p", "refines": 3}),
    "rd": (["--alphas", "1e-3", "--betas", "2", "--pattern", "p", "--refines", "3"],
           {"alphas": (1e-3,), "betas": (2.0,), "pattern": "p", "refines": 3}),
}


@pytest.mark.parametrize("command", sorted(SWEEP_DEFAULTS))
def test_sweep_options_parse(command):
    common = {"command": command, "ell": 1, "format": "csv", "output": None}
    assert vars(build_parser().parse_args([command])) == {**common, **SWEEP_DEFAULTS[command]}
    argv, own = SWEEP_OPTIONS[command]
    args = build_parser().parse_args(
        [command, "--ell", "2", "--format", "json", "--output", "out.json"] + argv)
    assert vars(args) == {"command": command, "ell": 2, "format": "json",
                          "output": "out.json", **own}


def _readme_commands():
    """The `qmloc ...` lines of the README's "Command line" block as argv
    lists: comments and optional-argument brackets dropped, the first of
    `a|b` alternatives taken."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].replace("[", "").replace("]", "")
        tokens = [tok.split("|", 1)[0] for tok in line.split()]
        if tokens and tokens[0] == "qmloc":
            commands.append(tokens[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    # every subcommand is documented: the usage line lists them as {a,b,...}
    listed = re.search(r"\{([\w,-]+)\}", build_parser().format_usage()).group(1)
    assert sorted(argv[0] for argv in commands) == sorted(listed.split(","))
    for argv in commands:
        build_parser().parse_args(argv)
