"""Command-line entry point: exit codes, output formats, determinism."""
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmloc.cli import EXIT_INVALID, EXIT_NOT_QM, EXIT_OK, EXIT_SOLVER, build_parser, main
from qmloc.coeff import attach_coefficient
from qmloc.counterexamples import checkerboard_mesh, fig1_meshes, hexagon_mesh
from qmloc.mesh import load_mesh, save_mesh

import coeff_reference


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


def test_cli_calls_import_neither_scipy_special_nor_scipy_linalg():
    """A fresh interpreter runs `constants` and `hexagon` with scipy.sparse
    as the only scipy subpackage in use."""
    code = ("import sys\n"
            "from qmloc.cli import main\n"
            "assert main(['constants', '--levels', '2']) == 0\n"
            "assert main(['hexagon', '--eps', '0.1', '--format', 'json']) == 0\n"
            "print([m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


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


@pytest.mark.parametrize("argv, message", [
    (["alpha", "--alphas", "1e-6,0.7"],
     "the tiling is quasi-monotone only for alpha = 1 or alpha <= 1/2"),
    (["rd", "--betas", "1,nan"], "beta must be finite and >= 0, got nan"),
])
def test_sweeps_refuse_a_bad_alpha_or_beta_before_building_any_mesh(capsys, monkeypatch,
                                                                    argv, message):
    import qmloc.counterexamples

    def no_mesh(vertices, triangles, parents=None):
        raise AssertionError("a mesh was built before every alpha and beta was checked")

    monkeypatch.setattr(qmloc.counterexamples, "build_triangulation", no_mesh)
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["alpha", "rd"])
def test_fig1_sweeps_refuse_a_tiling_too_large_before_building_it(capsys, monkeypatch, command):
    import qmloc.counterexamples

    def no_mesh(vertices, triangles, parents=None):
        raise AssertionError("a mesh was built before its size was checked")

    monkeypatch.setattr(qmloc.counterexamples, "build_triangulation", no_mesh)
    assert main([command, "--refines", "40"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: refines=40 at degree 1 needs about")


def test_rd_overflowing_beta_is_a_solver_failure(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rd", "--refines", "1", "--betas", "1e308"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("solver failure: CG scalar not finite at iteration 0; "
                                "the system overflows\n")
        assert main(["rd", "--refines", "1", "--betas", "1e200", "--format", "json"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 6
    for rep in reports:
        assert np.isfinite(rep["global_error_sq"]) and rep["global_error_sq"] > 0


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
