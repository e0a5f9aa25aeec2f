"""The package namespace and its command-line entry point."""
import ast
import importlib
import re
from pathlib import Path

import pytest

import qmloc


def test_all_names_resolve_and_are_sorted_without_duplicates():
    missing = [name for name in qmloc.__all__ if not hasattr(qmloc, name)]
    assert not missing
    assert qmloc.__all__ == sorted(set(qmloc.__all__))


def test_qmloc_script_runs_the_cli_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["qmloc"] == "qmloc.cli:main"
    module, _, name = scripts["qmloc"].partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main(["constants", "--levels", "1"]) == 0
    assert '"levels"' in capsys.readouterr().out


def test_every_source_file_parses_at_the_declared_python_floor():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        floor = tomllib.load(f)["project"]["requires-python"]
    version = tuple(int(n) for n in re.fullmatch(r">=(\d+)\.(\d+)", floor).groups())
    files = [path for folder in ("src/qmloc", "tests", "perfbench")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
