"""The package namespace is the README quick start's import list, the
quick start runs as written, and every module exports only names it has."""

import importlib
import re
from pathlib import Path

import pytest

import pursuitlab
from pursuitlab import benchlab, pursuit

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {})
    support, termination = capsys.readouterr().out.splitlines()
    assert support.startswith("[") and termination.startswith("residual_met ")


def test_package_exports_the_quick_start_names():
    names = re.search(r"^from pursuitlab import (.+)$", _quick_start(), re.M).group(1)
    assert pursuitlab.__all__ == [name.strip() for name in names.split(",")]
    assert pursuitlab.__all__ == ["PursuitConfig", "TerminationRule", "gen_problem", "run"]


@pytest.mark.parametrize("module", ["pursuit", "linalg", "benchlab", "ripcert", "cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"pursuitlab.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_search_internals_are_not_exported():
    # The best-first cost and the sweep's mean have one caller each, inside
    # their module.
    assert "path_cost" not in pursuit.__all__ and not hasattr(pursuit, "path_cost")
    assert "anmse" not in benchlab.__all__ and not hasattr(benchlab, "anmse")
