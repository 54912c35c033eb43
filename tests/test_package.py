"""The package namespace is the README quick start's import list, and the
quick start runs as written."""

import re
from pathlib import Path

import pursuitlab

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
