"""The docstring examples of every ``toricnccr`` module, and the README's
library example, run and pass."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import toricnccr


def test_every_module_doctest_passes():
    names = ["toricnccr"] + [f"toricnccr.{m.name}" for m in pkgutil.iter_modules(toricnccr.__path__)]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 15  # the groups, oracle and poset examples run


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2  # a line per class of the Z + Z/4 system
