"""The docstring examples of every ``toricnccr`` module run and pass."""

import doctest
import importlib
import pkgutil

import toricnccr


def test_every_module_doctest_passes():
    names = ["toricnccr"] + [f"toricnccr.{m.name}" for m in pkgutil.iter_modules(toricnccr.__path__)]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 15  # the groups, oracle and poset examples run
