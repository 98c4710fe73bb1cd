"""The usage examples in the jhflow docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import jhflow


def test_docstring_examples_pass():
    names = ["jhflow"] + [f"jhflow.{info.name}" for info in pkgutil.iter_modules(jhflow.__path__)]
    attempted = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name.rpartition(".")[2]] = result.attempted
    # polyalg and engine each carry three examples today.
    assert attempted["polyalg"] >= 3 and attempted["engine"] >= 3, attempted
    assert sum(attempted.values()) >= 6, attempted
