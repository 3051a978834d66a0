"""The public surface: every name a module exports exists and star-imports."""

import importlib
import pkgutil

import pytest

import slcc

# __main__ runs the CLI on import, and exports nothing
MODULES = ["slcc"] + [
    f"slcc.{info.name}" for info in pkgutil.iter_modules(slcc.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
