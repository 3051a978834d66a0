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


@pytest.mark.parametrize("name", MODULES)
def test_every_module_cache_is_bounded(name):
    module = importlib.import_module(name)
    caches = {
        attr: fn.cache_parameters()["maxsize"]
        for attr, fn in vars(module).items()
        if hasattr(fn, "cache_parameters") and fn.__module__ == name
    }
    assert {attr: size for attr, size in caches.items() if size is None} == {}
    # a module-level dict cache states its bound next to it, as <name>_SIZE
    dict_caches = [a for a, v in vars(module).items() if a.endswith("_CACHE") and isinstance(v, dict)]
    assert [a for a in dict_caches if not isinstance(getattr(module, a + "_SIZE", None), int)] == []
