import importlib
import inspect
import pkgutil

import pytest

import fvsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(fvsde.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"fvsde.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"fvsde.{name}.__all__ names missing objects: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_are_defined_in_their_module(name):
    module = importlib.import_module(f"fvsde.{name}")
    objects = [getattr(module, n) for n in getattr(module, "__all__", ())]
    foreign = [obj.__qualname__ for obj in objects
               if (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ != module.__name__]
    assert not foreign, f"fvsde.{name}.__all__ re-exports {foreign}"
