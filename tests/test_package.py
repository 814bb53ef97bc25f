"""The package exports exactly what its library modules list in `__all__`."""

import importlib
import inspect

import pytest

import logergodic

MODULES = ["ergodic", "pricing", "rotation", "stochastic", "trading"]


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_and_classes_are_in_all(name):
    mod = importlib.import_module(f"logergodic.{name}")
    public = {key for key, obj in vars(mod).items()
              if not key.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert public - set(mod.__all__) == set()


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_package_names(name):
    mod = importlib.import_module(f"logergodic.{name}")
    for key in mod.__all__:
        assert getattr(logergodic, key) is getattr(mod, key), key
