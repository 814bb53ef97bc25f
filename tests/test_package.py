"""The package exports exactly what its library modules list in `__all__`, and
its records of arrays compare by identity."""

import importlib
import inspect

import numpy as np
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


def _records():
    grid = logergodic.TimeGrid(T=1.0, dt=0.5)
    two = np.array([0.25, 0.75])

    return {
        "RecurrenceSet": lambda: logergodic.RecurrenceSet(taus=two),
        "Excursions": lambda: logergodic.Excursions(
            start=two, end=two + 0.1, tM=two + 0.05, M=two, above=np.array([True, False])),
        "SamplePath": lambda: logergodic.SamplePath(
            grid=grid, values=np.ones(3), kind=logergodic.PathKind.PRICE),
        "WienerPath": lambda: logergodic.WienerPath(grid=grid, w=np.zeros(3)),
        "DecomposedPath": lambda: logergodic.DecomposedPath(
            grid=grid, y0=0.0, drift_part=np.zeros(3), mart_part=np.zeros(3)),
        "HeatProblem": lambda: logergodic.HeatProblem(
            eta=1.0, grid_y=np.linspace(0.0, 1.0, 3), initial=np.zeros(3), tau_end=1.0),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_of_arrays_compare_by_identity(name):
    # generated field-wise equality would compare arrays and raise
    make = _records()[name]
    a, b = make(), make()
    assert a != b
    assert a == a
    hash(a)
