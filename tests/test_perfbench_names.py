"""The benchmark's traced run wraps ride functions by name; every name it
lists must still resolve, or a traced run fails on getattr."""
import importlib
import importlib.util
import pathlib
import types

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_ride(tracing):
    for mod, names in tracing.TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"ride.{mod}")
        for name in names:
            assert isinstance(getattr(module, name, None), types.FunctionType), f"ride.{mod}.{name}"


def test_every_traced_method_resolves_in_ride(tracing):
    for mod, cls_name, meth in tracing.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"ride.{mod}"), cls_name)
        assert isinstance(cls.__dict__.get(meth), types.FunctionType), f"{cls_name}.{meth}"


def test_the_traced_modules_are_ride_modules(tracing):
    for mod in tracing.RIDE_MODULES:
        importlib.import_module(f"ride.{mod}")
    assert set(tracing.TRACED_FUNCTIONS) <= set(tracing.RIDE_MODULES)
