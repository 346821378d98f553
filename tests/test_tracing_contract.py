"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps package functions by name and reads some of
their parameters by name. A listed function that disappears, or a measured
parameter that is renamed, silently reads zero in the benchmark's per-layer
metrics; these tests make that visible. The tracer is loaded, never installed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look their module up in sys.modules while being defined.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _resolve(module_name: str, qualname: str):
    obj = importlib.import_module(f"shiftcp.{module_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_function_exists(tracing):
    missing = []
    for _, module_name, qualname in tracing.TRACED:
        try:
            fn = _resolve(module_name, qualname)
        except (AttributeError, ModuleNotFoundError):
            missing.append(f"shiftcp.{module_name}.{qualname}")
            continue
        assert callable(fn), qualname
    assert missing == []


def test_every_measured_parameter_is_in_its_signature(tracing):
    traced = {f"{layer}.{qualname}": (module_name, qualname) for layer, module_name, qualname in tracing.TRACED}
    for name, (params, _) in tracing.MEASURES.items():
        assert name in traced, f"{name} is measured but not traced"
        if params is None:
            continue  # measures the return value
        signature = inspect.signature(_resolve(*traced[name]))
        assert set(params) <= set(signature.parameters), f"{name} lacks {set(params) - set(signature.parameters)}"
