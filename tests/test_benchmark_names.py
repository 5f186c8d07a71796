"""The names the benchmark's tracer wraps exist where it looks for them.

perfbench/tracing.py wraps package functions by module path, methods through
their class's own `__dict__`, and autodiff ops by name. A renamed function, a
method moved to a base class or a deleted op would otherwise show only when
a traced benchmark run fails.
"""
import importlib
import os
import sys

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import tracing  # noqa: E402


def resolve(path):
    short, attr = path.split(".", 1)
    return importlib.import_module(f"graphsentry.{short}"), attr


def test_every_function_span_resolves():
    missing = [path for path, _ in tracing.FUNCTION_SPANS
               if not callable(getattr(*resolve(path), None))]
    assert missing == []


def test_every_method_span_is_defined_on_its_own_class():
    missing = [f"{path}.{method}" for path, method, _ in tracing.METHOD_SPANS
               if method not in getattr(*resolve(path)).__dict__]
    assert missing == []


def test_every_op_function_is_in_autodiff():
    ad = importlib.import_module("graphsentry.autodiff")
    assert [name for name in tracing.OP_FUNCTIONS if not hasattr(ad, name)] == []
