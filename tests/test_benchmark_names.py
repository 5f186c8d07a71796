"""The names the benchmark's tracer wraps exist where it looks for them.

perfbench/tracing.py wraps package functions by module path, methods through
their class's own `__dict__`, and autodiff ops by name, and counts IG rows
from argument positions. A renamed function, a method moved to a base class,
a deleted op or a moved argument would otherwise show only when a traced
benchmark run fails or miscounts.
"""
import importlib
import inspect
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


def test_argument_positions_the_row_counters_read():
    """`_count_rows` reads a margin_grad_batched call's a_batch as its third
    positional argument (after self and features), and `_count_pairs` reads
    edge_saliency_ig's ig_steps as its third."""
    attacks = importlib.import_module("graphsentry.attacks")
    for cls in (attacks.DetectorVictim, attacks.SurrogateVictim):
        params = list(inspect.signature(cls.margin_grad_batched).parameters)
        assert params[:3] == ["self", "features", "a_batch"], cls.__name__
    assert list(inspect.signature(attacks.edge_saliency_ig).parameters)[2] == "ig_steps"
