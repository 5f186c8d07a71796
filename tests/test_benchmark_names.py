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


def test_the_commands_reach_the_loaders_the_tracer_wraps(tmp_path, monkeypatch):
    """The tracer times a loader by replacing it wherever a package module
    holds it. A command that reached a loader some other way, such as a table
    built at import, would read 0 seconds in the traced run and not fail."""
    from graphsentry import cli, graphdata, model

    schema = graphdata.FeatureSchema(opcode_dim=3, permission_dim=2)
    graphs = graphdata.generate_synthetic_dataset(graphdata.SyntheticConfig(
        n_graphs=6, benign_node_range=(3, 4), motif_node_count=2,
        motif_feature_signature="10101", malicious_fraction=0.5,
        background_edge_prob=0.4, rng_seed=0, schema=schema))
    dataset, checkpoint = str(tmp_path / "data.jsonl"), str(tmp_path / "ckpt.json")
    graphdata.save_dataset(dataset, graphs, schema)
    model.save_checkpoint(checkpoint, model.init_params(schema, hidden=4, layers=1),
                          meta={})

    calls = []
    for loader in (graphdata.load_dataset, model.load_checkpoint):
        def counted(*args, _loader=loader, **kwargs):
            calls.append(_loader.__name__)
            return _loader(*args, **kwargs)
        for short in tracing.MODULES:
            mod = importlib.import_module(f"graphsentry.{short}")
            for attr, value in list(vars(mod).items()):
                if value is loader:
                    monkeypatch.setattr(mod, attr, counted)
    for argv in (["eval", checkpoint, dataset, "--out", str(tmp_path / "m.csv")],
                 ["export-embeddings", checkpoint, dataset, str(tmp_path / "e.csv")]):
        calls.clear()
        assert cli.main(argv) == 0
        assert sorted(calls) == ["load_checkpoint", "load_dataset"], argv[0]
