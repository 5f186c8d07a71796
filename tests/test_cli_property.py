"""Property test of the command line over the legal sizes.

Hypothesis draws a detector's layers, width, batch size, gamma and variant,
and an attack's IG steps, edges per iteration and surrogate. The test then
drives `train`, `eval`, `export-embeddings` and both attack modes through
`cli.main` on a set of 2-3-node graphs, with or without single-node graphs
among them. Every command must exit 0, or 2 with a message, and never raise.
Run twice, it must write the same bytes. Every attack result must hold its
original graph: the same nodes and features and every original edge, with
the original graph itself left as it was.
"""
import contextlib
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphsentry.attacks as AT
import graphsentry.cli as cli
import graphsentry.training as T
from graphsentry.graphdata import FeatureGraph, load_dataset, save_dataset

GEN_TEXT = """n_graphs = 40
benign_node_min = 2
benign_node_max = 3
motif_node_count = 2
motif_feature_signature = 1010
malicious_fraction = 0.2
background_edge_prob = 0.5
rng_seed = 5
opcode_dim = 2
permission_dim = 2
"""


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """{False: 2-3-node graphs (4-5 nodes with the motif), True: the same
    with four single-node graphs added, one of them malicious}."""
    root = tmp_path_factory.mktemp("sizes")
    cfg = str(root / "gen.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(GEN_TEXT)
    plain = str(root / "plain.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", cfg, plain]) == 0
    graphs, schema = load_dataset(plain)
    singles = [FeatureGraph(1, [], [[i % 2, 1, 0, 1]], int(i == 3), f"single{i}")
               for i in range(4)]
    mixed = str(root / "mixed.jsonl")
    save_dataset(mixed, graphs + singles, schema)
    return {False: plain, True: mixed}


def run(argv) -> int:
    """cli.main(argv), which must exit 0, or 2 with a message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = err.getvalue()
    assert code in (0, 2), (argv, code, message)
    assert code == 0 or (message.startswith("error: ") and message.strip() != "error:"), \
        (argv, message)
    assert "Traceback" not in message
    return code


def holding_the_original(attack):
    """`attack`, with a check that its result holds the graph it attacked and
    leaves that graph as it was."""
    def checked(*args):
        graph = args[-2]
        edges, features = graph.edges.copy(), graph.features.copy()
        result = attack(*args)
        assert np.array_equal(graph.edges, edges)
        assert np.array_equal(graph.features, features)
        out = result.perturbed
        assert out.node_count == graph.node_count
        assert np.array_equal(out.features, features)
        assert set(map(tuple, edges.tolist())) <= out.edge_set()
        assert len(out.edges) == len(edges) + len(result.edges_added)
        return result
    return checked


def write_cfg(path, **kv) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in kv.items()))
    return path


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=15, deadline=None)
@given(layers=st.integers(1, 4), hidden=st.integers(1, 8),
       batch_size=st.sampled_from([1, 500]), gamma=st.sampled_from([0.01, 0.5, 0.99]),
       variant=st.sampled_from(T.VARIANTS), singles=st.booleans(),
       ig_steps=st.sampled_from([1, 3]), edges_per_iteration=st.sampled_from([1, 1000]),
       surrogate=st.sampled_from(AT.ARCHITECTURES))
def test_legal_sizes_exit_0_or_2_and_rerun_byte_identical(
        datasets, layers, hidden, batch_size, gamma, variant, singles, ig_steps,
        edges_per_iteration, surrogate):
    data = datasets[singles]
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(AT, "whitebox_attack", holding_the_original(AT.whitebox_attack)), \
            mock.patch.object(AT, "blackbox_attack", holding_the_original(AT.blackbox_attack)):
        def path(name):
            return os.path.join(root, name)
        train_cfg = write_cfg(path("train.cfg"), layers=layers, hidden=hidden,
                              batch_size=batch_size, gamma=gamma, variant=variant,
                              max_epochs=2, early_stop_patience=2,
                              benign_parts=4, malicious_parts=1, train_ratio=0.6,
                              val_ratio=0.2, test_ratio=0.2)
        attack_cfg = write_cfg(path("attack.cfg"), max_iterations=3, ig_steps=ig_steps,
                               edges_per_iteration=edges_per_iteration,
                               surrogate_hidden=4, distill_epochs=3)
        for i in (1, 2):  # every size drawn is legal
            assert run(["train", data, train_cfg, path(f"run{i}")]) == 0
        for name in ("checkpoint.json", "report.csv", "split.json"):
            assert read_bytes(path(f"run1/{name}")) == read_bytes(path(f"run2/{name}"))
        ckpt = path("run1/checkpoint.json")
        commands = {
            "eval": lambda out: ["eval", ckpt, data, "--out", out],
            "export": lambda out: ["export-embeddings", ckpt, data, out],
            "whitebox": lambda out: ["attack", ckpt, data, attack_cfg,
                                     "--mode", "whitebox", "--out", out],
            "blackbox": lambda out: ["attack", ckpt, data, attack_cfg, "--mode",
                                     "blackbox", "--surrogate", surrogate, "--out", out],
        }
        for command, argv in commands.items():
            outs = [path(f"{command}{i}.csv") for i in (1, 2)]
            codes = [run(argv(out)) for out in outs]
            assert codes[0] == codes[1], command
            if codes[0] == 0:
                assert read_bytes(outs[0]) == read_bytes(outs[1]), command
