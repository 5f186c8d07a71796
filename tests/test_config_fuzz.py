"""Fuzz tests of the config, split-file and manifest loaders.

Valid files are mutated token by token (substitutions, deletions, insertions)
and by truncation, as `tests/test_loader_fuzz.py` mutates datasets. A config
goes through `parse_config` and the command's own config builder, a split
file through `eval --split-file`, and a manifest through `replay_manifest`
(which loads it with `load_manifest`). Every mutation must end in success or
in ConfigError, which the command line reports as exit 2 with a message,
never in another exception.
"""
import contextlib
import io
import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

import graphsentry.cli as cli
import graphsentry.model as M
from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset, save_dataset)

SCHEMA = FeatureSchema(opcode_dim=3, permission_dim=2)

GEN_TEXT = """# generator
n_graphs = 20
benign_node_min = 4
benign_node_max = 6
motif_node_count = 2
motif_feature_signature = 10101
malicious_fraction = 0.2
background_edge_prob = 0.3
rng_seed = 1
opcode_dim = 3
permission_dim = 2
"""
TRAIN_TEXT = """hidden = 4
layers = 2
gamma = 0.5
learning_rate = 0.01
max_epochs = 2
early_stop_patience = 2
batch_size = 4
variant = full
benign_parts = 4
malicious_parts = 1
train_ratio = 0.6
val_ratio = 0.2
test_ratio = 0.2
split_seed = 3
"""
ATTACK_TEXT = """max_iterations = 4
ig_steps = 3
edges_per_iteration = 1
rng_seed = 0
surrogate_hidden = 8
distill_epochs = 2
distill_learning_rate = 0.01
distill_batch_size = 8
"""

# config tokens: words and numbers, '=', '#', line breaks, other characters
CONFIG_TOKEN = re.compile(r"[\w.+-]+|\n|[ \t]+|.")
CONFIG_POOL = ["=", "==", "#", "\n", " ", "\r", "\t", "", "0", "1", "-1", "2", "0.5",
               "1.5", "-0.0", "1e999", "-1e999", "nan", "inf", "99999999999999999999",
               "1" * 5000, "１", "true", "full", "minus_cr", "nope", "10101", "x",
               "rng_seed", "hidden", "gamma", "variant", "n_graphs", "ig_steps",
               "distill_batch_size", "split_seed", "opcode_dim", "motif_node_count"]

# JSON strings, numbers, literals, punctuation and whitespace runs
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
                        r'|true|false|null|\s+|.')
JSON_POOL = ['""', '"x"', '"."', '"\\u0000"', '"eval"', '"train"', '"gen-data"',
             '"attack"', '"export-embeddings"', '"all"', '"test"',
             '"validation"', '"whitebox"', '"full"', '"g00000"', '"g00019"', '"g0"',
             "0", "1", "-1", "1e999", "NaN", "true", "false", "null", "[]", "{}",
             '["x"]', "[[]]", '{"path": "x", "sha256": "y"}', ",", ":", "[", "]",
             "{", "}", "é", "\udcff"]


def mutation(pool):
    return st.one_of(
        st.tuples(st.just("substitute"), st.integers(0, 10**6), st.sampled_from(pool)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(pool)),
        st.tuples(st.just("delete"), st.integers(0, 10**6), st.just("")),
        st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just("")),
    )


def mutate(tokens, mutations):
    tokens = list(tokens)
    for kind, at, token in mutations:
        if not tokens:
            break
        i = at % len(tokens)
        if kind == "substitute":
            tokens[i] = token
        elif kind == "insert":
            tokens.insert(i, token)
        elif kind == "delete":
            del tokens[i]
        else:
            tokens = tokens[:i]
    return "".join(tokens)


def write(path, text):
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(text)


def exit_code(fn) -> int:
    """0 when `fn()` returns, 2 on ConfigError (as `cli.main` maps it); any
    other exception escapes and fails the test."""
    try:
        fn()
    except cli.ConfigError as exc:
        assert str(exc)
        return 2
    return 0


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    cfg = SyntheticConfig(n_graphs=20, benign_node_range=(3, 4), motif_node_count=2,
                          motif_feature_signature="10101", malicious_fraction=0.2,
                          background_edge_prob=0.4, rng_seed=1, schema=SCHEMA)
    graphs = generate_synthetic_dataset(cfg)
    dataset = str(root / "data.jsonl")
    save_dataset(dataset, graphs, SCHEMA)
    checkpoint = str(root / "checkpoint.json")
    M.save_checkpoint(checkpoint, M.init_params(SCHEMA, hidden=4, layers=2), meta={})
    values = cli.parse_config("train.cfg", cli.TRAIN_FIELDS, TRAIN_TEXT)
    split, _ = cli.train_setup(values, graphs)
    split_file = str(root / "split.json")
    write(split_file, cli.canonical_json({"train": split.train, "validation":
                                          split.validation, "test": split.test}))
    metrics = str(root / "metrics.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", checkpoint, dataset, "--out", metrics, "--split", "test",
                         "--split-file", split_file]) == 0
    with open(metrics + ".manifest.json", encoding="utf-8") as fh:
        manifest = fh.read()
    with open(split_file, encoding="utf-8") as fh:
        split_text = fh.read()
    return {"root": str(root), "graphs": graphs, "dataset": dataset,
            "checkpoint": checkpoint, "split": JSON_TOKEN.findall(split_text),
            "manifest": JSON_TOKEN.findall(manifest)}


CONFIGS = {
    "gen": (cli.GEN_FIELDS, GEN_TEXT, lambda values, graphs: cli.gen_config(values)),
    "train": (cli.TRAIN_FIELDS, TRAIN_TEXT, cli.train_setup),
    "attack": (cli.ATTACK_FIELDS, ATTACK_TEXT, lambda values, graphs: cli.attack_config(values)),
}


def test_unmutated_files_pass(files, tmp_path):
    for fields, text, build in CONFIGS.values():
        assert exit_code(lambda: build(cli.parse_config("c.cfg", fields, text),
                                       files["graphs"])) == 0
    manifest = os.path.join(files["root"], "metrics.csv.manifest.json")
    report = cli.replay_manifest(manifest, str(tmp_path))
    assert report["matched"]


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
def test_manifest_without_config_text_raises_config_error(files, tmp_path, command):
    """load_manifest once accepted a scoring manifest with no config_text key,
    and replay_manifest then raised KeyError."""
    manifest = json.loads("".join(files["manifest"]))
    del manifest["config_text"]
    manifest["command"] = command
    path = str(tmp_path / "no_config_text.manifest.json")
    write(path, json.dumps(manifest))
    with pytest.raises(cli.ConfigError, match="field 'config_text' is missing"):
        cli.replay_manifest(path, str(tmp_path / "replay"))


@pytest.mark.parametrize("command", ["eval", "export-embeddings"])
@pytest.mark.parametrize("text", [0, False, [], {}])
def test_manifest_with_non_null_config_text_raises_config_error(files, tmp_path,
                                                                command, text):
    """load_manifest once accepted any non-string config_text for a command
    that reads no config, and replay_manifest then wrote it to a file and
    raised TypeError."""
    manifest = json.loads("".join(files["manifest"]))
    manifest["config_text"] = text
    manifest["command"] = command
    path = str(tmp_path / "config_text.manifest.json")
    write(path, json.dumps(manifest))
    with pytest.raises(cli.ConfigError, match="field 'config_text' must be null"):
        cli.replay_manifest(path, str(tmp_path / "replay"))


@pytest.mark.parametrize("command", [[], {}])
def test_manifest_with_unhashable_command_raises_config_error(files, tmp_path, command):
    """load_manifest once looked a list or object command up in its table of
    commands and raised TypeError."""
    manifest = json.loads("".join(files["manifest"]))
    manifest["command"] = command
    path = str(tmp_path / "command.manifest.json")
    write(path, json.dumps(manifest))
    with pytest.raises(cli.ConfigError, match="unknown command"):
        cli.replay_manifest(path, str(tmp_path / "replay"))


@pytest.mark.parametrize("kind", sorted(CONFIGS))
@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(mutation(CONFIG_POOL), min_size=1, max_size=3))
def test_mutated_config_exits_0_or_2(files, kind, mutations):
    fields, text, build = CONFIGS[kind]
    mutated = mutate(CONFIG_TOKEN.findall(text), mutations)

    def load():
        build(cli.parse_config("fuzz.cfg", fields, mutated), files["graphs"])

    exit_code(load)


@settings(max_examples=150, deadline=None)
@given(st.lists(mutation(JSON_POOL), min_size=1, max_size=3))
def test_mutated_split_file_exits_0_or_2(files, mutations):
    root = files["root"]
    path = os.path.join(root, "mutated_split.json")
    write(path, mutate(files["split"], mutations))
    argv = ["eval", files["checkpoint"], files["dataset"], "--out",
            os.path.join(root, "fuzz_metrics.csv"), "--split", "test", "--split-file", path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(st.lists(mutation(JSON_POOL), min_size=1, max_size=3))
def test_mutated_manifest_replays_or_raises_config_error(files, mutations):
    root = files["root"]
    path = os.path.join(root, "mutated.manifest.json")
    write(path, mutate(files["manifest"], mutations))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exit_code(lambda: cli.replay_manifest(path, os.path.join(root, "replay")))
