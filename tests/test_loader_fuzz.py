"""Fuzz test of the dataset loader through the command line.

A valid dataset file is mutated token by token (substitutions, deletions)
and by truncation, then scored with `eval` and `export-embeddings`. Every
mutation must end in exit code 0 (the file is still a valid dataset) or 2
(invalid input, with a message), never in an escaped exception.
"""
import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

import graphsentry.cli as cli
import graphsentry.model as M
from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset, save_dataset)

SCHEMA = FeatureSchema(opcode_dim=3, permission_dim=2)

# JSON strings, numbers, literals, punctuation and whitespace runs.
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
                   r'|true|false|null|\s+|.')

# Replacements that are valid JSON in some places and wrong in most.
POOL = ['"0"', '"1"', '"10101"', '"１０１０１"', '"10 01"', '"20101"', '""', '"x"',
        "0", "1", "2", "-1", "3.0", "0.5", "1e999", "-1e999", "NaN", "Infinity",
        "99999999999999999999", "true", "false", "null", "[]", "{}", "[0]",
        "[[0,1]]", '["10101"]', "[[0,0]]", "[[1,0],[1,0]]"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    checkpoint = str(root / "checkpoint.json")
    M.save_checkpoint(checkpoint, M.init_params(SCHEMA, hidden=4, layers=2), meta={})
    cfg = SyntheticConfig(n_graphs=4, benign_node_range=(3, 4), motif_node_count=2,
                          motif_feature_signature="10101", malicious_fraction=0.5,
                          background_edge_prob=0.4, rng_seed=1, schema=SCHEMA)
    dataset = root / "valid.jsonl"
    save_dataset(dataset, generate_synthetic_dataset(cfg), SCHEMA)
    return {"root": str(root), "checkpoint": checkpoint,
            "tokens": TOKEN.findall(dataset.read_text(encoding="utf-8"))}


mutation = st.one_of(
    st.tuples(st.just("substitute"), st.integers(0, 10**6), st.sampled_from(POOL)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.just("")),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.just("")),
)


def mutate(tokens, mutations):
    tokens = list(tokens)
    for kind, at, replacement in mutations:
        if not tokens:
            break
        i = at % len(tokens)
        if kind == "substitute":
            tokens[i] = replacement
        elif kind == "delete":
            del tokens[i]
        else:
            tokens = tokens[:i]
    return "".join(tokens)


@settings(max_examples=300, deadline=None)
@given(st.lists(mutation, min_size=1, max_size=3))
def test_mutated_dataset_exits_0_or_2(fuzz_files, mutations):
    root = fuzz_files["root"]
    path = os.path.join(root, "mutated.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mutate(fuzz_files["tokens"], mutations))
    ckpt = fuzz_files["checkpoint"]
    for argv in (["eval", ckpt, path, "--out", os.path.join(root, "metrics.csv")],
                 ["export-embeddings", ckpt, path, os.path.join(root, "emb.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv[0], code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")
