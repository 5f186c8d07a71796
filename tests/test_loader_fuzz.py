"""Fuzz test of the dataset loader through the command line.

A valid dataset file is mutated token by token (substitutions, deletions)
and by truncation, then scored with `eval` and `export-embeddings` and
attacked in white-box and black-box mode. Every mutation must end in exit
code 0 (the file is still a valid dataset) or 2 (invalid input, with a
message), never in an escaped exception.
"""
import contextlib
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphsentry.cli as cli
import graphsentry.model as M
from graphsentry.graphdata import (FeatureGraph, FeatureSchema, SyntheticConfig,
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
    # Near-equal proxies put every graph close to the decision boundary, so
    # the victim detects some malware and two insertions can flip it: the
    # attack reaches its success path and the report's summary. The file also
    # holds a detected malicious graph without edges, which has no
    # perturbation ratio.
    victim = M.init_params(SCHEMA, hidden=4, layers=2, rng_seed=1)
    victim.proxy_malicious = victim.proxy_benign + 0.1 * np.linalg.norm(
        victim.proxy_benign) * np.random.default_rng(1).standard_normal(4)
    victim_path = str(root / "victim.json")
    M.save_checkpoint(victim_path, victim, meta={})
    attack_cfg = root / "attack.cfg"
    attack_cfg.write_text("max_iterations = 2\nig_steps = 2\ndistill_epochs = 1\n",
                          encoding="utf-8")
    cfg = SyntheticConfig(n_graphs=4, benign_node_range=(3, 4), motif_node_count=2,
                          motif_feature_signature="10101", malicious_fraction=0.5,
                          background_edge_prob=0.4, rng_seed=1, schema=SCHEMA)
    dataset = root / "valid.jsonl"
    graphs = generate_synthetic_dataset(cfg)
    malware = next(g for g in graphs if g.label == 1 and M.predict(g, victim)[0] == 1)
    graphs.append(FeatureGraph(malware.node_count, [], malware.features, 1, "edgeless"))
    assert M.predict(graphs[-1], victim)[0] == 1
    save_dataset(dataset, graphs, SCHEMA)
    return {"root": str(root), "checkpoint": checkpoint, "victim": victim_path,
            "attack_cfg": str(attack_cfg),
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
    attack = ["attack", fuzz_files["victim"], path, fuzz_files["attack_cfg"],
              "--out", os.path.join(root, "attack.csv"), "--mode"]
    for argv in (["eval", ckpt, path, "--out", os.path.join(root, "metrics.csv")],
                 ["export-embeddings", ckpt, path, os.path.join(root, "emb.csv")],
                 attack + ["whitebox"],
                 attack + ["blackbox", "--surrogate", "gnn2_mlp"],
                 attack + ["blackbox", "--surrogate", "mlp_on_degree_features"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2), (argv[0], code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")
