"""Fuzz test of the checkpoint loader through the command line.

The benchmark's victim checkpoint is parsed, mutated field by field (keys
deleted, values replaced by values of other types, strings and lists cut
short, base64 characters changed), written out and used to score a small
dataset with `eval` and `export-embeddings`. Every mutation must end in exit
code 0 (the file is still a valid checkpoint) or 2 (invalid input, with a
message naming the file), never in an escaped exception. That includes a
changed base64 character that gives a weight a huge but finite exponent: the
file is well formed, but the forward pass overflows, and since the features
are 0/1 only the weights can make it do so.
"""
import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import example, given, settings, strategies as st

import graphsentry.cli as cli
from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset, save_dataset)

VICTIM = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "victim_full_seed0.json")
with open(VICTIM, "r", encoding="utf-8") as _fh:
    PAYLOAD = json.load(_fh)

# Replacements: wrong types, wrong counts, wrong shapes and bad base64.
POOL = ["2", "x", "", "AAAA", "AAAAAAAAAAA=", "####", 5, 0, 1, 3, -1, 1.5,
        10**20, float("nan"), float("inf"), True, False, None, [], {}, [12],
        [12, 32], [32, 32], [32, 2], [-1, 32], [12, 32, 1], ["12", 32], [1.5, 32]]


def paths(node, prefix=()):
    """Every position in the payload, root excluded, in a fixed order."""
    items = (sorted(node.items()) if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += paths(value, prefix + (key,))
    return out


PATHS = paths(PAYLOAD)


mutation = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("replace"), st.integers(0, 10**6), st.sampled_from(POOL)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.integers(0, 10**6)),
    st.tuples(st.just("poke"), st.integers(0, 10**6),
              st.tuples(st.integers(0, 10**6), st.sampled_from("A/+=!"))),
)


def mutate(payload, mutations):
    payload = copy.deepcopy(payload)
    for kind, at, arg in mutations:
        where = paths(payload)
        if kind == "truncate":  # cuts a string or a list short
            where = [p for p in where if isinstance(lookup(payload, p), (str, list))]
        elif kind == "poke":  # changes one character of a string
            where = [p for p in where if isinstance(lookup(payload, p), str)]
        if not where:
            continue
        path = where[at % len(where)]
        parent, key = lookup(payload, path[:-1]), path[-1]
        if kind == "delete":
            del parent[key]
        elif kind == "replace":
            parent[key] = copy.deepcopy(arg)  # never alias a POOL entry
        elif kind == "truncate":
            parent[key] = parent[key][:arg % (len(parent[key]) + 1)]
        elif parent[key]:  # a poke; an empty string has no character to change
            pos, char = arg
            pos %= len(parent[key])
            parent[key] = parent[key][:pos] + char + parent[key][pos + 1:]
    return payload


def lookup(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    schema = FeatureSchema(opcode_dim=8, permission_dim=4)
    cfg = SyntheticConfig(n_graphs=4, benign_node_range=(3, 5), motif_node_count=2,
                          motif_feature_signature="110010101010", malicious_fraction=0.5,
                          background_edge_prob=0.4, rng_seed=2, schema=schema)
    dataset = str(root / "data.jsonl")
    save_dataset(dataset, generate_synthetic_dataset(cfg), schema)
    return {"root": str(root), "dataset": dataset}


@settings(max_examples=300, deadline=None)
@given(st.lists(mutation, min_size=1, max_size=3))
@example([("replace", PATHS.index(("encoder_layers",)), "2")])
@example([("replace", PATHS.index(("tensors", "encoder.0", "shape")), "x")])
@example([("replace", PATHS.index(("tensors", "proxy_benign")), 5)])
@example([("delete", PATHS.index(("tensors",)), None)])
@example([("delete", PATHS.index(("has_head",)), None)])
@example([("replace", PATHS.index(("encoder_layers",)), 3)])
def test_mutated_checkpoint_exits_cleanly(fuzz_files, mutations):
    root, dataset = fuzz_files["root"], fuzz_files["dataset"]
    ckpt = os.path.join(root, "mutated.json")
    with open(ckpt, "w", encoding="utf-8") as fh:
        json.dump(mutate(PAYLOAD, mutations), fh)
    for argv in (["eval", ckpt, dataset, "--out", os.path.join(root, "metrics.csv")],
                 ["export-embeddings", ckpt, dataset, os.path.join(root, "emb.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        msg = err.getvalue()
        assert code in (0, 2), (argv[0], code, msg)
        if code == 2:
            assert msg.startswith(f"error: {ckpt}: "), msg
