"""Differential test of the dataset loader against tests/loader_reference.py,
which runs json.loads on every line.

`graphdata.load_dataset` reads the edge list of a canonical record line
with one numpy call and parses only the rest of the line as JSON. On every
file both loaders must give the same graphs (ids, node counts, labels,
years, edge bytes and dtype, features) or the same ValueError text. The
files are datasets `save_dataset` wrote for drawn graphs, hand-written
record lines on and off the numpy path, and the mutations of the loader
fuzz corpus.
"""
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loader_reference as L
import graphsentry.graphdata as G
from graphsentry.graphdata import FeatureGraph, FeatureSchema, save_dataset
from test_loader_fuzz import fuzz_files, mutate, mutation  # noqa: F401 (a fixture)

SCHEMA = FeatureSchema(opcode_dim=3, permission_dim=2)
HEADER = '{"format":"graphsentry-dataset","opcode_dim":3,"permission_dim":2,"version":1}'


def load_either(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


def assert_same_load(path):
    want = load_either(L.load_dataset, path)
    got = load_either(G.load_dataset, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (graphs, schema), (ref_graphs, ref_schema) = got, want
    assert schema == ref_schema and len(graphs) == len(ref_graphs)
    for g, r in zip(graphs, ref_graphs):
        assert (g.graph_id, g.node_count, g.label, g.year_tag) == (
            r.graph_id, r.node_count, r.label, r.year_tag)
        assert (type(g.node_count), type(g.label), type(g.year_tag)) == (
            type(r.node_count), type(r.label), type(r.year_tag))
        assert g.edges.dtype == r.edges.dtype and g.edges.shape == r.edges.shape
        assert g.edges.tobytes() == r.edges.tobytes()
        assert not g.edges.flags.writeable
        assert g.features.dtype == r.features.dtype
        assert np.array_equal(g.features, r.features)


# Pieces of ids that JSON must escape, non-ASCII text, and text that looks
# like the start of an edge list.
ID_PIECES = ['"', "\\", '"edges":', '"edges":[[0,1]],"', "é", " ", "\U0001f600",
             "\x00", "]", "[", ",", "{", "}", "g", "7"]


@st.composite
def graphs(draw):
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 120)))
    edges = []
    if n > 1:
        node = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                              unique=True, max_size=12))
    gid = draw(st.one_of(st.text(max_size=6),
                         st.lists(st.sampled_from(ID_PIECES), max_size=5).map("".join)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = rng.integers(0, 2, size=(n, SCHEMA.d)).astype(np.float64)
    year = draw(st.one_of(st.none(), st.integers(1990, 2030)))
    return FeatureGraph(n, edges, feats, draw(st.integers(0, 1)), gid, year)


@settings(max_examples=200, deadline=None)
@given(st.lists(graphs(), min_size=1, max_size=4))
def test_saved_datasets_load_alike_on_the_canonical_path(drawn):
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "data.jsonl")
        save_dataset(path, drawn, SCHEMA)
        with open(path, encoding="utf-8") as fh:
            records = fh.read().splitlines()[1:]
        for line in records:
            assert parsed_by_numpy(line), line
        assert_same_load(path)
        graphs, _ = G.load_dataset(path)
    for g, d in zip(graphs, drawn, strict=True):
        assert g.graph_id == d.graph_id and g.edges.tobytes() == d.edges.tobytes()


REST = '"id":"a","label":0,"n":3,"x":["00000","11111","10101"]}'
# The longest endpoint the numpy path reads: one digit fewer than intp's
# maximum, 18 digits where intp has 64 bits.
LONGEST = "9" * G._ENDPOINT_DIGITS
DEEP = "[" * 100000


# Record lines whose edge list the loader reads with numpy, by the check
# each one reaches after the parse.
CANONICAL = {
    "edges": '{"edges":[[0,1],[2,0]],' + REST,
    "no-edges": '{"edges":[],' + REST,
    "id-with-edges-key-text": '{"edges":[[0,1]],' + REST.replace('"a"', r'"a\"edges\":"'),
    "longest-endpoint": '{"edges":[[' + LONGEST + ',1]],' + REST,
    "duplicate-edge": '{"edges":[[1,0],[1,0]],' + REST,
    "self-loop": '{"edges":[[1,1]],' + REST,
    "out-of-range": '{"edges":[[0,3]],' + REST,
    "row-count": '{"edges":[[0,1]],' + REST.replace(',"10101"', ""),
    "missing-fields": '{"edges":[[0,1]],"id":"a"}',
    "boolean-label": '{"edges":[[0,1]],' + REST.replace("0,", "true,", 1),
    "fraction-n": '{"edges":[[0,1]],' + REST.replace("3,", "3.5,"),
    "null-year": '{"edges":[[0,1]],' + REST[:-1] + ',"year":null}',
}
# Record lines the loader must hand to json.loads whole.
OTHER = {
    "edges-twice-first": '{"edges":[[0,1]],"edges":[[1,2]],' + REST,
    "edges-twice-last": '{"edges":[[0,1]],' + REST[:-1] + ',"edges":[[1,2]]}',
    "edges-twice-bad": '{"edges":[[0,1]],' + REST[:-1] + ',"edges":[[1,2],[1,2]]}',
    "unclosed": '{"edges":[[0,1]],' + REST[:-1],
    "trailing-text": '{"edges":[[0,1]],' + REST + "x",
    "open-string": '{"edges":[[0,1]],"}',
    "deep-id": '{"edges":[[0,1]],"id":' + DEEP + "]" * len(DEEP) + "}",
    "deep-unclosed-id": '{"edges":[[0,1]],"id":' + DEEP,
    "space-after-key": '{"edges": [[0,1]],' + REST,
    "space-in-pair": '{"edges":[[0, 1]],' + REST,
    "leading-zero-source": '{"edges":[[00,1]],' + REST,
    "leading-zero-target": '{"edges":[[0,01]],' + REST,
    "negative": '{"edges":[[-1,0]],' + REST,
    "minus-zero": '{"edges":[[-0,1]],' + REST,
    "float": '{"edges":[[0.0,1]],' + REST,
    "exponent": '{"edges":[[0,1e0]],' + REST,
    "arabic-indic-digit": '{"edges":[[0,١]],' + REST,
    "triple": '{"edges":[[0,1,2]],' + REST,
    "single": '{"edges":[[0]],' + REST,
    "nested": '{"edges":[[[0,1]]],' + REST,
    "trailing-comma": '{"edges":[[0,1],],' + REST,
    "extra-bracket": '{"edges":[[0,1]]],' + REST,
    "no-comma": '{"edges":[[0,1]]' + REST,
    "endpoint-a-digit-longer": '{"edges":[[1' + LONGEST + ',1]],' + REST,
    "past-int64": '{"edges":[[99999999999999999999,1]],' + REST,
    "edges-object": '{"edges":{"0":1},' + REST,
    "edges-not-first": '{"id":"a","edges":[[0,1]],' + REST[len('"id":"a",'):],
    "array": '[{"edges":[[0,1]],' + REST + "]",
}


@pytest.mark.parametrize("line,canonical",
                         [(line, True) for line in CANONICAL.values()]
                         + [(line, False) for line in OTHER.values()],
                         ids=[*CANONICAL, *OTHER])
def test_hand_written_records_load_alike(tmp_path, line, canonical):
    path = tmp_path / "data.jsonl"
    path.write_text(f"{HEADER}\n{line}\n", encoding="utf-8")
    assert_same_load(path)
    assert parsed_by_numpy(line) == canonical


def parsed_by_numpy(line):
    """Whether the loader read `line`'s edge list with numpy."""
    try:
        rec = G._read_record(line)
    except (ValueError, RecursionError):
        return False
    return isinstance(rec, dict) and type(rec.get("edges")) is np.ndarray


@settings(max_examples=600, deadline=None)
@given(st.lists(mutation, min_size=1, max_size=3))
def test_mutated_fuzz_corpus_loads_alike(fuzz_files, mutations):
    path = os.path.join(fuzz_files["root"], "differential.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mutate(fuzz_files["tokens"], mutations))
    assert_same_load(path)
