"""Dataset layer tests.

The synthetic generator is checked against an independent motif-scan oracle
(signature rows must form a connected planted component, wired both ways).
"""
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphsentry.graphdata as G
from graphsentry.graphdata import (
    DatasetSplit,
    FeatureGraph,
    FeatureSchema,
    SyntheticConfig,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)

SCHEMA = FeatureSchema(opcode_dim=3, permission_dim=2)


def make_graph(n, edges, label=0, gid="g", d=SCHEMA.d, year=None, seed=0):
    feats = np.random.default_rng(seed).integers(0, 2, size=(n, d)).astype(float)
    return FeatureGraph(node_count=n, edges=edges, features=feats, label=label,
                        graph_id=gid, year_tag=year)


# ------------------------------------------------------------------ oracles

def motif_oracle(graph: FeatureGraph, signature: str, motif_size: int) -> bool:
    """True when signature-feature rows form a connected component of the right
    size, wired to the rest of the graph by at least one edge each way."""
    sig = np.array([1.0 if c == "1" else 0.0 for c in signature])
    hits = [i for i in range(graph.node_count) if np.array_equal(graph.features[i], sig)]
    if len(hits) != motif_size:
        return False
    hit_set = set(hits)
    # undirected connectivity among signature nodes
    adj = {h: set() for h in hits}
    for s, t in graph.edges:
        if s in hit_set and t in hit_set:
            adj[s].add(t)
            adj[t].add(s)
    seen, stack = {hits[0]}, [hits[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != hit_set:
        return False
    has_in = any(s not in hit_set and t in hit_set for s, t in graph.edges)
    has_out = any(s in hit_set and t not in hit_set for s, t in graph.edges)
    return has_in and has_out


# ------------------------------------------------------------------ model type

def test_feature_graph_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        make_graph(4, [(5, 1)])


def test_feature_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError, match="self-loop"):
        make_graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        make_graph(3, [(0, 1), (0, 1)])


def test_feature_graph_rejects_non_binary_features():
    with pytest.raises(ValueError, match="0/1"):
        FeatureGraph(2, [], np.full((2, 4), 0.5), 0, "g")


def test_feature_graph_rejects_bad_label():
    with pytest.raises(ValueError, match="label"):
        make_graph(2, [], label=2)


def test_edges_are_a_read_only_integer_array():
    given_edges = np.array([[0, 1], [2, 0]])
    g = make_graph(3, given_edges)
    assert g.edges.dtype == np.intp and g.edges.shape == (2, 2)
    with pytest.raises(ValueError, match="read-only"):
        g.edges[0, 0] = 2
    given_edges[0, 0] = 2  # the graph holds its own copy
    assert g.edges.tolist() == [[0, 1], [2, 0]]
    assert make_graph(2, []).edges.shape == (0, 2)


@pytest.mark.parametrize("edges,message", [
    ([(0.5, 1.9)], r"graph g: edge \(0.5,1.9\) endpoints must be integers"),
    ([(0, 1), (1, float("nan"))], r"graph g: edge \(1.0,nan\) endpoints must be integers"),
    ([("0", 1)], "graph g: edge endpoints must be integers"),
    ([(0, 1, 2)], r"graph g: edges must be \[source, target\] pairs"),
    ([(0, 1), (1, 2, 0)], r"graph g: edges must be \[source, target\] pairs"),
    ([(0, 1), (2, True)], r"graph g: edge \(2,True\) endpoints must be integers"),
    ([(True, 2.0)], r"graph g: edge \(True,2.0\) endpoints must be integers"),
    ([(0, 1), (2**63, 1)],
     r"graph g: edge \(9223372036854775808,1\) endpoint out of range for 3 nodes"),
    ([(2**64, 1)],
     r"graph g: edge \(18446744073709551616,1\) endpoint out of range for 3 nodes"),
], ids=["fraction", "nan", "string", "triple", "ragged", "boolean", "boolean-float",
        "past-int64", "past-uint64"])
def test_feature_graph_rejects_edges_that_are_not_integer_pairs(edges, message):
    with pytest.raises(ValueError, match=message):
        make_graph(3, edges)


def per_edge_check(n, edges, gid):
    """The per-edge loop FeatureGraph validated with before it held an array:
    the message for the first bad edge, in order, or None."""
    seen = set()
    for s, t in edges:
        if not (0 <= s < n and 0 <= t < n):
            return f"graph {gid}: edge ({s},{t}) endpoint out of range for {n} nodes"
        if s == t:
            return f"graph {gid}: self-loop at node {s}"
        if (s, t) in seen:
            return f"graph {gid}: duplicate edge ({s},{t})"
        seen.add((s, t))
    return None


@st.composite
def edge_lists(draw):
    """A node count and edges that are mostly legal, with out-of-range
    endpoints, self-loops and repeats mixed in; sometimes no edges. Only a
    list may hold endpoints past the int64 range."""
    n = draw(st.integers(0, 7))
    form = draw(st.sampled_from(["list", "int64", "float64"]))
    legal = st.integers(0, max(n - 1, 0))
    far = 2**70 if form == "list" else 10**12
    node = st.one_of(legal, legal, st.integers(-3, n + 2), st.integers(-far, far))
    edges = draw(st.lists(st.tuples(node, node), max_size=14))
    if edges and draw(st.booleans()):  # repeat an earlier edge
        edges.insert(draw(st.integers(1, len(edges))),
                     edges[draw(st.integers(0, len(edges) - 1))])
    return n, edges, form


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_array_validation_agrees_with_the_per_edge_loop(case):
    n, edges, form = case
    want = per_edge_check(n, edges, "p")
    given_edges = edges if form == "list" else np.array(edges, dtype=form).reshape(-1, 2)
    try:
        g = FeatureGraph(n, given_edges, np.zeros((n, 2)), 0, "p")
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert g.edges.tolist() == [list(e) for e in edges]


# ------------------------------------------------------------------ file format

def test_save_load_round_trip(tmp_path):
    graphs = [
        make_graph(3, [(0, 1), (1, 2)], label=0, gid="a", seed=1),
        make_graph(1, [], label=1, gid="b", seed=2, year=2019),
        make_graph(4, [(3, 0)], label=1, gid="c", seed=3),
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(path, graphs, SCHEMA)
    loaded, schema = load_dataset(path)
    assert schema == SCHEMA
    assert [g.graph_id for g in loaded] == ["a", "b", "c"]
    for orig, back in zip(graphs, loaded):
        assert back.node_count == orig.node_count
        assert np.array_equal(back.edges, orig.edges)
        assert back.label == orig.label
        assert back.year_tag == orig.year_tag
        np.testing.assert_array_equal(back.features, orig.features)


@pytest.mark.parametrize("field,value", [
    ("label", np.int64(1)), ("label", np.uint8(1)), ("label", 1.0), ("label", np.float32(1.0)),
    ("node_count", np.int64(2)), ("node_count", 2.0), ("year_tag", np.int32(2019)),
    ("year_tag", np.float64(2019.0)),
], ids=["label-int64", "label-uint8", "label-float", "label-float32", "n-int64",
        "n-float", "year-int32", "year-float64"])
def test_integral_fields_are_stored_as_int_and_round_trip(tmp_path, field, value):
    kwargs = {"node_count": 2, "label": 1, "year_tag": 2019, field: value}
    g = FeatureGraph(edges=[(0, 1)], features=np.eye(2, SCHEMA.d), graph_id="g", **kwargs)
    assert type(getattr(g, field)) is int and getattr(g, field) == value
    path = tmp_path / "data.jsonl"
    save_dataset(path, [g], SCHEMA)
    (back,), _ = load_dataset(path)
    assert (back.node_count, back.label, back.year_tag) == (2, 1, 2019)


@pytest.mark.parametrize("field,value", [
    ("label", True), ("label", np.bool_(False)), ("label", 0.5), ("label", "1"),
    ("node_count", True), ("node_count", 2.5), ("year_tag", 2019.5), ("year_tag", False),
], ids=["label-bool", "label-numpy-bool", "label-fraction", "label-string", "n-bool",
        "n-fraction", "year-fraction", "year-bool"])
def test_feature_graph_rejects_a_non_integral_field_by_name(field, value):
    kwargs = {"node_count": 2, "label": 1, "year_tag": 2019, field: value}
    with pytest.raises(ValueError, match=rf"graph g: field '{field}' must be an integer, "
                                         rf"got {value!r}"):
        FeatureGraph(edges=[], features=np.zeros((2, SCHEMA.d)), graph_id="g", **kwargs)


@pytest.mark.parametrize("field,value", [
    ("label", True), ("node_count", 3), ("year_tag", 2019), ("graph_id", "other"),
    ("edges", np.array([[0, 1]])), ("features", np.zeros((2, SCHEMA.d))),
])
def test_a_built_graph_cannot_be_changed(field, value):
    """A graph is checked once, when it is built, so none of its fields can
    be reassigned: `g.label = True` once made save_dataset write
    "label":true, which load_dataset refuses."""
    g = make_graph(2, [(0, 1)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(g, field, value)


def test_features_are_read_only_and_a_generated_graph_round_trips(tmp_path):
    """A float64 features array is marked read-only where it is, not copied;
    no generated graph's features take a write, and the graphs still
    round-trip through save and load."""
    feats = np.zeros((2, SCHEMA.d))
    assert FeatureGraph(2, [], feats, 0, "g").features is feats
    assert not feats.flags.writeable
    graphs = generate_synthetic_dataset(_small_config())
    for g in graphs:
        with pytest.raises(ValueError, match="read-only"):
            g.features[0, 0] = 2.0
    path = tmp_path / "data.jsonl"
    save_dataset(path, graphs, SCHEMA)
    loaded, _ = load_dataset(path)
    for orig, back in zip(graphs, loaded, strict=True):
        assert (back.graph_id, back.node_count, back.label, back.year_tag) == (
            orig.graph_id, orig.node_count, orig.label, orig.year_tag)
        assert np.array_equal(back.edges, orig.edges)
        assert np.array_equal(back.features, orig.features)


def test_load_file_without_records_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    for content in ("", "\n\n", '{"opcode_dim":4,"permission_dim":2}\n'):
        path.write_text(content)
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: dataset is empty", content


def test_load_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_dataset("/nonexistent/nowhere.jsonl")


def test_load_reports_line_number_of_bad_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = '{"format":"graphsentry-dataset","opcode_dim":3,"permission_dim":2,"version":1}'
    good = '{"edges":[[0,1]],"id":"ok","label":0,"n":2,"x":["00000","11111"]}'
    bad = '{"edges":[[5,1]],"id":"broken","label":0,"n":4,"x":["00000","00000","00000","00000"]}'
    path.write_text("\n".join([header, good, bad]) + "\n")
    with pytest.raises(ValueError, match=r":3: .*broken"):
        load_dataset(path)


def test_load_rejects_wrong_feature_width(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = '{"opcode_dim":3,"permission_dim":2}'
    rec = '{"edges":[],"id":"w","label":0,"n":1,"x":["000"]}'
    path.write_text(header + "\n" + rec + "\n")
    with pytest.raises(ValueError, match="bit string"):
        load_dataset(path)


def test_load_rejects_missing_header_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"only":"junk"}\n')
    with pytest.raises(ValueError, match="header"):
        load_dataset(path)


@pytest.mark.parametrize("dim", ["1e999", "-Infinity", '"x"', "null", "3.5", '"3"', "true"])
def test_load_rejects_unconvertible_header_dims(tmp_path, dim):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"opcode_dim":%s,"permission_dim":2}\n' % dim)
    with pytest.raises(ValueError, match=r":1: bad header dims"):
        load_dataset(path)


RECORD = '{"edges":[],"id":"r","label":0,"n":1,"x":["10101"]}'


@pytest.mark.parametrize("header", [
    '{"opcode_dim":3.0,"permission_dim":2}',
    '{"format":"graphsentry-dataset","opcode_dim":3,"permission_dim":2}',
    '{"opcode_dim":3,"permission_dim":2.0,"version":1}',
], ids=["float-dim-no-format-no-version", "no-version", "no-format"])
def test_load_reads_header_dims_and_optional_format_fields(tmp_path, header):
    path = tmp_path / "data.jsonl"
    path.write_text(f"{header}\n{RECORD}\n")
    (g,), schema = load_dataset(path)
    assert schema == SCHEMA and {type(schema.opcode_dim), type(schema.permission_dim)} == {int}


@pytest.mark.parametrize("field,value,message", [
    ("format", '"other-dataset"', "header format must be 'graphsentry-dataset', "
                                  "got 'other-dataset'"),
    ("format", "null", "header format must be 'graphsentry-dataset', got None"),
    ("version", "2", "header version must be 1, got 2"),
    ("version", '"1"', "header version must be 1, got '1'"),
    ("version", "true", "header version must be 1, got True"),
    ("version", "1.0", "header version must be 1, got 1.0"),
])
def test_load_rejects_another_format_or_version(tmp_path, field, value, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"%s":%s,"opcode_dim":3,"permission_dim":2}\n%s\n'
                    % (field, value, RECORD))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:1: {message}"


def test_save_is_byte_deterministic(tmp_path):
    graphs = generate_synthetic_dataset(_small_config(seed=5))
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(p1, graphs, SCHEMA)
    save_dataset(p2, graphs, SCHEMA)
    assert p1.read_bytes() == p2.read_bytes()


HEADER = '{"format":"graphsentry-dataset","opcode_dim":3,"permission_dim":2,"version":1}'


def write_records(path, *records):
    path.write_text("\n".join([HEADER, *records]) + "\n")
    return path


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text("01", min_size=SCHEMA.d, max_size=SCHEMA.d), max_size=12))
def test_loader_rows_equal_per_row_parse(rows):
    with tempfile.TemporaryDirectory() as base:
        path = os.path.join(base, "rows.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(HEADER + "\n" + json.dumps(
                {"edges": [], "id": "r", "label": 0, "n": len(rows), "x": rows}) + "\n")
        (g,), _ = load_dataset(path)
    want = (np.stack([G._bits_to_row(b) for b in rows]) if rows
            else np.zeros((0, SCHEMA.d)))
    assert g.features.dtype == want.dtype and g.features.shape == want.shape
    assert np.array_equal(g.features, want)


@pytest.mark.parametrize("row", ['"00020"', '"00 00"', '"0001\uff11"', '"0000"',
                                 '"000000"', "10101", "null", '["10101"]'])
def test_loader_rejects_bad_bit_row_naming_its_line(tmp_path, row):
    good = '{"edges":[],"id":"ok","label":0,"n":1,"x":["10101"]}'
    bad = '{"edges":[],"id":"bad","label":0,"n":2,"x":["11111",%s]}' % row
    path = write_records(tmp_path / "bad.jsonl", good, bad)
    with pytest.raises(ValueError, match=r":3: record bad: feature rows must be "
                                         r"5-character bit strings"):
        load_dataset(path)


def test_loader_accepts_float_node_count(tmp_path):
    """An integral float reads as its integer in each integer field."""
    rec = {"edges": [[0, 2]], "id": "f", "label": 1, "n": 3,
           "x": ["10101", "00000", "11111"], "year": 2019}
    floats = {"n": 3.0, "label": 1.0, "year": 2019.0, "edges": [[0.0, 2.0]]}
    for field, value in floats.items():
        path = write_records(tmp_path / f"{field}.jsonl", json.dumps({**rec, field: value}))
        (g,), _ = load_dataset(path)
        assert (g.node_count, g.label, g.year_tag, g.edges.tolist()) == (3, 1, 2019, [[0, 2]])
        assert {type(g.node_count), type(g.label), type(g.year_tag)} == {int}
        np.testing.assert_array_equal(g.features[2], np.ones(5))


def test_save_writes_per_row_bit_strings(tmp_path):
    graphs = generate_synthetic_dataset(_small_config(n=8, frac=0.25, seed=3))
    graphs.append(make_graph(0, [], gid="empty"))
    path = tmp_path / "rows.jsonl"
    save_dataset(path, graphs, SCHEMA)
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    for g, rec in zip(graphs, records, strict=True):
        assert rec["x"] == ["".join("1" if v else "0" for v in row) for row in g.features]


# ------------------------------------------------------------------ synthetic corpus

def _small_config(n=10, frac=0.1, seed=42):
    return SyntheticConfig(
        n_graphs=n,
        benign_node_range=(6, 10),
        motif_node_count=3,
        motif_feature_signature="10101",
        malicious_fraction=frac,
        background_edge_prob=0.15,
        rng_seed=seed,
        schema=SCHEMA,
    )


def test_synthetic_counts_and_determinism():
    cfg = _small_config()
    graphs = generate_synthetic_dataset(cfg)
    assert len(graphs) == 10
    assert sum(g.label for g in graphs) == 1
    again = generate_synthetic_dataset(_small_config())
    for a, b in zip(graphs, again):
        assert a.graph_id == b.graph_id and np.array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.features, b.features)


def test_synthetic_malicious_graphs_pass_motif_oracle():
    cfg = _small_config(n=40, frac=0.25, seed=7)
    for g in generate_synthetic_dataset(cfg):
        hit = motif_oracle(g, cfg.motif_feature_signature, cfg.motif_node_count)
        assert hit == (g.label == 1), g.graph_id


def test_synthetic_rejects_oversized_motif():
    with pytest.raises(ValueError, match="exceeds"):
        SyntheticConfig(10, (2, 5), 3, "10101", 0.1, 0.1, 0, SCHEMA)


def test_synthetic_rejects_bad_signature_width():
    with pytest.raises(ValueError, match="signature"):
        SyntheticConfig(10, (6, 8), 3, "101", 0.1, 0.1, 0, SCHEMA)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_synthetic_serialization_is_deterministic(seed):
    cfg = _small_config(n=6, frac=0.2, seed=seed)
    with tempfile.TemporaryDirectory() as base:
        p1, p2 = os.path.join(base, "a.jsonl"), os.path.join(base, "b.jsonl")
        save_dataset(p1, generate_synthetic_dataset(cfg), SCHEMA)
        save_dataset(p2, generate_synthetic_dataset(cfg), SCHEMA)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def per_row_background(rng, n, d, signature):
    """The earlier `_background_features`, kept as its oracle: every row is
    checked in turn and redrawn while it equals the signature."""
    feats = rng.integers(0, 2, size=(n, d)).astype(np.float64)
    for i in range(n):
        while np.array_equal(feats[i], signature):
            feats[i] = rng.integers(0, 2, size=d).astype(np.float64)
    return feats


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 30), st.text("01", min_size=2, max_size=4))
def test_background_features_draw_like_per_row_resampling(seed, n, sig):
    signature = G._bits_to_row(sig)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = G._background_features(rng_new, n, len(sig), signature)
    want = per_row_background(rng_old, n, len(sig), signature)
    assert np.array_equal(got, want)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_matches_per_row_resampling_on_one_plus_one_bits(monkeypatch, seed):
    cfg = SyntheticConfig(n_graphs=40, benign_node_range=(2, 9), motif_node_count=2,
                          motif_feature_signature="10", malicious_fraction=0.25,
                          background_edge_prob=0.3, rng_seed=seed,
                          schema=FeatureSchema(1, 1))
    got = generate_synthetic_dataset(cfg)
    monkeypatch.setattr(G, "_background_features", per_row_background)
    want = generate_synthetic_dataset(cfg)
    for a, b in zip(got, want, strict=True):
        assert (a.graph_id, a.label, a.node_count, a.edges.tolist()) == \
            (b.graph_id, b.label, b.node_count, b.edges.tolist())
        assert np.array_equal(a.features, b.features)


# ------------------------------------------------------------------ splits

def ratio_dataset(n_benign, n_malicious):
    gs = [make_graph(2, [], label=0, gid=f"b{i}") for i in range(n_benign)]
    gs += [make_graph(2, [], label=1, gid=f"m{i}") for i in range(n_malicious)]
    return gs


def test_split_sizes_match_stated_arithmetic():
    split = split_dataset(ratio_dataset(90, 10), (0.7, 0.2, 0.1), (9, 1), rng_seed=0)
    sizes = (len(split.train), len(split.validation), len(split.test))
    assert sizes == (70, 20, 10)
    for part, (nb, nm) in zip((split.train, split.validation, split.test),
                              ((63, 7), (18, 2), (9, 1))):
        assert sum(1 for gid in part if gid.startswith("b")) == nb
        assert sum(1 for gid in part if gid.startswith("m")) == nm


def test_split_rejects_empty_partition():
    with pytest.raises(ValueError):
        split_dataset(ratio_dataset(90, 10), (1.0, 0.0, 0.0), (9, 1), rng_seed=0)


def test_split_rejects_dataset_far_from_class_ratio():
    with pytest.raises(ValueError, match="fraction"):
        split_dataset(ratio_dataset(50, 50), (0.7, 0.2, 0.1), (9, 1), rng_seed=0)


def test_split_is_deterministic():
    gs = ratio_dataset(90, 10)
    s1 = split_dataset(gs, (0.7, 0.2, 0.1), (9, 1), rng_seed=3)
    s2 = split_dataset(gs, (0.7, 0.2, 0.1), (9, 1), rng_seed=3)
    assert (s1.train, s1.validation, s1.test) == (s2.train, s2.validation, s2.test)
    s3 = split_dataset(gs, (0.7, 0.2, 0.1), (9, 1), rng_seed=4)
    assert (s1.train, s1.validation, s1.test) != (s3.train, s3.validation, s3.test)


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 25), st.integers(0, 10_000))
def test_split_partitions_are_disjoint_and_exhaustive(k, seed):
    gs = ratio_dataset(9 * k, k)
    split = split_dataset(gs, (0.7, 0.2, 0.1), (9, 1), rng_seed=seed)
    all_ids = {g.graph_id for g in gs}
    parts = [set(split.train), set(split.validation), set(split.test)]
    assert parts[0] | parts[1] | parts[2] == all_ids
    assert len(split.train) + len(split.validation) + len(split.test) == len(all_ids)
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
