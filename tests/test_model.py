"""Model forward-pass tests.

The propagation matrix is checked against an independent dense oracle that
forms D^{-1/2} A D^{-1/2} + I explicitly, with a Python loop over the edges,
on the symmetrized adjacency matrix and applies it before each weight
multiply.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tape_reference as R
from graphsentry import autodiff as ad
from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import FeatureGraph, FeatureSchema

SCHEMA = FeatureSchema(opcode_dim=2, permission_dim=2)


def make_graph(n, edges, d=4, label=0, seed=0):
    feats = np.random.default_rng(seed).integers(0, 2, size=(n, d)).astype(float)
    return FeatureGraph(n, edges, feats, label, f"t{n}")


def dense_oracle(graph, features, weights, final_linear):
    """Direct dense evaluation of the propagation rule."""
    n = graph.node_count
    A = np.zeros((n, n))
    for s, t in graph.edges:
        A[s, t] = A[t, s] = 1.0
    deg = A.sum(axis=1)
    dinv = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    P = np.diag(dinv) @ A @ np.diag(dinv)
    h = features
    for i, w in enumerate(weights):
        z = (h + P @ h) @ w
        h = z if (final_linear and i == len(weights) - 1) else np.maximum(z, 0.0)
    return h


def run_encode(graph, features, weight_arrays, final_linear=False):
    """`M.encode` of the (n, d) rows `features` on `graph` as a batch of one."""
    p = M.batch_graphs([graph])[0]
    return M.encode(p, features[None], weight_arrays, final_linear)[0][0]


def run_decode(graph, rows, weight_arrays):
    return run_encode(graph, rows, weight_arrays, final_linear=True)


# ------------------------------------------------------------------ init

def test_init_shapes_follow_the_chain():
    p = M.init_params(FeatureSchema(30, 10), hidden=128, layers=2, rng_seed=0)
    assert [w.shape for w in p.encoder_weights] == [(40, 128), (128, 128)]
    assert [w.shape for w in p.decoder_weights] == [(128, 128), (128, 40)]
    assert p.mask_token.shape == (40,)
    assert p.proxy_benign.shape == (128,) and p.proxy_malicious.shape == (128,)


def test_init_is_deterministic_and_seed_sensitive():
    a = M.init_params(SCHEMA, 8, 2, rng_seed=1)
    b = M.init_params(SCHEMA, 8, 2, rng_seed=1)
    c = M.init_params(SCHEMA, 8, 2, rng_seed=2)
    for k in a.named_arrays():
        assert np.array_equal(a.named_arrays()[k], b.named_arrays()[k])
    assert not np.array_equal(a.encoder_weights[0], c.encoder_weights[0])


def test_init_rejects_zero_layers():
    with pytest.raises(ValueError):
        M.init_params(SCHEMA, 8, 0, 0)


def test_init_weight_range_matches_fan_sum():
    p = M.init_params(FeatureSchema(30, 10), 128, 2, rng_seed=0)
    a = np.sqrt(6.0 / (40 + 128))
    w = p.encoder_weights[0]
    assert w.min() >= -a and w.max() <= a
    assert w.max() > 0.8 * a  # actually fills the range


# ------------------------------------------------------------------ masking

def test_sample_mask_counts():
    rng = np.random.default_rng(0)
    assert len(M.sample_mask(10, 0.8, rng).masked) == 8
    assert len(M.sample_mask(2, 0.9, rng).masked) == 1  # clamped to n-1
    assert len(M.sample_mask(3, 0.01, rng).masked) == 1  # clamped to 1


def test_sample_mask_statistics():
    rng = np.random.default_rng(123)
    hits = np.zeros(10)
    for _ in range(10_000):
        for i in M.sample_mask(10, 0.5, rng).masked:
            hits[i] += 1
    assert np.all(np.abs(hits - 5000) <= 150)  # 3 sigma binomial bound


def test_sample_mask_rejects_tiny_graphs_and_bad_gamma():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        M.sample_mask(1, 0.5, rng)
    with pytest.raises(ValueError):
        M.sample_mask(5, 1.0, rng)


def test_apply_mask_replaces_only_planned_rows():
    tape = ad.Tape()
    x = tape.constant(np.arange(12.0).reshape(3, 4))
    tok = tape.constant(np.full(4, 9.0))
    out = R.apply_mask(x, M.MaskPlan((1,)), tok)
    np.testing.assert_array_equal(out.value[1], np.full(4, 9.0))
    np.testing.assert_array_equal(out.value[0], x.value[0])
    np.testing.assert_array_equal(out.value[2], x.value[2])


def test_apply_mask_empty_plan_is_identity():
    tape = ad.Tape()
    x = tape.constant(np.ones((3, 4)))
    out = R.apply_mask(x, M.MaskPlan(()), tape.constant(np.zeros(4)))
    assert out is x


def test_mask_token_gradient_counts_masked_rows():
    tape = ad.Tape()
    x = tape.constant(np.zeros((5, 3)))
    tok = tape.param(np.array([0.1, 0.2, 0.3]))
    out = ad.sum_all(R.apply_mask(x, M.MaskPlan((0, 2, 4)), tok))
    grads = ad.backward(tape, out)
    np.testing.assert_array_equal(grads[tok.tid], np.full(3, 3.0))


def test_masking_locality_masked_row_content_is_irrelevant():
    plan = M.MaskPlan((1,))
    tok = np.full(4, 7.0)
    x1 = np.arange(12.0).reshape(3, 4)
    x2 = x1.copy()
    x2[1] = -99.0
    for x in (x1, x2):
        tape = ad.Tape()
        out = R.apply_mask(tape.constant(x), plan, tape.constant(tok))
        if x is x1:
            first = out.value
    np.testing.assert_array_equal(first, out.value)


def test_remask_zeroes_rows_and_blocks_gradient():
    tape = ad.Tape()
    emb = tape.param(np.ones((3, 2)))
    out = R.remask(emb, M.MaskPlan((0, 2)))
    np.testing.assert_array_equal(out.value, [[0, 0], [1, 1], [0, 0]])
    grads = ad.backward(tape, ad.sum_all(out))
    np.testing.assert_array_equal(grads[emb.tid], [[0, 0], [1, 1], [0, 0]])


# ------------------------------------------------------------------ encode/decode

def test_encode_isolated_node_self_term_relu():
    g = make_graph(1, [], d=2)
    out = run_encode(g, np.array([[1.0, -2.0]]), [np.eye(2)])
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_encode_two_node_unit_normalization():
    g = make_graph(2, [(0, 1)], d=2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = run_encode(g, x, [np.eye(2)])
    np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)


def test_encode_star_matches_dense_oracle():
    edges = [(0, i) for i in range(1, 5)]
    g = make_graph(5, edges, d=3, seed=4)
    w = np.random.default_rng(5).normal(size=(3, 3))
    np.testing.assert_allclose(run_encode(g, g.features, [w]),
                               dense_oracle(g, g.features, [w], False), atol=1e-12)


def test_decode_single_node_final_layer_is_linear():
    g = make_graph(1, [], d=2)
    rows = np.array([[1.0, -1.0]])
    out = run_decode(g, rows, [np.eye(2)])
    np.testing.assert_array_equal(out, [[1.0, -1.0]])  # negative survives


def test_decode_zero_rows_stay_zero():
    g = make_graph(3, [(0, 1), (1, 2)], d=2)
    w = np.random.default_rng(1).normal(size=(2, 2))
    out = run_decode(g, np.zeros((3, 2)), [w, w])
    np.testing.assert_array_equal(out, np.zeros((3, 2)))


@st.composite
def random_case(draw):
    n = draw(st.integers(1, 16))
    pairs = [(s, t) for s in range(n) for t in range(n) if s < t]
    edges = []
    for s, t in pairs:
        pick = draw(st.sampled_from([0, 1, 2, 3]))
        if pick == 1:
            edges.append((s, t))
        elif pick == 2:
            edges.append((t, s))
        elif pick == 3:
            edges += [(s, t), (t, s)]
    return n, edges, draw(st.integers(0, 10_000))


@settings(max_examples=60, deadline=None)
@given(random_case())
def test_sparse_propagation_matches_dense_oracle(case):
    n, edges, seed = case
    rng = np.random.default_rng(seed)
    g = make_graph(n, edges, d=3, seed=seed)
    enc = [rng.normal(size=(3, 5)), rng.normal(size=(5, 5))]
    dec = [rng.normal(size=(5, 5)), rng.normal(size=(5, 3))]
    np.testing.assert_allclose(run_encode(g, g.features, enc),
                               dense_oracle(g, g.features, enc, False), atol=1e-10)
    rows = rng.normal(size=(n, 5))
    np.testing.assert_allclose(run_decode(g, rows, dec),
                               dense_oracle(g, rows, dec, True), atol=1e-10)


def padded_one_by_one(graphs):
    """The (B, m, m) adjacency and (B, m, d) rows of `graphs`, each graph
    written into its padded block in turn."""
    count, m = len(graphs), max(g.node_count for g in graphs)
    a = np.zeros((count, m, m))
    x = np.zeros((count, m, graphs[0].feature_dim))
    for b, g in enumerate(graphs):
        for s, t in g.edges.tolist():
            a[b, s, t] = 1.0
        x[b, :g.node_count] = g.features
    return a, x


@pytest.mark.bits
@settings(max_examples=40, deadline=None)
@given(st.lists(random_case(), min_size=1, max_size=5))
def test_batch_graphs_equals_padding_one_graph_at_a_time(cases):
    graphs = [make_graph(n, edges, d=3, seed=seed) for n, edges, seed in cases]
    stack, features, sizes = M.batch_graphs(graphs)
    a, x = padded_one_by_one(graphs)
    _, deg, _, _, p, _ = M.relaxed_propagation(a)
    assert stack.tobytes() == p.tobytes()
    built = M.edge_propagation(graphs, a.shape[1])
    assert built[0].tobytes() == p.tobytes() and built[1].tobytes() == deg.tobytes()
    assert features.shape == x.shape and np.array_equal(features, x)
    assert sizes.tolist() == [g.node_count for g in graphs]


@settings(max_examples=30, deadline=None)
@given(random_case())
def test_encode_is_permutation_equivariant(case):
    n, edges, seed = case
    g = make_graph(n, edges, d=3, seed=seed)
    w = [np.random.default_rng(seed + 1).normal(size=(3, 3))]
    perm = np.random.default_rng(seed + 2).permutation(n)
    feats2 = np.zeros_like(g.features)
    feats2[perm] = g.features
    g2 = FeatureGraph(n, [(int(perm[s]), int(perm[t])) for s, t in edges],
                      feats2, g.label, "perm")
    h1 = run_encode(g, g.features, w)
    h2 = run_encode(g2, feats2, w)
    np.testing.assert_allclose(h2[perm], h1, atol=1e-10)


# ------------------------------------------------------------------ readout/predict

@pytest.mark.bits
@settings(max_examples=40, deadline=None)
@given(st.lists(random_case(), min_size=1, max_size=5), st.integers(1, 9),
       st.integers(1, 3))
def test_padded_readout_is_each_graphs_own_mean(cases, hidden, layers):
    """`readout` of a padded batch's encoder rows gives each graph the bits
    of its own rows' sum / n, and its backward gives those rows dg / n. A
    graph alone, unmasked, gets the bits of `graph_embeddings`. No equality
    with inference is asserted at B > 1: the padded layer products may
    round otherwise.

    At width 1 np.sum adds a graph's rows pairwise, in groups that its
    padding rows shift, so a padded graph's row may differ from its own
    rows' sum in the last bits; there it is compared up to rounding."""
    graphs = [make_graph(n, edges, d=3, seed=seed) for n, edges, seed in cases]
    rng = np.random.default_rng(cases[0][2])
    widths = [3] + [hidden] * layers
    weights = [rng.normal(size=shape) for shape in zip(widths[:-1], widths[1:])]
    p, x, sizes = M.batch_graphs(graphs)
    h = M.encode(p, x, weights)[0]
    g, back = M.readout(h, sizes)
    dg = rng.normal(size=g.shape)
    dh = back(dg)
    assert g.shape == dg.shape == (len(graphs), hidden) and dh.shape == h.shape
    for b, graph in enumerate(graphs):
        n = graph.node_count
        own = h[b, :n].sum(axis=0) / n
        assert (np.array_equal(g[b], own) if hidden > 1
                else np.allclose(g[b], own, rtol=1e-13, atol=0)), b
        assert np.array_equal(dh[b, :n], np.tile(dg[b] / n, (n, 1))), b
        p1, x1, n1 = M.batch_graphs([graph])
        alone = M.readout(M.encode(p1, x1, weights)[0], n1)[0]
        assert alone.tobytes() == M.graph_embeddings([graph], weights).tobytes(), b


def test_predict_tie_goes_malicious():
    p = M.init_params(SCHEMA, 8, 1, rng_seed=0)
    p.proxy_malicious = p.proxy_benign.copy()  # forces equal scores
    g = make_graph(3, [(0, 1)], seed=2)
    label, s0, s1 = M.predict(g, p)
    assert s0 == s1 and label == 1


def test_predict_prefers_closer_proxy():
    p = M.init_params(SCHEMA, 8, 1, rng_seed=0)
    g = make_graph(3, [(0, 1)], seed=2)
    emb = M.graph_embedding(g, p.encoder_weights)
    p.proxy_benign = emb.copy()
    p.proxy_malicious = -emb.copy()
    assert M.predict(g, p)[0] == 0
    p.proxy_benign, p.proxy_malicious = p.proxy_malicious, p.proxy_benign
    assert M.predict(g, p)[0] == 1


def test_predict_invariant_to_positive_proxy_scaling():
    p = M.init_params(SCHEMA, 8, 2, rng_seed=3)
    g = make_graph(5, [(0, 1), (2, 3), (3, 4)], seed=6)
    label, s0, s1 = M.predict(g, p)
    p.proxy_benign *= 37.0
    p.proxy_malicious *= 0.004
    label2, s0b, s1b = M.predict(g, p)
    assert label2 == label
    assert s0b == pytest.approx(s0, abs=1e-12) and s1b == pytest.approx(s1, abs=1e-12)


def test_predict_equals_forward_after_empty_mask_plan():
    p = M.init_params(SCHEMA, 8, 2, rng_seed=4)
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], seed=7)
    tape = ad.Tape()
    x = R.apply_mask(tape.constant(g.features), M.MaskPlan(()),
                     tape.constant(p.mask_token))
    rows = run_encode(g, x.value, p.encoder_weights)
    hs, _ = M.gnn_layers(M.propagation_terms(g), g.features, p.encoder_weights)
    np.testing.assert_array_equal(rows, hs[-1])


@pytest.mark.parametrize("layers", [11, 12])
def test_deep_models_run_layers_in_index_order(layers):
    """Layer 10 runs after layer 9, not after layer 1 as the names' string
    order would put it, and each layer's gradient is named by its index."""
    p = M.init_params(SCHEMA, 8, layers, rng_seed=layers)
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], seed=1)
    want = dense_oracle(g, g.features, p.encoder_weights, final_linear=False)
    np.testing.assert_allclose(M.graph_embedding(g, p.encoder_weights),
                               want.mean(axis=0), atol=1e-12)
    h = run_encode(g, g.features, p.encoder_weights)
    z = run_decode(g, h, p.decoder_weights)
    np.testing.assert_allclose(
        z, dense_oracle(g, want, p.decoder_weights, final_linear=True), atol=1e-12)
    members, cfg = [(g, M.MaskPlan((1, 3)))], T.TrainConfig(hidden=8, layers=layers)
    grads = T.detector_batch_grads(members, p, cfg, {0: 1.0})[2]
    want = R.detector_loss_tape(members, p, cfg, {0: 1.0})[2]
    for name in p.named_arrays():
        assert np.array_equal(grads[name], want[name]), name


def test_predict_rejects_empty_graph():
    g = FeatureGraph(0, [], np.zeros((0, 4)), 0, "empty")
    p = M.init_params(SCHEMA, 8, 1, rng_seed=0)
    with pytest.raises(ValueError, match="empty"):
        M.predict(g, p)


def test_predict_with_head_uses_logits():
    p = M.init_params(SCHEMA, 8, 1, rng_seed=0)
    M.init_head(p, rng_seed=1)
    g = make_graph(3, [(0, 1)], seed=2)
    label, s0, s1 = M.predict(g, p)
    emb = M.graph_embedding(g, p.encoder_weights)
    logits = np.maximum(emb @ p.head_weights[0], 0.0) @ p.head_weights[1]
    assert (s0, s1) == pytest.approx(tuple(logits), abs=1e-12)
    assert label == (1 if s1 >= s0 else 0)


# ------------------------------------------------------------------ score heads

def score_head(family, h=6, seed=0):
    rng = np.random.default_rng(seed)
    if family == "proxy":
        return M.proxy_head(rng.normal(size=h), rng.normal(size=h))
    return M.logits_head(rng.normal(size=(h, h)), rng.normal(size=(h, 2)))


@pytest.mark.parametrize("family", ["proxy", "logits"])
def test_head_gradient_matches_central_differences(family):
    head = score_head(family)
    g = np.random.default_rng(1).normal(size=(5, 6))
    _, _, dg = head(g, grad=True)
    step = 1e-6
    fd = np.zeros_like(g)
    for i in range(g.shape[1]):  # rows score apart, so a column moves at once
        up, down = g.copy(), g.copy()
        up[:, i] += step
        down[:, i] -= step
        (u0, u1), (d0, d1) = head(up), head(down)
        fd[:, i] = ((u0 - u1) - (d0 - d1)) / (2 * step)
    np.testing.assert_allclose(dg, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("family", ["proxy", "logits"])
def test_head_scores_are_the_same_bits_with_and_without_grad(family):
    head = score_head(family)
    g = np.random.default_rng(2).normal(size=(7, 6))
    plain, with_grad = head(g), head(g, grad=True)
    assert len(plain) == 2 and len(with_grad) == 3
    for a, b in zip(plain, with_grad):
        assert a.shape == (7,) and a.tobytes() == b.tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("family", ["proxy", "logits"])
def test_head_rows_do_not_depend_on_their_batch(family):
    """A row's scores and gradient are the same bits whatever rows share its
    call: alone, at any offset and in batches of any size, as BLAS picks its
    kernel for a plain (B, h) product by B."""
    for h in (3, 32):
        head = score_head(family, h=h, seed=h)
        g = np.random.default_rng(3).normal(size=(130, h))
        whole = head(g, grad=True)
        for start, stop in ((0, 1), (5, 6), (0, 7), (3, 40), (1, 65), (60, 130)):
            part = head(g[start:stop], grad=True)
            for a, b in zip(whole, part):
                assert a[start:stop].tobytes() == b.tobytes(), (h, start, stop)


# ------------------------------------------------------------------ checkpoints

def test_checkpoint_round_trips_bit_exactly(tmp_path):
    p = M.init_params(SCHEMA, 16, 2, rng_seed=9)
    M.init_head(p, rng_seed=10)
    meta = {"gamma": 0.8, "lambda1": 1.0, "lambda2": 1.0, "variant": "full"}
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, p, meta)
    loaded, meta2 = M.load_checkpoint(path)
    assert meta2 == meta
    for name, arr in p.named_arrays().items():
        assert np.array_equal(loaded.named_arrays()[name], arr), name
    path2 = tmp_path / "again.ckpt"
    M.save_checkpoint(path2, loaded, meta2)
    assert path.read_bytes() == path2.read_bytes()


DELETE = object()


def _set(path, value):
    """A change to a checkpoint payload: set the value at `path`, or delete
    it when `value` is DELETE."""
    def change(payload):
        *keys, last = path
        for key in keys:
            payload = payload[key]
        if value is DELETE:
            del payload[last]
        else:
            payload[last] = value
    return change


@pytest.mark.parametrize("change,field", [
    (_set(["encoder_layers"], "2"), "'encoder_layers'"),
    (_set(["encoder_layers"], 3), "'encoder.2'"),
    (_set(["has_head"], DELETE), "'has_head'"),
    (_set(["tensors"], DELETE), "'tensors'"),
    (_set(["tensors", "proxy_benign"], 5), "'proxy_benign'"),
    (_set(["tensors", "encoder.0", "shape"], "x"), "'encoder.0'"),
    (_set(["tensors", "encoder.0", "shape"], [-1, 16]), "'encoder.0'"),
    (_set(["tensors", "mask_token", "data"], "AAAA"), "'mask_token'"),
    (_set(["tensors", "mask_token", "data"], "####"), "'mask_token'"),
    (_set(["tensors", "head.2"], {"shape": [1], "data": "AAAAAAAAAAA="}), "'head.2'"),
    (_set(["tensors", "head.1"], M._encode_array(np.zeros((16, 3)))), "head"),
    (_set(["hidden_dim"], 8), "'hidden_dim'"),
    (_set(["meta"], []), "'meta'"),
])
def test_checkpoint_errors_name_the_file_and_field(tmp_path, change, field):
    p = M.init_params(SCHEMA, 16, 2, rng_seed=9)
    M.init_head(p, rng_seed=10)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, p, {})
    payload = json.loads(path.read_text(encoding="utf-8"))
    change(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        M.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ") and field in str(err.value)


def test_checkpoint_nested_too_deep_is_a_value_error(tmp_path):
    path = tmp_path / "deep.ckpt"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError) as err:
        M.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: not a JSON checkpoint")


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_text('{"format":"something-else"}')
    with pytest.raises(ValueError, match="not a checkpoint"):
        M.load_checkpoint(path)
