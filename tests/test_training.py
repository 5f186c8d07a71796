"""Training-loop tests: optimizer oracle, early-stop semantics, determinism,
variant wiring, and the padded minibatch steps against per-graph tapes and
against the same batch as tape ops (tape_reference)."""
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import tape_reference as R
from graphsentry import attacks as AT
from graphsentry import autodiff as ad
from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import (FeatureGraph, FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset)

D = 6


def toy_graph(label, gid, n=4, seed=0):
    """Separable classes: benign rows light up the first feature block,
    malicious the second."""
    rng = np.random.default_rng(seed)
    feats = np.zeros((n, D))
    half = D // 2
    for i in range(n):
        block = slice(0, half) if label == 0 else slice(half, D)
        feats[i, block] = rng.integers(0, 2, size=half)
        feats[i, (0 if label == 0 else half)] = 1.0  # never all-zero
    edges = [(i, i + 1) for i in range(n - 1)]
    return FeatureGraph(n, edges, feats, label, gid)


def toy_dataset(n_per_class, seed=0):
    gs = [toy_graph(0, f"b{i}", seed=seed + i) for i in range(n_per_class)]
    gs += [toy_graph(1, f"m{i}", seed=seed + 1000 + i) for i in range(n_per_class)]
    return gs


def small_config(**kw):
    base = dict(gamma=0.5, learning_rate=0.01, layers=2, hidden=8,
                max_epochs=5, early_stop_patience=20, batch_size=8, rng_seed=0,
                variant="full")
    base.update(kw)
    return T.TrainConfig(**base)


# ------------------------------------------------------------------ metrics

def test_metrics_worked_example():
    m = T.Metrics.from_counts(tp=8, fp=2, tn=88, fn=2)
    assert (m.precision, m.recall, m.accuracy) == (0.8, 0.8, 0.96)
    assert m.f1 == pytest.approx(0.8, abs=1e-12)


def test_metrics_degenerate_all_benign():
    m = T.Metrics.from_counts(tp=0, fp=0, tn=50, fn=0)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.accuracy == 1.0


def test_metrics_perfect():
    m = T.Metrics.from_counts(tp=10, fp=0, tn=90, fn=0)
    assert m.precision == m.recall == m.f1 == m.accuracy == 1.0


def test_evaluate_counts_against_hand_labels():
    params = M.init_params(D, 8, 1, rng_seed=0)
    graphs = toy_dataset(3)
    m = T.evaluate(params, graphs)
    preds = [M.predict(g, params)[0] for g in graphs]
    tp = sum(1 for g, p in zip(graphs, preds) if g.label == 1 and p == 1)
    fp = sum(1 for g, p in zip(graphs, preds) if g.label == 0 and p == 1)
    assert (m.tp, m.fp) == (tp, fp) and m.tp + m.fp + m.tn + m.fn == 6


# ------------------------------------------------------------------ optimizer

def test_adam_zero_learning_rate_is_bit_identical():
    arrays = {"w": np.random.default_rng(0).normal(size=(4, 3))}
    before = {k: v.copy() for k, v in arrays.items()}
    opt = T.Adam(arrays, learning_rate=0.0)
    opt.step(arrays, {"w": np.random.default_rng(1).normal(size=(4, 3))})
    assert arrays["w"].tobytes() == before["w"].tobytes()


def test_adam_matches_hand_computed_steps():
    arrays = {"w": np.array([1.0])}
    opt = T.Adam(arrays, learning_rate=0.1)
    g1, g2 = np.array([0.5]), np.array([-0.25])
    # step 1
    opt.step(arrays, {"w": g1})
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    expect = 1.0 - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    assert arrays["w"][0] == pytest.approx(expect, abs=1e-15)
    # step 2
    opt.step(arrays, {"w": g2})
    m = 0.9 * m + 0.1 * (-0.25)
    v = 0.999 * v + 0.001 * 0.0625
    mhat = m / (1 - 0.9**2)
    vhat = v / (1 - 0.999**2)
    expect -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert arrays["w"][0] == pytest.approx(expect, abs=1e-15)


def test_adam_moves_toward_lower_loss():
    arrays = {"w": np.array([5.0])}
    opt = T.Adam(arrays, learning_rate=0.05)
    for _ in range(300):
        opt.step(arrays, {"w": 2.0 * arrays["w"]})  # d/dw of w^2
    assert abs(arrays["w"][0]) < 0.1


# ------------------------------------------------------------------ config

def test_config_rejects_bad_fields():
    # the last two leave a zero objective; minus_cr does not use lambda1
    for bad in (dict(gamma=1.0), dict(learning_rate=0.0), dict(early_stop_patience=0),
                dict(variant="nope"), dict(batch_size=0), dict(lambda1=-1.0),
                dict(lambda2=-1.0), dict(lambda1=0.0, lambda2=0.0),
                dict(variant="minus_cr", lambda2=0.0)):
        with pytest.raises(ValueError):
            small_config(**bad).validate()
    small_config(lambda2=0.0).validate()  # full keeps its reconstruction term
    for name in ("learning_rate", "lambda1", "lambda2"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_config(**{name: value}).validate()


def test_train_rejects_empty_or_mismatched_inputs():
    graphs = toy_dataset(2)
    with pytest.raises(ValueError, match="nonempty"):
        T.train([], graphs, small_config())
    odd = FeatureGraph(2, [(0, 1)], np.ones((2, D + 1)), 0, "wide")
    with pytest.raises(ValueError, match="widths"):
        T.train(graphs + [odd], graphs, small_config())


# ------------------------------------------------------------------ loop semantics

def test_early_stop_plateau_semantics(monkeypatch):
    # val F1 improves through epoch 5 then freezes; patience 3 stops at 8
    scripted = iter([0.1, 0.2, 0.3, 0.4, 0.5] + [0.5] * 50)

    def fake_evaluate(params, graphs):
        return T.Metrics(0, 0, 1, 0, 0.0, 0.0, next(scripted), 1.0)

    monkeypatch.setattr(T, "evaluate", fake_evaluate)
    graphs = toy_dataset(2)
    _, report = T.train(graphs, graphs, small_config(max_epochs=60,
                                                     early_stop_patience=3))
    assert report.stopping_epoch == 8
    assert report.best_epoch == 5
    assert report.best_val_f1 == 0.5


def test_perfect_val_f1_stops_training(monkeypatch):
    # val F1 reaches 1.0 at epoch 3; no later epoch can beat it, so the run
    # stops there, with patience to spare
    def scripted_evaluate(script):
        def fake_evaluate(params, graphs):
            return T.Metrics(0, 0, 1, 0, 0.0, 0.0, next(script), 1.0)
        return fake_evaluate

    graphs = toy_dataset(2)
    monkeypatch.setattr(T, "evaluate", scripted_evaluate(iter([0.2, 0.5, 1.0] + [1.0] * 50)))
    params, report = T.train(graphs, graphs, small_config(max_epochs=60,
                                                          early_stop_patience=10))
    assert (report.best_epoch, report.stopping_epoch, report.best_val_f1) == (3, 3, 1.0)
    assert len(report.epochs) == 3
    # the returned parameters are those a 3-epoch run ends with
    monkeypatch.setattr(T, "evaluate", scripted_evaluate(iter([0.2, 0.5, 0.9])))
    last, _ = T.train(graphs, graphs, small_config(max_epochs=3))
    for name, arr in params.named_arrays().items():
        assert np.array_equal(arr, last.named_arrays()[name]), name


def test_stopping_epoch_never_exceeds_max_epochs():
    graphs = toy_dataset(2)
    _, report = T.train(graphs, graphs, small_config(max_epochs=3))
    assert report.stopping_epoch <= 3
    assert len(report.epochs) == report.stopping_epoch


def test_training_is_deterministic():
    graphs = toy_dataset(4)
    runs = []
    for _ in range(2):
        params, report = T.train(graphs, graphs, small_config(max_epochs=3))
        runs.append((params, [e.train_loss for e in report.epochs],
                     [e.val_f1 for e in report.epochs]))
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
    for k, arr in runs[0][0].named_arrays().items():
        assert np.array_equal(arr, runs[1][0].named_arrays()[k]), k


def test_seed_changes_the_run():
    graphs = toy_dataset(4)
    _, r1 = T.train(graphs, graphs, small_config(max_epochs=2, rng_seed=0))
    _, r2 = T.train(graphs, graphs, small_config(max_epochs=2, rng_seed=1))
    assert [e.train_loss for e in r1.epochs] != [e.train_loss for e in r2.epochs]


def test_four_graph_overfit_reaches_perfect_train_accuracy():
    graphs = toy_dataset(2, seed=3)
    params, report = T.train(graphs, graphs, small_config(
        max_epochs=500, early_stop_patience=30, learning_rate=0.01))
    assert T.evaluate(params, graphs).accuracy == 1.0
    assert report.stopping_epoch <= 500


def test_proxy_class_weights_give_each_class_equal_total_weight():
    imbalanced = toy_dataset(9)[:12]  # 9 benign, 3 malicious
    w = T.proxy_class_weights(imbalanced)
    assert w == {0: 12 / 18, 1: 12 / 6}
    totals = [sum(w[g.label] for g in imbalanced if g.label == c) for c in (0, 1)]
    assert totals == pytest.approx([6.0, 6.0], abs=1e-12)
    assert T.proxy_class_weights(toy_dataset(3)) == {0: 1.0, 1: 1.0}
    assert T.proxy_class_weights(toy_dataset(3)[:3]) == {0: 1.0}


def test_first_epoch_loss_is_the_class_weighted_contrast():
    # one batch per epoch, so every epoch-1 loss is taken at the initial
    # parameters; minus_r has no reconstruction term
    graphs = toy_dataset(6)[:8]  # 6 benign, 2 malicious
    cfg = small_config(max_epochs=1, batch_size=len(graphs), variant="minus_r")
    _, report = T.train(graphs, graphs, cfg)
    params = M.init_params(D, cfg.hidden, cfg.layers, cfg.rng_seed)

    def cos(a, b):
        return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

    weights = {0: 8 / 12, 1: 8 / 4}
    want = 0.0
    for g in graphs:
        emb = M.graph_embedding(g, params.encoder_weights)
        own, other = ((params.proxy_malicious, params.proxy_benign) if g.label
                      else (params.proxy_benign, params.proxy_malicious))
        want += weights[g.label] * ((1 - cos(emb, own)) ** 2 + cos(emb, other) ** 2)
    assert report.epochs[0].train_loss == pytest.approx(want / len(graphs), abs=1e-12)


def test_divergence_aborts_with_diagnostic():
    graphs = toy_dataset(2)
    cfg = small_config(learning_rate=1e200, max_epochs=5)
    with pytest.raises(T.TrainingDiverged, match="epoch"):
        T.train(graphs, graphs, cfg)


@pytest.mark.parametrize("variant", T.VARIANTS)
def test_divergence_in_a_batch_names_the_graph_and_the_op(variant, monkeypatch):
    # only the culprit has features 4 and 5, whose encoder rows overflow the
    # first matmul; the batch tape fails, and the replay of each member
    # alone names the culprit
    graphs = [FeatureGraph(g.node_count, g.edges, g.features * (np.arange(D) < 4),
                           g.label, g.graph_id) for g in toy_dataset(3)]
    culprit = np.zeros((3, D))
    culprit[:, 4:] = 1.0
    graphs.insert(3, FeatureGraph(3, [(0, 1), (1, 2)], culprit, 1, "culprit"))
    init = M.init_params

    def overflowing_init(*args, **kwargs):
        params = init(*args, **kwargs)
        params.encoder_weights[0][4:] = 1e308
        params.mask_token[4:] = 0.0
        return params

    monkeypatch.setattr(M, "init_params", overflowing_init)
    cfg = small_config(batch_size=len(graphs), variant=variant)
    with pytest.raises(T.TrainingDiverged,
                       match=r"^epoch 1, graph culprit: matmul produced non-finite output$"):
        T.train(graphs, graphs, cfg)


def test_divergence_of_the_batch_alone_names_the_batch():
    """A batch that fails where none of its members fails alone is blamed
    as a whole, its graphs named in batch order, the batch's error chained."""
    members = [(g, None) for g in toy_dataset(2)[:3]]
    built, raised = [], []

    def build(batch):
        built.append([g.graph_id for g, _ in batch])
        if len(batch) >= 2:
            raised.append(ad.NonFiniteError("readout produced non-finite output"))
            raise raised[-1]
        return "fine"

    with pytest.raises(ad.NonFiniteError) as info:
        T.per_graph_on_error(build, members)
    ids = [g.graph_id for g, _ in members]
    assert str(info.value) == (f"batch of graphs {', '.join(ids)}: "
                               "readout produced non-finite output")
    assert info.value.__cause__ is raised[0] and len(raised) == 1
    assert built == [ids] + [[i] for i in ids]


def overflowing_proxies(params):
    """Finite proxies whose norms overflow, beside a finite encoder: every
    cosine to them would read 0."""
    params.proxy_benign = np.full(params.hidden_dim, 1e200)
    params.proxy_malicious = np.full(params.hidden_dim, -1e200)
    return params


def test_proxies_whose_norm_overflows_are_not_scored():
    params = overflowing_proxies(M.init_params(D, 8, 2, rng_seed=0))
    graphs = toy_dataset(2)
    want = r"^proxy_benign has a norm that overflows$"
    with pytest.raises(ad.NonFiniteError, match=want):
        T.evaluate(params, graphs)
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError, match=want):
        M.predict(graphs[0], params)


def test_divergence_of_the_proxies_ends_in_the_validation_pass(monkeypatch):
    init = M.init_params
    monkeypatch.setattr(M, "init_params",
                        lambda *args, **kwargs: overflowing_proxies(init(*args, **kwargs)))
    graphs = toy_dataset(3)
    with np.errstate(over="ignore"), pytest.raises(
            T.TrainingDiverged,
            match=r"^epoch 1, validation pass: proxy_benign has a norm that overflows$"):
        T.train(graphs, graphs, small_config())


# ------------------------------------------------------------------ batched tape

def odd_graphs():
    """Sizes 1-7, with a 1-node graph, an isolated node and an edgeless graph."""
    rng = np.random.default_rng(11)
    graphs = [FeatureGraph(1, [], np.eye(1, D), 1, "solo"),
              FeatureGraph(4, [(0, 1), (1, 2)], np.eye(4, D), 0, "isolated"),
              FeatureGraph(5, [], rng.integers(0, 2, size=(5, D)), 1, "edgeless")]
    for i, n in enumerate([7, 2, 3, 6, 4, 7, 5, 3]):
        edges = [(s, t) for s in range(n) for t in range(n)
                 if s != t and rng.random() < 0.3]
        graphs.append(FeatureGraph(n, edges, rng.integers(0, 2, size=(n, D)).astype(float),
                                   i % 2, f"r{i}"))
    return graphs


def reference_layers(h, p, weights, final_linear):
    """The GCN layers on a tape from primitive ops, propagating by the dense
    (n, n) matrix `p` of one graph."""
    pt = h.tape.constant(p)
    for i, w in enumerate(weights):
        z = ad.matmul(ad.add(h, ad.matmul(pt, h)), w)
        h = z if (final_linear and i == len(weights) - 1) else ad.relu(z)
    return h


def per_op_layers(h, p, weights, final_linear):
    """The GCN layers on a tape as one op per step, propagating the rows of
    `h` blockwise by a (B, m, m) stack `p`: the tape's layers before they
    were one op."""
    for i, w in enumerate(weights):
        z = ad.matmul(ad.add(h, ad.edge_aggregate(h, p)), w)
        h = z if (final_linear and i == len(weights) - 1) else ad.relu(z)
    return h


@pytest.mark.bits
@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("final_linear", [False, True])
@pytest.mark.parametrize("input_grad", [False, True])
def test_layer_op_gives_the_bits_of_per_op_layers(layers, final_linear, input_grad):
    """`model.encode` has the forward rows of the per-op layers and, through
    its `back`, the gradients of the input and of every weight, bit for bit,
    on padded odd graphs, with the hidden width apart from the feature
    width; a linear last layer maps back to the feature width, as the
    decoder's does. With the input's gradient the rows are masked first, as
    training masks them, and the token and the unmasked rows get their
    parts of it. At hidden width 32 a product by a contiguous transpose of
    layer 0's (6, 32) weight gives other bits than one by its transposed
    view.

    `encode` multiplies by W_l one graph's m rows at a time, where the
    per-op layers make one product over all B*m rows. OpenBLAS gives both
    the same bits at these widths, but not at an output width of 1-3 after
    an input width of 16 or more."""
    p, features, _ = M.batch_graphs(odd_graphs())
    count, m, _ = features.shape
    flat = features.reshape(count * m, D)  # the tape's rows, graph b's block at b*m
    rng = np.random.default_rng(layers)
    widths = [D] + [32] * (layers - 1) + [D if final_linear else 32]
    weights = [rng.normal(size=shape) for shape in zip(widths[:-1], widths[1:])]
    coeffs = rng.normal(size=(count * m, widths[-1]))
    plan = M.MaskPlan((m, m + 2, 4 * m + 1))  # graph 1's nodes 0 and 2, graph 4's node 1
    token = rng.normal(size=D)

    tape = ad.Tape()
    ws = [tape.param(w) for w in weights]
    if input_grad:
        x = tape.param(flat)
        leaves = [x, tape.param(token)] + ws
        xin = R.apply_mask(x, plan, leaves[1])
    else:
        leaves = ws
        xin = tape.constant(flat)
    out = per_op_layers(xin, p, ws, final_linear)
    grads = ad.backward(tape, ad.sum_all(ad.mul(out, tape.constant(coeffs))))
    want = [grads[t.tid] for t in leaves]

    rows, back = M.encode(p, xin.value.reshape(features.shape), weights, final_linear)
    dws, dx = back(coeffs.reshape(rows.shape), input_grad)
    got = dws
    if input_grad:
        dx = dx.reshape(flat.shape)
        masked = list(plan.masked)
        token_grad = dx[masked].sum(axis=0)
        dx[masked] = 0.0
        got = [dx, token_grad] + dws
    else:
        assert dx is None
    assert np.array_equal(rows.reshape(out.value.shape), out.value)
    assert len(got) == len(want) == layers + 2 * input_grad
    for i, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), i
        assert np.any(g != 0), i


def reference_head(g, weights):
    """The (2,) logits of one (h,) embedding."""
    hid = ad.relu(ad.matmul(ad.tile_rows(g, 1), weights[0]))
    return ad.mean_rows(ad.matmul(hid, weights[1]))


def reference_detector_loss(graph, plan, params, config, class_weights):
    """The objective of one graph on its own tape, from primitive ops and
    masking: (value, {name: gradient})."""
    tape = ad.Tape()
    bound = M.bind_params(tape, params)
    p = M.propagation_terms(graph)
    x = tape.constant(graph.features)
    xin = R.apply_mask(x, plan, bound["mask_token"]) if plan else x
    h = reference_layers(xin, p, R.layer_tensors(bound, "encoder"), final_linear=False)
    g = ad.mean_rows(h)
    if config.uses_proxies:
        own, other = ((bound["proxy_malicious"], bound["proxy_benign"]) if graph.label
                      else (bound["proxy_benign"], bound["proxy_malicious"]))
        pull = ad.square(ad.sub(tape.constant(1.0), ad.cosine(g, own)))
        cl = ad.scale(ad.add(ad.square(ad.cosine(g, other)), pull),
                      class_weights[graph.label])
    else:
        cl = reference_cross_entropy(reference_head(g, R.layer_tensors(bound, "head")),
                                     graph.label)
    if plan:
        z = reference_layers(R.remask(h, plan), p, R.layer_tensors(bound, "decoder"),
                             final_linear=True)
        idx = list(plan.masked)
        cos = ad.row_cosine(ad.gather_rows(x, idx), ad.gather_rows(z, idx))
        rec = ad.mean_all(ad.square(ad.sub(tape.constant(np.ones(len(idx))), cos)))
    else:
        rec = tape.constant(0.0)
    joint = ad.add(ad.scale(rec, config.lambda1), ad.scale(cl, config.lambda2))
    grads = ad.backward(tape, joint)
    return float(joint.value), {name: grads[t.tid] for name, t in bound.items()}


def reference_cross_entropy(logits, y):
    shifted = ad.sub(logits, logits.tape.constant(np.full(2, logits.value.max())))
    lse = ad.log(ad.sum_all(ad.exp(shifted)))
    return ad.sub(lse, ad.dot(shifted, logits.tape.constant(np.eye(2)[y])))


def reference_surrogate_loss(sp, graph, label):
    tape = ad.Tape()
    bound = {k: tape.param(v) for k, v in sp.weights.items()}
    if sp.architecture == "gnn2_mlp":
        g = ad.mean_rows(reference_layers(tape.constant(graph.features),
                                          M.propagation_terms(graph),
                                          [bound["enc.0"], bound["enc.1"]], False))
    else:
        a, n = M.adjacency(graph), graph.node_count
        degree = np.maximum(a, a.T).sum() / max(n * (n - 1), 1)
        g = tape.constant(np.append(graph.features.mean(axis=0), degree))
    loss = reference_cross_entropy(reference_head(g, [bound["head.0"], bound["head.1"]]),
                                   label)
    grads = ad.backward(tape, loss)
    return float(loss.value), {name: grads[t.tid] for name, t in bound.items()}


def assert_batch_grads_match_per_graph_sums(graphs, batch_size, batch_grads, reference):
    """Every batch (the last one short) has the loss and gradients of the
    sum of its members' own tapes, to 1e-12. `batch_grads(members)` and
    `reference(member)` return (loss, {name: gradient})."""
    assert len(graphs) % batch_size != 0
    for start in range(0, len(graphs), batch_size):
        members = graphs[start:start + batch_size]
        loss, grads = batch_grads(members)
        singles = [reference(m) for m in members]
        assert float(loss) == pytest.approx(sum(v for v, _ in singles), abs=1e-12)
        assert grads.keys() == singles[0][1].keys()
        for name, got in grads.items():
            want = sum(gs[name] for _, gs in singles)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", T.VARIANTS)
def test_batch_tape_equals_sum_of_per_graph_tapes(variant):
    graphs = odd_graphs()
    cfg = small_config(variant=variant)
    params = M.init_params(D, cfg.hidden, cfg.layers, rng_seed=5)
    rng = np.random.default_rng(6)
    params.proxy_benign = rng.normal(size=cfg.hidden)  # margins away from the tie
    params.proxy_malicious = rng.normal(size=cfg.hidden)
    if not cfg.uses_proxies:
        M.init_head(params, 7)
    weights = T.proxy_class_weights(graphs)
    members = list(zip(graphs, T.draw_plans(graphs, cfg, np.random.default_rng(8))))
    assert members[0][1] is None  # the 1-node graph is never masked
    assert any(plan is not None for _, plan in members) == cfg.uses_masking
    assert_batch_grads_match_per_graph_sums(
        members, 4,
        lambda ms: T.detector_batch_grads(ms, params, cfg, weights)[::2],
        lambda m: reference_detector_loss(m[0], m[1], params, cfg, weights))


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_surrogate_batch_tape_equals_sum_of_per_graph_tapes(arch):
    graphs = odd_graphs()
    sp = AT._init_surrogate(arch, D, 8, rng_seed=9)
    members = [(g, i % 2) for i, g in enumerate(graphs)]
    assert_batch_grads_match_per_graph_sums(
        members, 4, lambda ms: AT.surrogate_batch_grads(sp, ms),
        lambda m: reference_surrogate_loss(sp, m[0], m[1]))


def desk_graphs():
    """96 synthetic graphs of 8-19 nodes, as the desk data makes them."""
    graphs = generate_synthetic_dataset(SyntheticConfig(
        n_graphs=96, benign_node_range=(8, 14), motif_node_count=5,
        motif_feature_signature="110010101010", malicious_fraction=0.1,
        background_edge_prob=0.15, rng_seed=5, schema=FeatureSchema(8, 4)))
    assert {g.node_count for g in graphs} >= {8, 19}
    return graphs


@pytest.mark.bits
@pytest.mark.parametrize("variant", T.VARIANTS)
def test_detector_step_gives_the_bits_of_the_tape(variant):
    """The hand-written detector step has the joint loss, the reconstruction
    loss and every gradient of the per-op tape, bit for bit, at each lambda
    pair: on the odd graphs (a 1-node graph among them), on batches of one,
    and on 32-graph batches of 8-19-node synthetic graphs at hidden widths 32
    and 1 with 1-3 layers. Each graph is masked as training draws it."""
    odd = odd_graphs()
    synthetic = desk_graphs()
    cases = [(odd, 8, 2), (odd[:1], 8, 1), (odd[3:4], 32, 3)]
    cases += [(synthetic[32 * (i % 3):32 * (i % 3) + 32], hidden, layers)
              for i, (hidden, layers) in enumerate((h, l) for h in (32, 1) for l in (1, 2, 3))]
    for i, (graphs, hidden, layers) in enumerate(cases):
        d = graphs[0].feature_dim
        for lambda1, lambda2 in ((1.0, 1.0), (0.7, 1.3), (1.0, 0.0), (0.0, 1.0)):
            cfg = small_config(variant=variant, hidden=hidden, layers=layers,
                               lambda1=lambda1, lambda2=lambda2)
            params = M.init_params(d, hidden, layers, rng_seed=i)
            if not cfg.uses_proxies:
                M.init_head(params, i + 1)
            weights = T.proxy_class_weights(graphs)
            members = list(zip(graphs, T.draw_plans(graphs, cfg, np.random.default_rng(i))))
            joint, rec, grads = T.detector_batch_grads(members, params, cfg, weights)
            want_joint, want_rec, want = R.detector_loss_tape(members, params, cfg, weights)
            case = (len(graphs), hidden, layers, lambda1, lambda2)
            assert np.array_equal(joint, want_joint), case
            assert np.array_equal(rec, want_rec), case
            assert grads.keys() == want.keys() == params.named_arrays().keys()
            for name, g in grads.items():
                assert np.array_equal(g, want[name]), (case, name)


@pytest.mark.bits
@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_surrogate_step_gives_the_bits_of_the_tape(arch):
    """The hand-written surrogate step has the loss and every gradient of
    the per-op tape, bit for bit: on the odd graphs (a 1-node graph among
    them), on batches of one, and on 32-graph batches of 8-19-node
    synthetic graphs at hidden widths 16 and 1."""
    rng = np.random.default_rng(13)
    odd = odd_graphs()
    synthetic = desk_graphs()
    cases = [(odd, 8), (odd[:1], 8), (odd[3:4], 8)]
    cases += [(synthetic[i:i + 32], hidden) for hidden in (16, 1) for i in (0, 32, 64)]
    for graphs, hidden in cases:
        sp = AT._init_surrogate(arch, graphs[0].feature_dim, hidden, rng_seed=len(graphs))
        members = [(g, int(y)) for g, y in zip(graphs, rng.integers(0, 2, len(graphs)))]
        loss, grads = AT.surrogate_batch_grads(sp, members)
        want_loss, want = R.surrogate_loss_tape(sp, members)
        assert np.array_equal(loss, want_loss), (len(graphs), hidden)
        assert grads.keys() == want.keys() == sp.weights.keys()
        for name, g in grads.items():
            assert np.array_equal(g, want[name]), (len(graphs), hidden, name)


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_a_diverged_distillation_names_the_graph_and_the_op(arch):
    """At a learning rate of 1e200 the surrogate's products overflow in a
    later batch; the batch is replayed graph by graph, the error names the
    first graph that fails alone and its op, and no numpy warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ad.NonFiniteError,
                           match=r"^graph b5: matmul produced non-finite output$"):
            AT.distill_surrogate(lambda g: g.label, toy_dataset(6), arch, epochs=3,
                                 hidden=8, batch_size=4, learning_rate=1e200)


def test_a_batch_of_large_graphs_stays_small():
    """One epoch of `full` on 32 graphs of 100-205 nodes holds one (32, m, m)
    propagation stack, not a dense (N, N) union of 5,000 nodes or more."""
    script = textwrap.dedent("""
        import resource
        from graphsentry import training as T
        from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,
                                           generate_synthetic_dataset)
        graphs = generate_synthetic_dataset(SyntheticConfig(
            n_graphs=32, benign_node_range=(100, 200), motif_node_count=5,
            motif_feature_signature="110010101010", malicious_fraction=0.1,
            background_edge_prob=0.02, rng_seed=3, schema=FeatureSchema(8, 4)))
        assert sum(g.node_count for g in graphs) > 4000
        T.train(graphs, graphs[:2], T.TrainConfig(hidden=32, max_epochs=1,
                                                 batch_size=32, variant="full"))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    peak_mb = int(done.stdout.split()[-1]) / 1024
    assert peak_mb < 250, f"peak RSS {peak_mb:.0f} MB"


# ------------------------------------------------------------------ variants

def test_variant_wiring_heads_and_counters():
    graphs = toy_dataset(3)
    cases = {
        "full": dict(head=False, masks=True),
        "minus_c": dict(head=True, masks=True),
        "minus_r": dict(head=False, masks=False),
        "minus_cr": dict(head=True, masks=False),
    }
    for variant, want in cases.items():
        params, report = T.train(graphs, graphs,
                                 small_config(max_epochs=2, variant=variant))
        assert (params.head_weights is not None) == want["head"], variant
        masked = report.counter_delta["mask_samples"] > 0
        decoded = report.counter_delta["decoder_passes"] > 0
        assert masked == want["masks"] and decoded == want["masks"], variant
        rec = [e.rec_loss for e in report.epochs]
        if want["masks"]:
            assert all(r > 0 for r in rec), variant
        else:
            assert rec == [0.0] * len(rec), variant


def test_counts_come_from_the_tapes_of_the_run():
    # a 1-node graph cannot be masked, so it is neither masked nor decoded
    solo = FeatureGraph(1, [], np.eye(1, D), 0, "solo")
    graphs = toy_dataset(3) + [solo]
    for _ in range(2):  # a second run counts from zero again
        _, report = T.train(graphs, graphs, small_config(max_epochs=3))
        want = (len(graphs) - 1) * len(report.epochs)
        assert report.counter_delta == {"mask_samples": want, "decoder_passes": want}


def test_minus_cr_trains_with_zero_masking_instrumentation():
    graphs = toy_dataset(3)
    _, report = T.train(graphs, graphs, small_config(max_epochs=3, variant="minus_cr"))
    assert report.counter_delta == {"mask_samples": 0, "decoder_passes": 0}
