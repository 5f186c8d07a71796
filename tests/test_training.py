"""Training-loop tests: optimizer oracle, early-stop semantics, determinism
and variant wiring."""
import numpy as np
import pytest

from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import FeatureGraph

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
    for bad in (dict(gamma=1.0), dict(learning_rate=0.0), dict(early_stop_patience=0),
                dict(variant="nope"), dict(batch_size=0)):
        with pytest.raises(ValueError):
            small_config(**bad).validate()


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
        emb = M.graph_embedding(g, params)
        own, other = ((params.proxy_malicious, params.proxy_benign) if g.label
                      else (params.proxy_benign, params.proxy_malicious))
        want += weights[g.label] * ((1 - cos(emb, own)) ** 2 + cos(emb, other) ** 2)
    assert report.epochs[0].train_loss == pytest.approx(want / len(graphs), abs=1e-12)


def test_divergence_aborts_with_diagnostic():
    graphs = toy_dataset(2)
    cfg = small_config(learning_rate=1e200, max_epochs=5)
    with pytest.raises(T.TrainingDiverged, match="epoch"):
        T.train(graphs, graphs, cfg)


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
