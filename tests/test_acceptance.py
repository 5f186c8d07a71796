"""Acceptance gate: one test per shipping criterion, each printing a single
[ACCEPTANCE] pass/fail line with the measured numbers.

Criteria 5-8 share one desk-scale experiment (1,000 synthetic graphs, 9:1
class ratio, 70/20/10 split) through module-scoped fixtures, so the expensive
training and attack runs happen once.

Criterion 7 (directional robustness) checks the paper's ablation claim: the
full detector is evaded no more often than the plain GCN + CE-head ablation.
It failed (1/4 seeds) while the proxy-contrast term was unweighted. Measured
then: the full detector flipped after 3-16 insertions and minus_cr after
2-41, so a smaller budget would not have reversed the direction, and every
graph that resisted reached the complete graph (63-80 insertions, once
reverse edges were no longer offered) and stayed detected. The cause was the
classifier. At the 9:1 class ratio the bounded contrast term gave the
malicious proxy a tenth of the training signal, so malicious graphs sat
close to the cosine boundary (margins -0.24 to -0.73 on seed 0, where
training aims at -1). There, all 48 insertions of the successful attacks
joined a background node to a motif node and tilted the mean-pooled
embedding across. With the class-balanced term (training.proxy_class_weights) the
inequality holds on every seed. The attack offers a detector no edge whose
reverse is present: the detector reads the symmetrized edge set and cannot
see such an insertion.
"""
import time

import numpy as np
import pytest

import conftest
from fd_check import finite_difference_check

import graphsentry.attacks as AT
import graphsentry.cli as cli
import graphsentry.losses as L
import graphsentry.model as M
import graphsentry.training as T
from graphsentry.graphdata import (FeatureGraph, FeatureSchema,
                                   SyntheticConfig, generate_synthetic_dataset,
                                   split_dataset)


def report_line(num, name, ok, detail):
    line = (f"[ACCEPTANCE] criterion {num:02d} {name}: "
            f"{'PASS' if ok else 'FAIL'} - {detail}")
    print("\n" + line)
    conftest.acceptance_lines.append(line)


def random_graph(rng, n, d, edge_prob=0.3, label=0):
    rows = rng.integers(0, 2, size=(n, d))
    edges = [(s, t) for s in range(n) for t in range(n)
             if s != t and rng.random() < edge_prob]
    return FeatureGraph(node_count=n, edges=edges, features=rows,
                        label=label, graph_id=f"r{n}")


# ------------------------------------------------------------------ criterion 1

def test_criterion_01_joint_loss_gradients_match_finite_differences():
    d, hidden = 6, 8
    config = T.TrainConfig(hidden=hidden, layers=2)  # lambda1 = lambda2 = 1
    worst = 0.0
    tic = time.perf_counter()
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        n = int(rng.integers(3, 13))
        graph = random_graph(rng, n, d, label=int(i % 2))
        params = M.init_params(d, hidden=hidden, layers=2, rng_seed=i)
        plan = M.sample_mask(n, 0.5, rng)
        names = list(params.named_arrays())

        def f(point):
            p = M.ModelParams(
                encoder_weights=[point[names.index(f"encoder.{j}")]
                                 for j in range(2)],
                decoder_weights=[point[names.index(f"decoder.{j}")]
                                 for j in range(2)],
                mask_token=point[names.index("mask_token")],
                proxy_benign=point[names.index("proxy_benign")],
                proxy_malicious=point[names.index("proxy_malicious")])
            joint, _, grads = T.detector_batch_grads([(graph, plan)], p, config,
                                                     {0: 1.0, 1: 1.0})
            return joint, [grads[name] for name in names]

        point = list(params.named_arrays().values())
        rep = finite_difference_check(f, point, tolerance=1e-4)
        worst = max(worst, rep.worst_error)
        assert rep.passed, f"graph {i}: {rep}"
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-4 and elapsed < 120
    report_line(1, "gradient-correctness", ok,
                f"20 graphs, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ------------------------------------------------------------------ criterion 2

def dense_propagation(graph, weights, final_linear, x):
    n = graph.node_count
    S = np.zeros((n, n))
    for s, t in graph.edges:
        S[s, t] = S[t, s] = 1.0
    deg = S.sum(axis=1)
    C = np.zeros((n, n))
    nz = S > 0
    for v in range(n):
        for u in range(n):
            if nz[v, u]:
                C[v, u] = 1.0 / np.sqrt(deg[v] * deg[u])
    h = x
    for li, w in enumerate(weights):
        h = (h + C @ h) @ w
        if not (final_linear and li == len(weights) - 1):
            h = np.maximum(h, 0.0)
    return h


def test_criterion_02_sparse_matches_dense_oracle():
    d, hidden = 5, 7
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(1, 17))
        graph = random_graph(rng, n, d)
        params = M.init_params(d, hidden=hidden, layers=2, rng_seed=i)
        p = M.batch_graphs([graph])[0]
        x = graph.features.copy()
        enc = M.encode(p, x[None], params.encoder_weights)[0][0]
        want = dense_propagation(graph, params.encoder_weights, False, x)
        worst = max(worst, float(np.abs(enc - want).max()))
        hin = rng.normal(size=(n, hidden))
        dec = M.encode(p, hin[None], params.decoder_weights, final_linear=True)[0][0]
        want = dense_propagation(graph, params.decoder_weights, True, hin)
        worst = max(worst, float(np.abs(dec - want).max()))
    ok = worst <= 1e-10
    report_line(2, "dense-oracle-equivalence", ok,
                f"100 graphs encode+decode, worst abs diff {worst:.2e}")
    assert ok


# ------------------------------------------------------------------ criterion 3

def test_criterion_03_loss_trivial_values_exact():
    def rec(x_rows, z_rows, masked):
        weights = np.full(len(masked), 1.0 / len(masked))
        return L.reconstruction_loss(np.array(x_rows, dtype=np.float64),
                                     np.array(z_rows, dtype=np.float64), masked, weights)[0]

    def cl(g, y, p0, p1):
        return L.contrastive_loss(np.array([g], dtype=np.float64), [y],
                                  np.array(p0, dtype=np.float64),
                                  np.array(p1, dtype=np.float64))[0]

    rec_vals = (rec([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], (0, 1)),
                rec([[1.0, 0.0]], [[0.0, 1.0]], (0,)),
                rec([[1.0, 0.0]], [[-1.0, 0.0]], (0,)))
    cl_vals = (cl([1.0, 0.0], 1, [0.0, 1.0], [1.0, 0.0]),
               cl([0.0, 1.0], 1, [0.0, 1.0], [1.0, 0.0]),
               cl([0.0, 1.0], 0, [0.0, 1.0], [1.0, 0.0]))
    errs = [abs(a - b) for a, b in zip(rec_vals + cl_vals, (0, 1, 4, 0, 2, 0))]
    ok = max(errs) <= 1e-12
    rec_s = ", ".join(f"{float(v):g}" for v in rec_vals)
    cl_s = ", ".join(f"{float(v):g}" for v in cl_vals)
    report_line(3, "loss-analytics", ok,
                f"rec ({rec_s}) cl ({cl_s}), worst err {max(errs):.1e}")
    assert ok


# ------------------------------------------------------------------ criterion 4

def test_criterion_04_masking_contract():
    rng = np.random.default_rng(0)
    counts = np.zeros(10, dtype=int)
    for _ in range(10000):
        plan = M.sample_mask(10, 0.5, rng)
        assert len(plan.masked) == 5
        counts[list(plan.masked)] += 1
    in_band = bool(np.all((counts >= 4850) & (counts <= 5150)))

    clamp_ok = True
    for n in range(2, 13):
        for gamma in (0.05, 0.3, 0.5, 0.8, 0.95):
            k = len(M.sample_mask(n, gamma, rng).masked)
            want = min(max(int(np.floor(gamma * n + 0.5)), 1), n - 1)
            clamp_ok = clamp_ok and k == want
    ok = in_band and clamp_ok
    report_line(4, "masking-contract", ok,
                f"counts {counts.min()}..{counts.max()} (band 4850..5150), "
                f"clamp rule {'held' if clamp_ok else 'violated'}")
    assert ok


# ------------------------------------------------------------------ desk-scale fixtures

DESK_SIG = "110010101010"


def desk_train_config(seed, variant):
    return T.TrainConfig(gamma=0.5, learning_rate=0.001, layers=2, hidden=32,
                         lambda1=1.0, lambda2=1.0, max_epochs=200,
                         early_stop_patience=10, batch_size=32,
                         rng_seed=seed, variant=variant)


@pytest.fixture(scope="module")
def desk():
    cfg = SyntheticConfig(
        n_graphs=1000, benign_node_range=(8, 14), motif_node_count=5,
        motif_feature_signature=DESK_SIG, malicious_fraction=0.1,
        background_edge_prob=0.15, rng_seed=42, schema=FeatureSchema(8, 4))
    graphs = generate_synthetic_dataset(cfg)
    split = split_dataset(graphs, (0.7, 0.2, 0.1), (9, 1), 0)
    by_id = {g.graph_id: g for g in graphs}
    return {name: [by_id[i] for i in getattr(split, name)]
            for name in ("train", "validation", "test")}


@pytest.fixture(scope="module")
def desk_run(desk):
    tic = time.perf_counter()
    params, report = T.train(desk["train"], desk["validation"],
                             desk_train_config(0, "full"))
    elapsed = time.perf_counter() - tic
    return params, report, elapsed


@pytest.fixture(scope="module")
def attack_grid(desk, desk_run):
    """Whitebox attacks on full and minus_cr detectors for seeds 0..3 with one
    shared config (the only pinned field is the 100-iteration budget)."""
    acfg = AT.AttackConfig(max_iterations=100)
    rows = []
    for seed in (0, 1, 2, 3):
        per = {"seed": seed}
        for variant in ("full", "minus_cr"):
            if seed == 0 and variant == "full":
                params = desk_run[0]
            else:
                params, _ = T.train(desk["train"], desk["validation"],
                                    desk_train_config(seed, variant))
            pop = [g for g in desk["test"]
                   if g.label == 1 and M.predict(g, params)[0] == 1]
            results = [AT.whitebox_attack(params, g, acfg) for g in pop]
            summary = AT.compute_asr_apr(results)
            per[variant] = {"asr": summary.asr, "results": results,
                            "population": pop}
        rows.append(per)
    return rows


# ------------------------------------------------------------------ criterion 5

def test_criterion_05_desk_scale_detection(desk, desk_run):
    params, report, elapsed = desk_run
    f1 = T.evaluate(params, desk["test"]).f1
    ok = f1 >= 0.95 and report.stopping_epoch <= 200 and elapsed < 900
    report_line(5, "desk-scale-detection", ok,
                f"test F1 {f1:.4f} in {report.stopping_epoch} epochs, "
                f"{elapsed:.0f}s")
    assert ok


# ------------------------------------------------------------------ criterion 6

def test_criterion_06_reconstruction_halves(desk_run):
    _, report, _ = desk_run
    first = report.epochs[0].rec_loss
    final = report.epochs[-1].rec_loss
    ok = final < 0.5 * first
    report_line(6, "reconstruction-learning", ok,
                f"epoch-1 rec {first:.4f}, final rec {final:.4f} "
                f"(ratio {final / first:.3f}, need < 0.5)")
    assert ok


# ------------------------------------------------------------------ criterion 7

def test_criterion_07_directional_robustness(attack_grid):
    pairs = [(row["full"]["asr"], row["minus_cr"]["asr"])
             for row in attack_grid]
    holds = sum(1 for a, b in pairs if a <= b)
    detail = "; ".join(f"seed {row['seed']}: full {a:.2f} vs minus_cr {b:.2f}"
                       for row, (a, b) in zip(attack_grid, pairs))
    ok = holds >= 3
    report_line(7, "directional-robustness", ok,
                f"{detail}; inequality holds on {holds}/4 seeds (need >=3)")
    assert ok, (
        f"ASR(full) <= ASR(minus_cr) held on only {holds}/4 seeds: {detail}. "
        "The full detector's malicious graphs sit close to the proxy-cosine "
        "boundary: a few insertions joining background nodes to motif nodes "
        "tilt the mean-pooled embedding across it. That is what an unweighted "
        "proxy-contrast term gives at the 9:1 class ratio.")


def test_attack_grid_inserts_no_reverse_of_a_present_edge(attack_grid):
    """The detectors read the symmetrized edge set, so an edge whose reverse
    is present changes nothing for them and must not spend budget."""
    wasted = 0
    for row in attack_grid:
        for variant in ("full", "minus_cr"):
            for g, r in zip(row[variant]["population"],
                            row[variant]["results"]):
                present = set(g.edge_set())
                for s, t in r.edges_added:
                    wasted += (t, s) in present
                    present.add((s, t))
    assert wasted == 0, f"{wasted} inserted edges duplicate a present reverse"


# ------------------------------------------------------------------ criterion 8

def _edge_superset_holds(result):
    orig_edges = set(map(tuple, result.perturbed.edges[
        :result.original_edge_count]))
    pert_edges = set(map(tuple, result.perturbed.edges))
    return (orig_edges <= pert_edges
            and len(result.perturbed.edges)
            == result.original_edge_count + len(result.edges_added))


def test_criterion_08_attack_validity(desk, desk_run, attack_grid):
    params = desk_run[0]
    checked = 0
    valid = 0
    for row in attack_grid:
        for variant in ("full", "minus_cr"):
            for g, r in zip(row[variant]["population"],
                            row[variant]["results"]):
                checked += 1
                ge = set(g.edge_set())
                pe = set(r.perturbed.edge_set())
                same_features = np.array_equal(g.features,
                                               r.perturbed.features)
                if (ge <= pe and same_features
                        and r.perturbed.node_count == g.node_count
                        and len(pe) == len(ge) + len(r.edges_added)
                        and _edge_superset_holds(r)):
                    valid += 1

    surrogate, _ = AT.distill_surrogate(
        lambda g: M.predict(g, params)[0], desk["test"], "gnn2_mlp",
        epochs=10, hidden=16, rng_seed=0)
    acfg = AT.AttackConfig(max_iterations=10, ig_steps=5)
    pop = [g for g in desk["test"]
           if g.label == 1 and M.predict(g, params)[0] == 1]
    queries_ok = True
    max_seen = 0
    for g in pop:
        calls = [0]

        def label_fn(graph, _c=calls):
            _c[0] += 1
            return M.predict(graph, params)[0]

        r = AT.blackbox_attack(label_fn, surrogate, g, acfg)
        checked += 1
        if _edge_superset_holds(r) and np.array_equal(
                g.features, r.perturbed.features):
            valid += 1
        max_seen = max(max_seen, calls[0], r.queries)
        queries_ok = queries_ok and calls[0] <= 11 and r.queries <= 11

    ok = valid == checked and queries_ok
    report_line(8, "attack-validity", ok,
                f"{valid}/{checked} results satisfy superset+immutability, "
                f"max blackbox queries {max_seen} (cap 11)")
    assert ok


# ------------------------------------------------------------------ criterion 9

class LinearVictim:
    """Margin is a fixed linear functional of the adjacency matrix."""

    def __init__(self, w):
        self.w = w

    def label(self, graph):
        return 1

    def margin_grad_batched(self, x, a_batch, src, dst):
        margins = (a_batch * self.w).sum(axis=(1, 2))
        return margins, np.where(src == dst, 0.0, self.w[src, dst])


def test_criterion_09_ig_exact_on_linear_victim():
    rng = np.random.default_rng(9)
    n = 6
    graph = random_graph(rng, n, 4, edge_prob=0.25, label=1)
    w = rng.normal(size=(n, n))
    victim = LinearVictim(w)
    worst = 0.0
    for steps in (1, 5, 50):
        saliency = AT.edge_saliency_ig(victim, graph, steps)
        assert set(saliency) == set(AT.candidate_edges(graph))
        for (s, t), score in saliency.items():
            worst = max(worst, abs(score - w[s, t]))
    ok = worst <= 1e-10
    report_line(9, "ig-exactness", ok,
                f"ig_steps 1/5/50 vs analytic weights, worst err {worst:.2e}")
    assert ok


# ------------------------------------------------------------------ criterion 10

def test_criterion_10_cli_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "n_graphs=60\nbenign_node_min=6\nbenign_node_max=9\n"
        "motif_node_count=4\nmotif_feature_signature=110010\n"
        "malicious_fraction=0.2\nbackground_edge_prob=0.25\nrng_seed=7\n"
        "opcode_dim=4\npermission_dim=2\n")
    dataset = str(tmp_path / "data.jsonl")
    assert cli.main(["gen-data", str(gen_cfg), dataset]) == 0

    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "hidden=16\nmax_epochs=6\nearly_stop_patience=6\nbatch_size=16\n"
        "benign_parts=4\nmalicious_parts=1\n")
    hashes = []
    for run in ("a", "b"):
        out = str(tmp_path / f"run_{run}")
        assert cli.main(["train", dataset, str(train_cfg), out]) == 0
        hashes.append(cli._sha256(f"{out}/report.csv"))
    train_same = hashes[0] == hashes[1]

    atk_cfg = tmp_path / "atk.cfg"
    atk_cfg.write_text("max_iterations=4\nig_steps=4\n")
    ckpt = str(tmp_path / "run_a" / "checkpoint.json")
    ahashes = []
    for run in ("a", "b"):
        out = str(tmp_path / f"attack_{run}.csv")
        assert cli.main(["attack", ckpt, dataset, str(atk_cfg),
                         "--mode", "whitebox", "--out", out]) == 0
        ahashes.append(cli._sha256(out))
    attack_same = ahashes[0] == ahashes[1]

    ok = train_same and attack_same
    report_line(10, "cli-determinism", ok,
                f"train reports identical: {train_same}, "
                f"attack reports identical: {attack_same}")
    assert ok


# ------------------------------------------------------------------ criterion 11

def toy_graphs():
    graphs = []
    for i in range(8):
        label = i % 2
        rows = np.zeros((5, 6), dtype=int)
        rows[:, 3 * label:3 * label + 3] = 1
        edges = [(j, j + 1) for j in range(4)]
        graphs.append(FeatureGraph(node_count=5, edges=edges, features=rows,
                                   label=label, graph_id=f"t{i}"))
    return graphs


def test_criterion_11_minus_cr_executes_no_masking_or_decoding():
    graphs = toy_graphs()
    cfg = T.TrainConfig(hidden=8, max_epochs=3, early_stop_patience=3,
                        batch_size=4, rng_seed=0, variant="minus_cr")
    _, report = T.train(graphs, graphs, cfg)
    ok = report.counter_delta == {"mask_samples": 0, "decoder_passes": 0}
    report_line(11, "ablation-contract", ok,
                f"counter delta {report.counter_delta}")
    assert ok
