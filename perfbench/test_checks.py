"""Each output check passes the program's real output and rejects it corrupted.

    python3 -m pytest perfbench

Corruptions: a flipped label, a score or embedding off by 1e-6, an inserted
reverse edge, a dropped original edge, changed features, a wrong success
flag, a perturbed IG score, a wrong first pick, a wrong confusion count and
an over-cap query count.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import graphsentry.attacks as AT  # noqa: E402
import graphsentry.cli as cli  # noqa: E402
import graphsentry.model as M  # noqa: E402
from graphsentry.graphdata import (FeatureSchema, SyntheticConfig,  # noqa: E402
                                   generate_synthetic_dataset)

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def graphs():
    cfg = SyntheticConfig(
        n_graphs=30, benign_node_range=(6, 9), motif_node_count=3,
        motif_feature_signature=workloads.DESK_SIG, malicious_fraction=0.3,
        background_edge_prob=0.3, rng_seed=5, schema=FeatureSchema(8, 4))
    return generate_synthetic_dataset(cfg)


@pytest.fixture(scope="module")
def params():
    return M.init_params(12, hidden=8, layers=2, rng_seed=3)


@pytest.fixture(scope="module")
def headed():
    p = M.init_params(12, hidden=8, layers=2, rng_seed=4)
    M.init_head(p, 5)
    return p


def plain(graphs):
    return [workloads.plain(g) for g in graphs]


@pytest.mark.parametrize("which", ["params", "headed"])
def test_predictions_reject_flipped_label_and_score_offset(request, graphs, which):
    p = request.getfixturevalue(which)
    got = [M.predict(g, p) for g in graphs]
    labels = checks.check_predictions(p.named_arrays(), plain(graphs), got)
    assert labels == [label for label, _, _ in got]
    flipped = list(got)
    flipped[2] = (1 - got[2][0],) + got[2][1:]
    with pytest.raises(CheckFailed):
        checks.check_predictions(p.named_arrays(), plain(graphs), flipped)
    off = list(got)
    off[4] = (got[4][0], got[4][1] + 1e-6, got[4][2])
    with pytest.raises(CheckFailed):
        checks.check_predictions(p.named_arrays(), plain(graphs), off)


def test_counts_reject_wrong_labels():
    truth = [1, 1, 0, 0, 0, 1]
    checks.check_counts("t", (3, 0, 3, 0), truth, truth)
    with pytest.raises(CheckFailed):
        checks.check_counts("t", (3, 0, 3, 0), truth, [0] + truth[1:])


@pytest.fixture(scope="module")
def attacked(graphs, params):
    """A detected graph and a white-box result on it (the victim is made to
    call it malicious by swapping the proxies where needed)."""
    g = next(g for g in graphs if g.label == 1)
    p = params.copy()
    if M.predict(g, p)[0] != 1:
        p.proxy_benign, p.proxy_malicious = p.proxy_malicious, p.proxy_benign
    assert M.predict(g, p)[0] == 1
    res = AT.whitebox_attack(p, g, AT.AttackConfig(max_iterations=4, ig_steps=3))
    assert res.edges_added
    return g, p, res


def _perturbation(g, n, edges, x, added):
    checks.check_perturbation(g.node_count, g.edges, g.features, n, edges, x,
                              added, "t")


def test_perturbation_rejects_reverse_dropped_and_feature_changes(attacked):
    g, _, res = attacked
    p = res.perturbed
    _perturbation(g, p.node_count, p.edges, p.features, res.edges_added)
    s, t = g.edges[0]
    with pytest.raises(CheckFailed):  # inserted reverse edge
        _perturbation(g, p.node_count, p.edges + [(t, s)], p.features,
                      res.edges_added + [(t, s)])
    with pytest.raises(CheckFailed):  # dropped original edge
        _perturbation(g, p.node_count, p.edges[1:], p.features, res.edges_added)
    x = p.features.copy()
    x[0, 0] = 1.0 - x[0, 0]
    with pytest.raises(CheckFailed):
        _perturbation(g, p.node_count, p.edges, x, res.edges_added)


def test_outcome_rejects_wrong_success_flag(attacked):
    _, p, res = attacked
    q = res.perturbed
    checks.check_outcome(p.named_arrays(), q.node_count, q.edges, q.features,
                         res.success, "t")
    with pytest.raises(CheckFailed):
        checks.check_outcome(p.named_arrays(), q.node_count, q.edges, q.features,
                             not res.success, "t")


def test_ig_rejects_perturbed_score_and_wrong_first_pick(attacked):
    g, p, res = attacked
    got = AT.edge_saliency_ig(p, g, 3)
    want = oracle.ig_scores(p.named_arrays(), g.node_count, g.edges, g.features, 3)
    first = res.edges_added[0]
    checks.check_ig(got, want, first, "t")
    edge = next(iter(got))
    bumped = dict(got)
    bumped[edge] += 1e-4
    with pytest.raises(CheckFailed):
        checks.check_ig(bumped, want, first, "t")
    worst = min(want, key=want.get)
    if want[worst] < want[first] - 1e-6:
        with pytest.raises(CheckFailed):
            checks.check_ig(got, want, worst, "t")
    with pytest.raises(CheckFailed):
        checks.check_ig({k: v for k, v in got.items() if k != edge}, want, first, "t")


def test_relaxed_margin_at_binary_adjacency_is_the_predicted_margin(graphs, params):
    arrays = params.named_arrays()
    for g in graphs[:8]:
        _, s0, s1 = M.predict(g, params)
        a = oracle.adjacency(g.node_count, g.edges)[None]
        assert abs(oracle.relaxed_margin(arrays, g.features, a)[0] - (s0 - s1)) < 1e-12


def test_agreement_rejects_a_wrong_share(graphs, params):
    victim = params.copy()
    sur, agreement = AT.distill_surrogate(lambda g: M.predict(g, victim)[0], graphs,
                                          "gnn2_mlp", epochs=2, hidden=8)
    checks.check_agreement(victim.named_arrays(), sur.weights, plain(graphs), agreement)
    with pytest.raises(CheckFailed):
        checks.check_agreement(victim.named_arrays(), sur.weights, plain(graphs),
                               agreement - 1 / len(graphs))


def test_queries_reject_over_cap_or_miscount():
    checks.check_queries(6, 6, 5, "t")
    with pytest.raises(CheckFailed):
        checks.check_queries(7, 7, 5, "t")
    with pytest.raises(CheckFailed):
        checks.check_queries(5, 6, 5, "t")


@pytest.fixture(scope="module")
def scored(tmp_path_factory, params):
    """gen-data, eval and export-embeddings through the CLI on small graphs."""
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "gen.cfg"
    cfg.write_text(workloads.GEN_CONFIG.format(n=20, sig=workloads.DESK_SIG, seed=3)
                   .replace("= 100", "= 10").replace("= 200", "= 14"))
    ckpt = d / "ckpt.json"
    M.save_checkpoint(ckpt, params, meta={})
    data, metrics, emb = d / "data.jsonl", d / "metrics.csv", d / "emb.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-data", str(cfg), str(data)]) == 0
        assert cli.main(["eval", str(ckpt), str(data), "--out", str(metrics)]) == 0
        assert cli.main(["export-embeddings", str(ckpt), str(data), str(emb)]) == 0
    return {"records": oracle.read_dataset(data),
            "arrays": oracle.read_checkpoint(ckpt),
            "metrics": workloads._csv_rows(metrics),
            "emb": workloads._csv_rows(emb)}


def test_signature_labels_reject_flipped_label(scored):
    records = scored["records"]
    checks.check_signature_labels(records, workloads.DESK_SIG)
    bad = [dict(r) for r in records]
    bad[0]["label"] = 1 - bad[0]["label"]
    with pytest.raises(CheckFailed):
        checks.check_signature_labels(bad, workloads.DESK_SIG)


def test_metrics_csv_rejects_wrong_count(scored):
    records, arrays = scored["records"], scored["arrays"]
    truth = [r["label"] for r in records]
    pred = [oracle.predict(arrays, r["n"], r["edges"], r["x"])[0] for r in records]
    checks.check_metrics_csv(scored["metrics"], truth, pred)
    rows = [list(r) for r in scored["metrics"]]
    rows[1][6] = str(int(rows[1][6]) + 1)
    with pytest.raises(CheckFailed):
        checks.check_metrics_csv(rows, truth, pred)
    with pytest.raises(CheckFailed):  # a flipped prediction
        checks.check_metrics_csv(scored["metrics"], truth, [1 - pred[0]] + pred[1:])


def test_embedding_rows_reject_offset_and_flipped_label(scored):
    records, arrays = scored["records"], scored["arrays"]
    checks.check_embedding_rows(arrays, records, scored["emb"])
    rows = [list(r) for r in scored["emb"]]
    rows[3][4] = repr(float(rows[3][4]) + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_embedding_rows(arrays, records, rows)
    rows = [list(r) for r in scored["emb"]]
    rows[2][1] = str(1 - int(rows[2][1]))
    with pytest.raises(CheckFailed):
        checks.check_embedding_rows(arrays, records, rows)


def test_tracer_self_time_and_restore(graphs, params):
    import graphsentry.autodiff as ad
    import tracing
    tracer = tracing.Tracer()
    outer = tracer.wrap("outer", lambda f: f() + 1)
    inner = tracer.wrap("inner", lambda: 1)
    assert outer(inner) == 2
    spans = tracer.per_span()
    count, total, own = spans["outer"]
    assert count == 1 and abs(total - own - spans["inner"][1]) < 1e-12
    mods = {name: sys.modules[f"graphsentry.{name}"] for name in tracing.MODULES}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    tracer = tracing.Tracer()
    tracer.install(mods)
    assert M.predict is not before["model"]["predict"]
    M.predict(graphs[0], params)
    assert tracer.per_span()["model.predict"][0] == 1
    tracer.restore()
    for name, m in mods.items():
        assert {k: v for k, v in vars(m).items() if k in before[name]} == before[name]
    assert ad.Tape.__dict__["emit"].__name__ == "emit"


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json
    import tracing
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == ["setup_s", "peak_rss_mb"] + [
        f"stage{i}_{k}" for i in range(1, workloads.STAGES + 1) for k in ("s", "rate")]
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in tracing.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
