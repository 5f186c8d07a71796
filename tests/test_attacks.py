"""Attack harness tests.

The hand-derived batched adjacency gradient is validated three independent
ways: against central finite differences of the batched margin forward,
against the tape-based discrete forward at binary adjacency, and through a
fine trapezoid quadrature oracle for the path-integrated scores.
"""
import numpy as np
import pytest

import tape_reference as R
from graphsentry import attacks as AT
from graphsentry import autodiff as ad
from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import FeatureGraph

D = 6


def rand_graph(n, seed, label=1, p=0.3):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(n, D)).astype(float)
    edges = [(s, t) for s in range(n) for t in range(n)
             if s != t and rng.random() < p]
    return FeatureGraph(n, edges, feats, label, f"g{seed}")


def rand_params(seed, hidden=8, head=False, layers=2):
    p = M.init_params(D, hidden, layers, rng_seed=seed)
    # fresh inits are near the proxy tie; spread the proxies so margins are real
    rng = np.random.default_rng(seed + 99)
    p.proxy_benign = rng.normal(size=hidden)
    p.proxy_malicious = rng.normal(size=hidden)
    if head:
        M.init_head(p, seed + 1)
    return p


class LinearVictim:
    """Margin is a fixed linear functional of the adjacency matrix."""

    def __init__(self, w):
        self.w = w

    def label(self, graph):
        return 1

    def margin_grad_batched(self, features, a_batch, src, dst):
        f = (a_batch * self.w).sum(axis=(1, 2))
        return f, np.where(src == dst, 0.0, self.w[src, dst])


class EdgeBlindVictim:
    """Always says malicious; gradient carries no edge signal."""

    def label(self, graph):
        return 1

    def margin_grad_batched(self, features, a_batch, src, dst):
        return np.zeros(len(a_batch)), np.zeros(len(a_batch))


class ThresholdVictim:
    """Flips to benign exactly when edge (0,2) exists; saliency points there."""

    def label(self, graph):
        return 0 if (0, 2) in graph.edge_set() else 1

    def margin_grad_batched(self, features, a_batch, src, dst):
        return a_batch[:, 0, 2] * 5.0, np.where((src == 0) & (dst == 2), 5.0, 0.0)


class RowCounter:
    """Forwards to a victim and counts the batch rows it is asked for. It has
    no `symmetrizes` attribute, so it is scored like any duck-typed victim:
    one path per directed candidate."""

    def __init__(self, victim):
        self.victim = victim
        self.rows = 0

    def margin_grad_batched(self, features, a_batch, src, dst):
        self.rows += a_batch.shape[0]
        return self.victim.margin_grad_batched(features, a_batch, src, dst)


class SymmetricRowCounter(RowCounter):
    symmetrizes = True


def margin(victim, features, a_batch):
    """The relaxed margins of `a_batch`; the entry asked for, (0, 0), is no edge."""
    pick = np.zeros(len(a_batch), dtype=np.intp)
    return victim.margin_grad_batched(features, a_batch, pick, pick)[0]


# ---------------------------------------------------- relaxed forward correctness

@pytest.mark.bits
@pytest.mark.parametrize("head", [False, True])
def test_relaxed_margin_at_binary_adjacency_matches_predict(head):
    for seed in range(6):
        g = rand_graph(6, seed)
        params = rand_params(seed, head=head)
        victim = AT.DetectorVictim(params)
        f = margin(victim, g.features, M.adjacency(g)[None])
        _, s0, s1 = M.predict(g, params)
        assert f[0] == s0 - s1, seed


@pytest.mark.bits
@pytest.mark.parametrize("layers", [11, 12])
def test_relaxed_margin_matches_predict_at_any_depth(layers):
    """Sorted as strings, encoder.10 comes before encoder.2; predict must
    still run the layers in the order the attack differentiates."""
    g = rand_graph(6, 4)
    for head in (False, True):
        params = rand_params(layers, head=head, layers=layers)
        f = margin(AT.DetectorVictim(params), g.features, M.adjacency(g)[None])
        _, s0, s1 = M.predict(g, params)
        assert f[0] == s0 - s1, head


def test_surrogate_gnn_margin_matches_tape_forward():
    g = rand_graph(5, 3)
    sp = AT._init_surrogate("gnn2_mlp", D, 8, rng_seed=0)
    victim = AT.SurrogateVictim(sp)
    f = margin(victim, g.features, M.adjacency(g)[None])
    tape = ad.Tape()
    enc = [tape.constant(sp.weights["enc.0"]), tape.constant(sp.weights["enc.1"])]
    head = [tape.constant(sp.weights["head.0"]), tape.constant(sp.weights["head.1"])]
    p, _, sizes = M.batch_graphs([g])
    logits = R.head_logits(R.readout(R.layer_op(tape.constant(g.features), p, enc,
                                                False), sizes), head)
    assert f[0] == pytest.approx(float(logits.value[0, 0] - logits.value[0, 1]),
                                 abs=1e-12)


@pytest.mark.bits
@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_surrogate_label_is_the_sign_of_the_relaxed_margin(arch):
    """The forward-only label and margin agree with the relaxed pass at the
    graph's own 0/1 adjacency, on graphs with isolated nodes and without edges."""
    sp = AT._init_surrogate(arch, D, 8, rng_seed=3)
    flipped = AT.SurrogateParams(arch, {**sp.weights, "head.1": sp.weights["head.1"][:, ::-1]})
    graphs = [rand_graph(n, seed, p=0.12) for seed, n in enumerate([2, 3, 5, 8, 12] * 4)]
    graphs.append(FeatureGraph(6, [], rand_graph(6, 99).features, 1, "edgeless"))
    degrees = [M.adjacency(g).sum(axis=0) + M.adjacency(g).sum(axis=1) for g in graphs[:-1]]
    assert any(np.any(deg == 0) for deg in degrees)
    labels = set()
    for victim in (AT.SurrogateVictim(sp), AT.SurrogateVictim(flipped)):
        for g in graphs:
            f = margin(victim, g.features, M.adjacency(g)[None])
            emb = (M.graph_embedding(g, victim.encoder) if arch == "gnn2_mlp"
                   else AT._degree_summary(g.features, M.adjacency(g)[None])[0])
            _, (s0,), (s1,) = M.classify_rows(victim.head, emb[None], [g.graph_id])
            assert victim.label(g) == (1 if f[0] <= 0 else 0), g.graph_id
            assert s0 - s1 == f[0], g.graph_id
            labels.add(victim.label(g))
    assert labels == {0, 1}


@pytest.mark.parametrize("head", [False, True])
def test_detector_label_is_the_predicted_label(head):
    labels = set()
    for seed in range(6):
        g = rand_graph(6, seed)
        params = rand_params(seed, head=head)
        flipped = params.copy()
        if head:
            flipped.head_weights[1] = flipped.head_weights[1][:, ::-1].copy()
        else:
            flipped.proxy_benign, flipped.proxy_malicious = (params.proxy_malicious,
                                                             params.proxy_benign)
        for p in (params, flipped):
            label = AT.DetectorVictim(p).label(g)
            assert label == M.predict(g, p)[0], seed
            labels.add(label)
    assert labels == {0, 1}


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_surrogate_label_rejects_overflowing_weights(arch):
    """As predict does: a surrogate whose scores overflow has no label."""
    sp = AT._init_surrogate(arch, D, 8, rng_seed=3)
    huge = AT.SurrogateParams(arch, {k: w * 1e200 for k, w in sp.weights.items()})
    g = rand_graph(6, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.NonFiniteError, match="graph g5"):
            AT.SurrogateVictim(huge).label(g)


VICTIM_KINDS = ("proxy", "head", "gnn2_mlp", "degree_mlp")


def make_victim(case, seed, layers=2):
    if case in ("proxy", "head"):
        return AT.DetectorVictim(rand_params(seed, head=case == "head", layers=layers))
    arch = "gnn2_mlp" if case == "gnn2_mlp" else "mlp_on_degree_features"
    return AT.SurrogateVictim(AT._init_surrogate(arch, D, 8, seed))


def fd_entry_grad(victim, features, a_batch, src, dst, step=1e-6):
    """Central differences of the batched margin forward in entry
    (src_b, dst_b) of each row; 0 on the diagonal, which is no edge."""
    b = np.arange(len(a_batch))
    up, down = a_batch.copy(), a_batch.copy()
    up[b, src, dst] += step
    down[b, src, dst] -= step
    fd = (margin(victim, features, up) - margin(victim, features, down)) / (2 * step)
    return np.where(src == dst, 0.0, fd)


def all_pairs(n):
    return [np.array(v) for v in zip(*[(s, t) for s in range(n) for t in range(n)])]


@pytest.mark.parametrize("case, layers", [pytest.param(case, 2, id=case) for case in VICTIM_KINDS]
                         + [(case, layers) for case in ("proxy", "head") for layers in (1, 3, 4)])
def test_batched_adjacency_gradient_matches_finite_differences(case, layers):
    """At depth 1 `model.gnn_backward` walks no layer past the first's
    ReLU; at depths 3 and 4 it walks several."""
    g = rand_graph(5, 11)
    victim = make_victim(case, 7 if case in ("proxy", "head") else 5, layers)
    # fractional interior point: all entries strictly inside (0,1)
    rng = np.random.default_rng(13)
    a = rng.uniform(0.1, 0.9, size=(5, 5))
    np.fill_diagonal(a, 0.0)
    src, dst = all_pairs(5)  # one row per entry, each at the same a
    a_batch = np.tile(a, (len(src), 1, 1))
    _, d = victim.margin_grad_batched(g.features, a_batch, src, dst)
    np.testing.assert_allclose(d, fd_entry_grad(victim, g.features, a_batch, src, dst),
                               rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("case", VICTIM_KINDS)
def test_entry_gradient_matches_finite_differences_where_ig_looks(case):
    """IG's points: a 0/1 base, here with an isolated node, and one missing
    entry set to k/m, the isolated node's own entries among them."""
    steps, n, isolated = 4, 7, 6
    full = rand_graph(n, 12, p=0.35)
    g = FeatureGraph(n, [e for e in full.edges if isolated not in e],
                     full.features, 1, "iso")
    base = M.adjacency(g)
    src, dst = all_pairs(n)
    missing = (base[src, dst] == 0) & (src != dst)
    src, dst = np.repeat(src[missing], steps), np.repeat(dst[missing], steps)
    alpha = np.tile(np.arange(1, steps + 1) / steps, missing.sum())
    a_batch = np.tile(base, (len(src), 1, 1))
    a_batch[np.arange(len(src)), src, dst] = alpha
    assert np.any(src == isolated) and not base[isolated].any()
    assert not base[:, isolated].any()
    victim = make_victim(case, 8)
    _, d = victim.margin_grad_batched(g.features, a_batch, src, dst)
    np.testing.assert_allclose(d, fd_entry_grad(victim, g.features, a_batch, src, dst),
                               rtol=1e-5, atol=1e-8)
    assert np.any(np.abs(d) > 1e-6)
    # a row whose entry is on the diagonal gets 0
    loops = np.arange(n)
    _, d = victim.margin_grad_batched(g.features, np.tile(base, (n, 1, 1)),
                                      loops, loops)
    assert np.array_equal(d, np.zeros(n))


def test_gradient_batch_rows_are_independent():
    g = rand_graph(5, 2)
    victim = AT.DetectorVictim(rand_params(3))
    rng = np.random.default_rng(4)
    batch = rng.uniform(0.0, 1.0, size=(4, 5, 5))
    for b in range(4):
        np.fill_diagonal(batch[b], 0.0)
    src, dst = np.array([0, 1, 4, 2]), np.array([3, 0, 2, 2])
    f_all, d_all = victim.margin_grad_batched(g.features, batch, src, dst)
    for b in range(4):
        f1, d1 = victim.margin_grad_batched(g.features, batch[b:b + 1],
                                            src[b:b + 1], dst[b:b + 1])
        assert f_all[b] == pytest.approx(f1[0], abs=1e-12)
        assert d_all[b] == pytest.approx(d1[0], abs=1e-12)


def random_rows(n, count, seed):
    """`count` fractional adjacencies of n nodes and an entry of each."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(count, n, n))
    a[:, np.arange(n), np.arange(n)] = 0.0
    return a, rng.integers(0, n, size=count), rng.integers(0, n, size=count)


@pytest.mark.parametrize("case", VICTIM_KINDS)
def test_victim_buffers_do_not_show_in_results(case):
    """A victim reuses its arrays across calls: one that has scored a graph
    of another size, and more rows of this one, gives the bits of a fresh
    victim, and a later call leaves the results of an earlier one alone."""
    small, big = rand_graph(5, 14), rand_graph(9, 15)
    a, src, dst = random_rows(9, 20, 16)
    want = make_victim(case, 17).margin_grad_batched(big.features, a, src, dst)
    used = make_victim(case, 17)
    used.margin_grad_batched(small.features, *random_rows(5, 30, 18))
    used.margin_grad_batched(big.features, *random_rows(9, 50, 19))
    got = used.margin_grad_batched(big.features, a, src, dst)
    kept = [arr.copy() for arr in got]
    for w, arr in zip(want, got):
        assert np.array_equal(w, arr)
    used.margin_grad_batched(big.features, *random_rows(9, 20, 20))
    for k, arr in zip(kept, got):
        assert np.array_equal(k, arr)


# ---------------------------------------------------- saliency

def test_ig_is_exact_on_linear_victims():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 4))
    np.fill_diagonal(w, 0.0)
    g = rand_graph(4, 1)
    victim = LinearVictim(w)
    previous = None
    for steps in (1, 5, 50):
        scores = AT.edge_saliency_ig(victim, g, steps)
        for (s, t), val in scores.items():
            assert val == pytest.approx(w[s, t], abs=1e-10)
        if previous is not None:
            assert scores == previous or all(
                scores[e] == pytest.approx(previous[e], abs=1e-12) for e in scores)
        previous = scores


def test_ig_matches_fine_trapezoid_quadrature():
    g = rand_graph(8, 21, p=0.25)
    victim = AT.DetectorVictim(rand_params(22))
    scores = AT.edge_saliency_ig(victim, g, ig_steps=200)
    base = M.adjacency(g)
    # check the 4 strongest candidates against an fd-gradient trapezoid integral
    top = sorted(scores, key=lambda e: -abs(scores[e]))[:4]
    alphas = np.linspace(0.0, 1.0, 2001)
    h = 1e-6
    for s, t in top:
        batch = np.tile(base, (2 * len(alphas), 1, 1))
        for j, alpha in enumerate(alphas):
            batch[2 * j, s, t] = alpha + h
            batch[2 * j + 1, s, t] = alpha - h
        f = margin(victim, g.features, batch)
        grads = (f[0::2] - f[1::2]) / (2 * h)
        oracle = np.trapezoid(grads, alphas)
        assert scores[(s, t)] == pytest.approx(oracle, rel=0.01), (s, t)


def test_saliency_rejects_complete_graphs():
    edges = [(s, t) for s in range(3) for t in range(3) if s != t]
    g = FeatureGraph(3, edges, np.ones((3, D)), 1, "full")
    with pytest.raises(AT.NoCandidateEdges):
        AT.edge_saliency_ig(AT.DetectorVictim(rand_params(0)), g, 2)


def test_saliency_chunking_does_not_change_scores(monkeypatch):
    """Every op of the relaxed pass, the score heads' too, is per row, so any
    chunk size gives the same score bits, for every victim kind, also from a
    victim whose arrays hold another graph's pass."""
    g = rand_graph(12, 8, p=0.2)

    def victims():
        return {
            "proxy": AT.DetectorVictim(rand_params(9)),
            "head": AT.DetectorVictim(rand_params(9, head=True)),
            "gnn2_mlp": AT.SurrogateVictim(AT._init_surrogate("gnn2_mlp", D, 8, 3)),
            "degree_mlp": AT.SurrogateVictim(
                AT._init_surrogate("mlp_on_degree_features", D, 8, 3)),
        }
    default = AT.CHUNK_ROWS
    pairs = {frozenset(e) for e in AT.candidate_edges(g, symmetric=True)}
    assert len(pairs) * 4 > 2 * default  # the default size makes several chunks
    other = rand_graph(12, 10, p=0.1)  # more candidates, so larger arrays
    assert len(AT.candidate_edges(other, symmetric=True)) > 2 * len(pairs)
    used = victims()
    monkeypatch.setattr(AT, "CHUNK_ROWS", 10**6)
    for victim in used.values():
        AT.edge_saliency_ig(victim, other, 4)
    monkeypatch.setattr(AT, "CHUNK_ROWS", default)
    for name, victim in victims().items():
        want = AT.edge_saliency_ig(victim, g, 4)
        for rows in (1, 7, default, 10**6):
            monkeypatch.setattr(AT, "CHUNK_ROWS", rows)
            assert AT.edge_saliency_ig(used[name], g, 4) == want, (name, rows)
        monkeypatch.setattr(AT, "CHUNK_ROWS", default)


def test_chunking_does_not_change_whitebox_insertions(monkeypatch):
    g = rand_graph(10, 41, p=0.2)
    victim = AT.DetectorVictim(rand_params(42))
    victim.label = lambda graph: 1  # never evaded, so every iteration runs
    config = AT.AttackConfig(max_iterations=5, ig_steps=4)
    added = {}
    for rows in (1, 10**6):
        monkeypatch.setattr(AT, "CHUNK_ROWS", rows)
        added[rows] = AT.whitebox_attack(victim, g, config).edges_added
    assert len(added[1]) == 5
    assert added[1] == added[10**6]


@pytest.mark.parametrize("case", ["detector", "gnn2_mlp"])
def test_pair_scores_equal_directed_scores_bit_for_bit(case):
    g = rand_graph(7, 31, p=0.3)
    victim = (AT.DetectorVictim(rand_params(32)) if case == "detector"
              else AT.SurrogateVictim(AT._init_surrogate("gnn2_mlp", D, 8, 3)))
    paired = AT.edge_saliency_ig(victim, g, 3)
    directed = AT.edge_saliency_ig(RowCounter(victim), g, 3)
    assert list(paired) == AT.candidate_edges(g, symmetric=True)
    assert paired == {e: directed[e] for e in paired}


def test_symmetrizing_victim_gets_one_row_per_pair_per_step():
    g = rand_graph(7, 33, p=0.3)
    counter = SymmetricRowCounter(AT.DetectorVictim(rand_params(34)))
    scores = AT.edge_saliency_ig(counter, g, 5)
    pairs = {frozenset(e) for e in scores}
    assert len(scores) == 2 * len(pairs)  # both directions of every pair
    assert counter.rows == len(pairs) * 5


def test_duck_typed_victim_gets_every_directed_row():
    g = rand_graph(7, 33, p=0.3)
    counter = RowCounter(AT.DetectorVictim(rand_params(34)))
    scores = AT.edge_saliency_ig(counter, g, 5)
    assert list(scores) == AT.candidate_edges(g)
    assert counter.rows == len(scores) * 5


# ---------------------------------------------------- whitebox loop

def cfg(**kw):
    base = dict(max_iterations=6, ig_steps=2, edges_per_iteration=1, rng_seed=0)
    base.update(kw)
    return AT.AttackConfig(**base)


def test_whitebox_requires_detected_malicious():
    g = rand_graph(4, 5)
    with pytest.raises(ValueError, match="not detected"):
        AT.whitebox_attack(ThresholdVictim(), AT._add_edges(g, [(0, 2)])
                           if (0, 2) not in g.edge_set() else g, cfg())


def test_edge_blind_victim_cannot_be_attacked():
    g = rand_graph(5, 6, p=0.2)
    res = AT.whitebox_attack(EdgeBlindVictim(), g, cfg(max_iterations=6))
    assert not res.success
    assert res.iterations_used == 6
    assert len(res.edges_added) == 6
    assert res.perturbed.edge_set() == g.edge_set() | set(res.edges_added)


def test_threshold_victim_falls_in_one_iteration():
    g = FeatureGraph(3, [(1, 0)], np.ones((3, D)), 1, "t")
    res = AT.whitebox_attack(ThresholdVictim(), g, cfg())
    assert res.success
    assert res.iterations_used == 1
    assert res.edges_added == [(0, 2)]
    assert res.queries == 2


def test_zero_saliency_tie_breaks_lexicographically():
    g = FeatureGraph(3, [(2, 1)], np.ones((3, D)), 1, "t")
    res = AT.whitebox_attack(EdgeBlindVictim(), g, cfg(max_iterations=2))
    assert res.edges_added == [(0, 1), (0, 2)]  # smallest missing pairs in order


def test_near_tied_scores_pick_the_smallest_edge():
    best = 0.25
    scores = {(3, 1): best, (0, 4): best * (1 - 0.5e-9), (0, 2): best * (1 - 2e-9),
              (1, 0): -1.0, (2, 0): best * (1 - 0.9e-9)}
    # (0, 4) and (2, 0) are within the window of the best, (0, 2) is not
    assert AT.pick_edges(scores, 1) == [(0, 4)]
    assert AT.pick_edges(scores, 4) == [(0, 4), (2, 0), (3, 1), (0, 2)]
    assert AT.pick_edges(scores, 10) == [(0, 4), (2, 0), (3, 1), (0, 2), (1, 0)]
    # a best of exactly 0 ties only with scores within TIE_FLOOR's window
    assert AT.pick_edges({(1, 2): 0.0, (0, 1): -1e-22, (0, 2): -1e-3}, 2) == [
        (0, 1), (1, 2)]
    # so do scores that are all rounding noise about 0, as a surrogate can
    # give every candidate of an edgeless graph: the noise picks nothing
    assert AT.pick_edges({(0, 2): 2e-16, (0, 1): 1e-16, (1, 2): -2e-16}, 3) == [
        (0, 1), (0, 2), (1, 2)]


def ulp_noise(scores, rng, ulps=4):
    return {e: s + float(rng.integers(-ulps, ulps + 1)) * float(np.spacing(s))
            for e, s in scores.items()}


def test_pick_ignores_a_few_ulps_of_noise():
    """Scores moved by up to 4 ulps, as a change of float order moves them,
    give the same picks, for one edge per iteration and for several."""
    rng = np.random.default_rng(5)
    cases = []
    for seed in range(12):
        g = rand_graph(7, 200 + seed, p=0.25)
        if seed % 3 == 0:  # identical feature rows give exactly tied candidates
            feats = g.features.copy()
            feats[4:] = feats[3]
            g = FeatureGraph(g.node_count, g.edges, feats, g.label, g.graph_id)
        cases.append(AT.edge_saliency_ig(rand_params(300 + seed), g, 3))
    keys = [(s, t) for s in range(6) for t in range(6) if s != t]
    cases.append(dict(zip(keys, np.repeat(rng.normal(size=10), 3).tolist())))
    ties = 0
    for scores in cases:
        ties += len(scores) - len(set(scores.values()))
        for count in (1, 3):
            want = AT.pick_edges(scores, count)
            for _ in range(20):
                assert AT.pick_edges(ulp_noise(scores, rng), count) == want
    assert ties > 0  # the cases hold exact ties, which noise would otherwise break


def test_attack_preserves_original_graph_exactly():
    for seed in range(5):
        g = rand_graph(6, 30 + seed, p=0.25)
        params = rand_params(40 + seed)
        if M.predict(g, params)[0] != 1:
            continue
        res = AT.whitebox_attack(params, g, cfg(max_iterations=4))
        assert res.perturbed.edge_set() >= g.edge_set()
        assert res.perturbed.features is g.features  # never copied or touched
        assert res.perturbed.node_count == g.node_count
        assert sorted(res.edges_added) == sorted(res.perturbed.edge_set() - g.edge_set())
        assert res.original_edge_count == len(g.edges)
        assert len(res.perturbed.edges) == len(g.edges) + len(res.edges_added)


def test_budget_prefix_property():
    g = rand_graph(6, 77, p=0.2)
    victim = EdgeBlindVictim()
    short = AT.whitebox_attack(victim, g, cfg(max_iterations=3))
    long = AT.whitebox_attack(victim, g, cfg(max_iterations=6))
    assert long.edges_added[:3] == short.edges_added


def test_attack_stops_when_candidates_run_out():
    g = FeatureGraph(2, [(0, 1)], np.ones((2, D)), 1, "tiny")
    res = AT.whitebox_attack(EdgeBlindVictim(), g, cfg(max_iterations=10))
    assert not res.success
    assert res.iterations_used == 1  # added (1,0); graph complete afterwards
    assert res.edges_added == [(1, 0)]


class StubbornDetector(AT.DetectorVictim):
    """A real detector's saliency whose label never flips, so the attack runs
    until it has nothing left to insert."""

    def label(self, graph):
        return 1


def reverse_insertions(graph, edges_added):
    """Inserted edges whose reverse was present when they were added."""
    present = set(graph.edge_set())
    hits = []
    for s, t in edges_added:
        if (t, s) in present:
            hits.append((s, t))
        present.add((s, t))
    return hits


def test_symmetrizing_victims_are_offered_no_reverse_edges():
    g = rand_graph(6, 90, p=0.3)
    existing = g.edge_set()
    assert any((t, s) not in existing for s, t in existing)  # one-way edges exist
    sym = AT.candidate_edges(g, symmetric=True)
    assert sym == [e for e in AT.candidate_edges(g) if e[::-1] not in existing]
    for victim in (AT.DetectorVictim(rand_params(91)),
                   AT.SurrogateVictim(AT._init_surrogate("gnn2_mlp", D, 8, 0))):
        assert set(AT.edge_saliency_ig(victim, g, 2)) == set(sym)


def test_detector_attack_never_inserts_reverse_of_present_edge():
    g = rand_graph(6, 90, p=0.3)
    n = g.node_count
    missing_pairs = {frozenset((s, t)) for s in range(n) for t in range(n)
                     if s != t} - {frozenset(e) for e in g.edges}
    res = AT.whitebox_attack(StubbornDetector(rand_params(91)), g,
                             cfg(max_iterations=100))
    assert reverse_insertions(g, res.edges_added) == []
    # each unordered pair is joined once, then the candidates run out
    assert {frozenset(e) for e in res.edges_added} == missing_pairs
    assert res.iterations_used == len(missing_pairs)

    blind = AT.whitebox_attack(EdgeBlindVictim(), g, cfg(max_iterations=100))
    assert reverse_insertions(g, blind.edges_added) != []


def test_attack_config_validation():
    for bad in (dict(max_iterations=0), dict(ig_steps=0),
                dict(edges_per_iteration=0)):
        with pytest.raises(ValueError):
            cfg(**bad).validate()


# ---------------------------------------------------- blackbox loop

def test_perfect_surrogate_reproduces_whitebox():
    for seed in range(8):
        g = rand_graph(5, 50 + seed, p=0.2)
        params = rand_params(60 + seed)
        victim = AT.DetectorVictim(params)
        if victim.label(g) != 1:
            continue
        white = AT.whitebox_attack(params, g, cfg(max_iterations=3))
        black = AT.blackbox_attack(victim.label, params, g, cfg(max_iterations=3))
        assert black.edges_added == white.edges_added
        assert black.success == white.success
        assert black.iterations_used == white.iterations_used


def test_blackbox_query_budget():
    g = rand_graph(5, 70, p=0.2)
    calls = {"n": 0}

    def counting_victim(graph):
        calls["n"] += 1
        return 1  # never flips

    surrogate = AT.DetectorVictim(rand_params(71))
    res = AT.blackbox_attack(counting_victim, surrogate, g, cfg(max_iterations=4))
    assert not res.success
    assert res.queries == calls["n"] == 5  # precondition + one per iteration
    assert res.queries <= 4 + 1


def test_blackbox_edge_blind_victim_never_flips():
    g = rand_graph(5, 72, p=0.2)
    surrogate = AT.DetectorVictim(rand_params(73))  # edge-sensitive saliency
    res = AT.blackbox_attack(lambda graph: 1, surrogate, g, cfg(max_iterations=3))
    assert not res.success and res.iterations_used == 3


# ---------------------------------------------------- distillation

def toy_set(n_per_class, seed=0):
    gs = []
    rng = np.random.default_rng(seed)
    for i in range(n_per_class * 2):
        label = i % 2
        n = int(rng.integers(4, 7))
        feats = np.zeros((n, D))
        feats[:, 0 if label == 0 else D - 1] = 1.0
        feats[:, int(rng.integers(1, D - 1))] = 1.0
        edges = [(j, j + 1) for j in range(n - 1)]
        gs.append(FeatureGraph(n, edges, feats, label, f"s{i}"))
    return gs


def test_distill_constant_victim_reaches_full_agreement():
    graphs = toy_set(6)
    sp, agree = AT.distill_surrogate(lambda g: 0, graphs, "gnn2_mlp",
                                     epochs=40, hidden=8)
    assert agree == 1.0


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_distill_tracks_a_real_detector(arch):
    graphs = toy_set(10, seed=1)
    params, _ = T.train(graphs, graphs, T.TrainConfig(
        gamma=0.5, learning_rate=0.01, hidden=8, max_epochs=30,
        early_stop_patience=30, batch_size=8, rng_seed=0, variant="full"))
    victim = AT.DetectorVictim(params)
    sp, agree = AT.distill_surrogate(victim.label, graphs, arch,
                                     epochs=120, hidden=16)
    assert agree >= 0.90, (arch, agree)


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_distill_full_batch_epoch_is_one_adam_step_on_the_mean_gradient(arch):
    graphs = toy_set(3)
    sp, _ = AT.distill_surrogate(lambda g: g.label, graphs, arch, epochs=1,
                                 hidden=8, learning_rate=0.05,
                                 batch_size=len(graphs), rng_seed=4)
    want = AT._init_surrogate(arch, D, 8, rng_seed=4)
    order = np.random.default_rng(4).permutation(len(graphs))  # the loop's order
    _, grads = AT.surrogate_batch_grads(
        want, [(graphs[i], graphs[i].label) for i in order])
    T.Adam(want.weights, 0.05).step(
        want.weights, {k: g * (1.0 / len(graphs)) for k, g in grads.items()})
    assert sp.weights.keys() == want.weights.keys()
    for name, arr in want.weights.items():
        assert np.array_equal(sp.weights[name], arr), name


def test_surrogate_gradient_shapes():
    g = rand_graph(5, 80)
    for arch in AT.ARCHITECTURES:
        sp = AT._init_surrogate(arch, D, 8, 0)
        f, d = AT.SurrogateVictim(sp).margin_grad_batched(
            g.features, np.tile(M.adjacency(g), (3, 1, 1)), np.arange(3),
            np.ones(3, dtype=int))
        assert f.shape == (3,) and d.shape == (3,)


def test_distill_rejects_bad_labels_and_empty_input():
    with pytest.raises(ValueError):
        AT.distill_surrogate(lambda g: 0, [], "gnn2_mlp", 5)
    with pytest.raises(ValueError, match="label"):
        AT.distill_surrogate(lambda g: 2, toy_set(2), "gnn2_mlp", 5)


@pytest.mark.parametrize("name, value", [("hidden", 0), ("batch_size", 0),
                                         ("learning_rate", -0.01),
                                         ("learning_rate", float("nan")),
                                         ("learning_rate", float("inf"))])
def test_distill_rejects_bad_arguments(name, value):
    """A zero width or batch size, and a learning rate that is not finite
    and positive, are named before the victim is asked for a label; they
    used to end in a ZeroDivisionError, a range() error, an uphill run or
    a NonFiniteError blaming a graph."""
    def victim(g):
        raise AssertionError("the victim was queried")
    with pytest.raises(ValueError, match=f"^{name} must be"):
        AT.distill_surrogate(victim, toy_set(2), "gnn2_mlp", 5, **{name: value})


# ---------------------------------------------------- metrics

def fake_result(success, added, original_edges, gid="r"):
    g = FeatureGraph(3, [(0, 1)], np.ones((3, D)), 1, gid)
    return AT.AttackResult(gid, g, success, 1, [(1, 2)] * added, original_edges, 2)


def test_asr_apr_worked_examples():
    results = [fake_result(True, 2, 20), fake_result(True, 1, 10),
               fake_result(False, 6, 30), fake_result(False, 6, 8)]
    summary = AT.compute_asr_apr(results)
    assert summary.asr == 0.5
    assert summary.apr == pytest.approx(0.10, abs=1e-12)
    assert summary.apr_defined
    assert (summary.attempted, summary.succeeded) == (4, 2)
    assert summary.edgeless_successes == 0


def test_asr_apr_counts_edgeless_successes_apart():
    """A success on an edgeless original has no perturbation ratio."""
    summary = AT.compute_asr_apr([fake_result(True, 2, 20), fake_result(True, 3, 0),
                                  fake_result(False, 5, 0)])
    assert summary.asr == pytest.approx(2 / 3, abs=1e-12)
    assert summary.apr == pytest.approx(0.10, abs=1e-12) and summary.apr_defined
    assert (summary.succeeded, summary.edgeless_successes) == (2, 1)
    summary = AT.compute_asr_apr([fake_result(True, 3, 0)])
    assert (summary.asr, summary.apr, summary.apr_defined) == (1.0, 0.0, False)
    assert summary.edgeless_successes == 1


def test_asr_apr_zero_successes_flagged():
    summary = AT.compute_asr_apr([fake_result(False, 3, 10)])
    assert summary.asr == 0.0
    assert summary.apr == 0.0
    assert not summary.apr_defined


def test_asr_apr_rejects_empty():
    with pytest.raises(ValueError):
        AT.compute_asr_apr([])
