"""The stacked inference forward: graphs of one node count run as one stack.

`model.graph_embeddings` must give every graph the bits it gets alone, in
any population; labels, evaluation and overflow errors must be those of the
per-graph predict path. The population mixes a 1-node graph, an edgeless
graph, isolated nodes and one node count with more graphs than a stack
holds, in shuffled order.
"""
import os

import numpy as np
import pytest

from graphsentry import attacks as AT
from graphsentry import autodiff as ad
from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import (FeatureGraph, FeatureSchema, SyntheticConfig,
                                   generate_synthetic_dataset)

D = 6
SPLIT = 60  # a node count whose graphs span two stacks
VICTIM = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "victim_full_seed0.json")


def rand_graph(n, seed, p=0.2, label=None):
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, 2, size=(n, D)).astype(float)
    edges = [(s, t) for s in range(n) for t in range(n) if s != t and rng.random() < p]
    if label is None:
        label = int(rng.integers(0, 2))
    return FeatureGraph(n, edges, feats, label, f"g{seed}")


def population():
    per_stack = M.STACK_ENTRIES // SPLIT**2
    graphs = [FeatureGraph(1, [], np.ones((1, D)), 1, "one-node"),
              FeatureGraph(7, [], rand_graph(7, 1).features, 0, "edgeless")]
    graphs += [rand_graph(n, 10 + i) for i, n in enumerate([2, 3, 5, 5, 8, 8, 8, 12, 19])]
    graphs += [rand_graph(SPLIT, 100 + i, p=0.05) for i in range(per_stack + 2)]
    order = np.random.default_rng(0).permutation(len(graphs))
    return [graphs[i] for i in order]


def desk_graphs():
    """The acceptance suite's desk data: 1,000 graphs of 8-19 nodes."""
    return generate_synthetic_dataset(SyntheticConfig(
        n_graphs=1000, benign_node_range=(8, 14), motif_node_count=5,
        motif_feature_signature="110010101010", malicious_fraction=0.1,
        background_edge_prob=0.15, rng_seed=42, schema=FeatureSchema(8, 4)))


def relaxed_terms(graphs, m):
    """(P, deg) of `relaxed_propagation` on the graphs' 0/1 adjacencies,
    each zero-padded to m nodes."""
    a = np.zeros((len(graphs), m, m))
    for b, g in enumerate(graphs):
        a[b, :g.node_count, :g.node_count] = M.adjacency(g)
    _, deg, _, _, p, _ = M.relaxed_propagation(a)
    return p, deg


def detector(head, seed=0, hidden=8, layers=2):
    """A random encoder whose scores split the population: the proxies are
    its two embeddings of least cosine, or the head scores the projections
    on their directions."""
    p = M.init_params(D, hidden, layers, rng_seed=seed)
    emb = M.graph_embeddings(population(), p.encoder_weights)
    unit = emb / np.maximum(np.linalg.norm(emb, axis=1), 1e-12)[:, None]
    i, j = np.unravel_index(np.argmin(unit @ unit.T), (len(emb), len(emb)))
    p.proxy_benign, p.proxy_malicious = emb[i].copy(), emb[j].copy()
    if head:
        w0 = np.zeros((hidden, hidden))
        w0[:, 0], w0[:, 1] = unit[i], unit[j]
        w1 = np.zeros((hidden, 2))
        w1[0, 0] = w1[1, 1] = 1.0
        p.head_weights = [w0, w1]
    return p


def alone(graph, weights):
    """A lone graph's embedding in the order of operations of the 2-D forward."""
    hs, _ = M.gnn_layers(M.propagation_terms(graph), graph.features, weights)
    return hs[-1].sum(axis=0) / graph.node_count


def test_population_has_a_node_count_in_two_stacks():
    graphs = population()
    stacks = [[graphs[i].node_count for i in idx] for idx, _, _, _ in M.graph_stacks(graphs)]
    assert sum(1 for s in stacks if s[0] == SPLIT) == 2
    assert all(len(set(s)) == 1 and len(s) * s[0] ** 2 <= M.STACK_ENTRIES
               for s in stacks if len(s) > 1)
    covered = [i for idx, _, _, _ in M.graph_stacks(graphs) for i in idx]
    assert sorted(covered) == list(range(len(graphs)))


@pytest.mark.parametrize("data", ["desk", "population"])
def test_stacks_are_the_bits_of_relaxed_propagation(data):
    """Each stack's P and deg from the edge arrays are relaxed_propagation's
    bits on its 0/1 adjacencies. Besides the population, the cases include
    graphs of 182 and 190 nodes, which run alone, and a graph of reciprocal
    pairs; a padded minibatch gets the bits of its padded stack."""
    if data == "desk":
        graphs = desk_graphs()
    else:
        pairs = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        graphs = population() + [rand_graph(182, 50, p=0.02), rand_graph(190, 51, p=0.02),
                                 FeatureGraph(5, pairs, np.ones((5, D)), 0, "reciprocal")]
    sizes, isolated, reciprocal = set(), 0, 0
    for idx, p, deg, x in M.graph_stacks(graphs):
        members = [graphs[i] for i in idx]
        want_p, want_deg = relaxed_terms(members, p.shape[1])
        assert p.tobytes() == want_p.tobytes() and deg.tobytes() == want_deg.tobytes()
        assert x.tobytes() == np.stack([g.features for g in members]).tobytes()
        assert len(idx) == 1 or p.shape[1] < 182
        sizes.add(p.shape[1])
        isolated += int(np.count_nonzero(deg == 0))
        reciprocal += sum(len(g.edge_set() & {(t, s) for s, t in g.edge_set()})
                          for g in members)
    assert isolated and reciprocal
    assert (min(sizes), max(sizes)) == ((8, 19) if data == "desk" else (1, 190))
    for start in range(0, len(graphs), 32):
        batch = graphs[start:start + 32]
        m = max(g.node_count for g in batch)
        want_p, want_deg = relaxed_terms(batch, m)
        p, deg = M.edge_propagation(batch, m)
        assert p.tobytes() == want_p.tobytes() and deg.tobytes() == want_deg.tobytes()
        assert M.batch_graphs(batch).propagation.tobytes() == want_p.tobytes()


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_embeddings_are_the_bits_of_each_graph_alone(layers):
    graphs = population()
    weights = detector(False, seed=layers, layers=layers).encoder_weights
    stacked = M.graph_embeddings(graphs, weights)
    assert stacked.shape == (len(graphs), 8)
    for g, row in zip(graphs, stacked):
        assert row.tobytes() == M.graph_embedding(g, weights).tobytes(), g.graph_id
        assert row.tobytes() == alone(g, weights).tobytes(), g.graph_id


@pytest.mark.parametrize("head", [False, True])
def test_detector_labels_and_scores_are_predicts(head):
    graphs = population()
    params = detector(head, seed=3)
    victim = AT.DetectorVictim(params)
    want = [M.predict(g, params) for g in graphs]
    assert victim.labels(graphs) == [w[0] for w in want]
    assert [victim.label(g) for g in graphs] == [w[0] for w in want]
    _, labels, s0, s1 = M.score_graphs(graphs, params.encoder_weights,
                                       M.score_head(params))
    assert [(int(y), a, b) for y, a, b in zip(labels, s0.tolist(), s1.tolist())] == want
    assert set(labels.tolist()) == {0, 1}


@pytest.mark.parametrize("arch", AT.ARCHITECTURES)
def test_surrogate_rows_and_labels_are_each_graphs_alone(arch):
    graphs = population()
    sp = AT._init_surrogate(arch, D, 8, rng_seed=5)
    victim = AT.SurrogateVictim(sp)
    if arch == "gnn2_mlp":
        rows = M.graph_embeddings(graphs, victim.encoder)
        want = [alone(g, victim.encoder) for g in graphs]
    else:
        rows = AT._degree_summaries(graphs)
        want = [AT._degree_summary(g.features, M.adjacency(g)[None])[0] for g in graphs]
    for g, row, w in zip(graphs, rows, want):
        assert row.tobytes() == w.tobytes(), g.graph_id
    labels = [int(M.classify_rows(victim.head, w[None], [g.graph_id])[0][0])
              for g, w in zip(graphs, want)]
    assert victim.labels(graphs) == labels
    assert [victim.label(g) for g in graphs] == labels


def test_an_exact_tie_is_labelled_malicious():
    graphs = population()
    params = detector(False)
    params.proxy_malicious = params.proxy_benign.copy()
    assert AT.DetectorVictim(params).labels(graphs) == [1] * len(graphs)
    params = detector(True)
    params.head_weights[1][:, 1] = params.head_weights[1][:, 0]
    assert AT.DetectorVictim(params).labels(graphs) == [1] * len(graphs)
    for arch in AT.ARCHITECTURES:
        sp = AT._init_surrogate(arch, D, 8, rng_seed=1)
        sp.weights["head.1"][:, 1] = sp.weights["head.1"][:, 0]
        assert AT.SurrogateVictim(sp).labels(graphs) == [1] * len(graphs), arch
    _, s0, s1 = M.predict(graphs[0], params)
    assert s0 == s1


@pytest.mark.parametrize("head", [False, True])
def test_evaluate_counts_are_those_of_a_predict_loop(head):
    graphs = population()
    params = detector(head, seed=7)
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for g in graphs:
        pred = M.predict(g, params)[0]
        counts[("t" if pred == g.label else "f") + ("p" if pred == 1 else "n")] += 1
    m = T.evaluate(params, graphs)
    assert (m.tp, m.fp, m.tn, m.fn) == (counts["tp"], counts["fp"], counts["tn"],
                                        counts["fn"])
    assert counts["tp"] + counts["fp"] > 0 and counts["tn"] + counts["fn"] > 0


def first_error_alone(graphs, weights):
    for g in graphs:
        try:
            M.graph_embedding(g, weights)
        except ad.NonFiniteError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("layers, scale, what", [
    (2, 1e200, "encoder layer 1 output is not finite"),
    (1, 1e160, "embedding norm overflows"),
])
def test_overflow_names_the_first_graph_in_input_order(layers, scale, what):
    """The first graph to overflow in input order is the largest, whose stack
    runs last; a graph of zero features, which cannot overflow, sits between
    it and the next that does."""
    big = rand_graph(SPLIT + 5, 7)
    quiet = FeatureGraph(3, [(0, 1)], np.zeros((3, D)), 0, "zero-features")
    small = rand_graph(4, 8)
    graphs = [quiet, big, quiet, small]
    weights = [w * scale for w in detector(False, layers=layers).encoder_weights]
    want = f"graph {big.graph_id}: {what}"
    assert first_error_alone(graphs, weights) == want
    with pytest.raises(ad.NonFiniteError) as exc:
        M.graph_embeddings(graphs, weights)
    assert str(exc.value) == want
    params = detector(False, layers=layers)
    params.encoder_weights = weights
    with pytest.raises(ad.NonFiniteError) as exc:
        AT.DetectorVictim(params).labels(graphs)
    assert str(exc.value) == want
    assert M.graph_embeddings([quiet, quiet], weights).tobytes() == bytes(2 * 8 * 8)
    twin = rand_graph(4, 9)  # the same node count: one stack holds both
    for graphs, named in (([quiet, small, twin], small), ([twin, quiet, small], twin)):
        want = f"graph {named.graph_id}: {what}"
        assert first_error_alone(graphs, weights) == want
        with pytest.raises(ad.NonFiniteError) as exc:
            M.graph_embeddings(graphs, weights)
        assert str(exc.value) == want


def test_a_stack_whose_summed_squares_overflow_is_no_error():
    """The norm screen's false alarm: the 113 twelve-node desk graphs make one
    stack whose sum of squared embedding norms overflows under the desk
    victim's encoder, scaled so that the largest row's squared norm is about
    1e308, while every row's is finite. No graph fails alone, so the stack's
    rows stand: each is its graph's lone bits, and the labels are predict's."""
    params, _ = M.load_checkpoint(VICTIM)
    graphs = [g for g in desk_graphs() if g.node_count == 12]
    rows = M.graph_embeddings(graphs, params.encoder_weights)
    scale = (1e308 / (rows * rows).sum(axis=1).max()) ** 0.25  # 2 ReLU layers
    params.encoder_weights = [w * scale for w in params.encoder_weights]
    rows = M.graph_embeddings(graphs, params.encoder_weights)
    assert len(graphs) == 113 and len(list(M.graph_stacks(graphs))) == 1
    with np.errstate(over="ignore"):
        assert np.vdot(rows, rows) == np.inf
    assert np.isfinite((rows * rows).sum(axis=1)).all()
    for g, row in zip(graphs, rows):
        assert row.tobytes() == M.graph_embedding(g, params.encoder_weights).tobytes()
    _, labels, _, _ = M.score_graphs(graphs, params.encoder_weights,
                                     M.score_head(params))
    assert labels.tolist() == [M.predict(g, params)[0] for g in graphs]
    assert AT.DetectorVictim(params).labels(graphs) == labels.tolist()


def test_an_empty_graph_is_rejected_by_name():
    graphs = [rand_graph(3, 1), FeatureGraph(0, [], np.zeros((0, D)), 0, "empty")]
    with pytest.raises(ValueError, match="graph empty is empty"):
        M.graph_embeddings(graphs, detector(False).encoder_weights)


def test_distillation_labels_by_stacks_only_for_a_victims_own_label():
    """The bound `label` of a package victim is replaced by its `labels`;
    with the same labels, the surrogate is the same bits. Any other callable
    is called once per graph, in order."""
    graphs = population()
    victim = AT.DetectorVictim(detector(False, seed=2))
    calls = []

    def label(graph):
        calls.append(graph.graph_id)
        return victim.label(graph)

    def distill(fn):
        return AT.distill_surrogate(fn, graphs, "gnn2_mlp", epochs=2, hidden=8,
                                    batch_size=8, rng_seed=1)

    (sp, agree), (sp_each, agree_each) = distill(victim.label), distill(label)
    assert calls == [g.graph_id for g in graphs]
    assert agree == agree_each
    for name, w in sp.weights.items():
        assert w.tobytes() == sp_each.weights[name].tobytes(), name

    class Counting(AT.DetectorVictim):
        def label(self, graph):
            calls.append(graph.graph_id)
            return super().label(graph)

    calls.clear()
    counting = Counting(victim.params)
    distill(counting.label)
    assert calls == [g.graph_id for g in graphs]
