"""Edge-insertion attacks against trained detectors, plus robustness metrics.

The white-box attack scores every missing directed edge with path-integrated
gradients of the benign-minus-malicious margin, taken on a relaxed forward
pass where adjacency entries vary continuously in [0,1]. The relaxation
(`model.relaxed_propagation`) symmetrizes smoothly (S = A + A^T - A*A^T) and
normalizes by fractional degrees; at binary adjacency it is the propagation
matrix the detector itself uses, and the relaxed forward is the detector's
own layer stack (`model.gnn_layers`) with a batch axis. Since these victims
read S, an edge whose reverse is present is invisible to them and is not
offered, and (s,t) and (t,s) of a pair missing both ways score the same, so
each such pair is integrated once. The black-box attack distills a surrogate
from victim-predicted labels and reuses the same loop, judging success by
querying the victim.

Gradients with respect to adjacency are computed by a hand-derived, batched
reverse pass over the relaxed forward, one batch row per unordered candidate
pair per integration step (per directed candidate edge for a victim that does
not symmetrize); no tape runs in the attack, but the layer backward is the
one the detector's training runs (`model.gnn_backward`), and the attack adds
only what P's dependence on A needs. A row asks for the one entry it
integrates: `margin_grad_batched(features, a_batch, src, dst)` returns the
margins f and d[b] = df_b / da_batch[b, src_b, dst_b], so the backward forms
rows and columns src and dst of dP only and no (n, n) gradient per row.
Each victim writes the pass's arrays into buffers it keeps across calls, so
a chunk reuses the memory of the one before. A victim's labels need no
gradient: `labels` runs the inference forward over stacks of graphs of one
node count (`model.graph_embeddings`), and distillation labels its training
graphs that way. Distillation builds no tape either: each batch is one call
of `surrogate_batch_grads`, which runs the detector's training pieces
(`model.encode`, `model.mlp_logits`, `losses.cross_entropy_logits`) and
their hand-written backward passes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as M
from .graphdata import FeatureGraph
from .losses import cross_entropy_logits
from .training import Adam, minibatch_epoch, per_graph_on_error

# Rows per margin_grad_batched call. At desk sizes (n <= 19, hidden 32) one
# (B,n,h) float64 array of a chunk is at most 0.3 MB, so an op's operands fit
# in a core's L2 cache (at 512 rows one array is 2.5 MB), and the victim's
# buffers, sized by the first chunk, serve every later one. Every op of the
# relaxed pass, the score heads' too, is per row, so the chunk size cannot
# change a score.
CHUNK_ROWS = 64
# Candidates whose IG scores lie within max(TIE_TOLERANCE * |best|, TIE_FLOOR)
# of the best are tied, and the lexicographically smallest of them is picked.
# A change of float order moves a score by a few ulps (about 1e-16 relative);
# the window is several orders of magnitude wider, so such noise cannot decide
# between near-equal candidates. Scores that are all rounding noise about 0,
# as a surrogate can give every candidate of an edgeless graph, tie through
# the absolute TIE_FLOOR.
TIE_TOLERANCE = 1e-9
TIE_FLOOR = 1e-12

ARCHITECTURES = ("mlp_on_degree_features", "gnn2_mlp")


class NoCandidateEdges(ValueError):
    """The graph is complete, as the victim sees it; nothing is left to add."""


@dataclass
class AttackConfig:
    max_iterations: int = 100
    ig_steps: int = 20
    edges_per_iteration: int = 1
    rng_seed: int = 0  # unread here; the benchmark's workloads still set it

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.ig_steps < 1:
            raise ValueError("ig_steps must be at least 1")
        if self.edges_per_iteration < 1:
            raise ValueError("edges_per_iteration must be at least 1")


@dataclass
class AttackResult:
    original_id: str
    perturbed: FeatureGraph
    success: bool
    iterations_used: int
    edges_added: list[tuple[int, int]]
    original_edge_count: int
    queries: int


@dataclass
class SurrogateParams:
    """Distilled substitute model: either a 2-layer GNN + MLP head, or an MLP
    over pooled features plus a normalized-degree summary."""

    architecture: str
    weights: dict[str, np.ndarray]

    def validate(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        need = ({"enc.0", "enc.1", "head.0", "head.1"}
                if self.architecture == "gnn2_mlp" else {"head.0", "head.1"})
        if set(self.weights) != need:
            raise ValueError(f"{self.architecture} expects weights {sorted(need)}")
        if self.weights["head.1"].shape[1] != 2:
            raise ValueError("surrogate head must emit 2 class scores")


@dataclass
class AttackSummary:
    asr: float
    apr: float
    apr_defined: bool
    attempted: int
    succeeded: int
    edgeless_successes: int  # successes on an edgeless original, left out of APR


# ------------------------------------------------------------------ relaxed forward


def _margin_grad_gnn(gnn_weights: list[np.ndarray], transposes: list[np.ndarray],
                     head, x: np.ndarray, a_batch: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, buffers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Batched margin f = s0 - s1 of a GNN + mean readout + score `head` (see
    `model.proxy_head`) and d[b] = df_b / dA_b[src_b, dst_b]. `transposes`
    holds each layer weight's transpose as a contiguous array, which numpy
    multiplies by faster than a transposed view.

    The adjoints come from `model.readout` and `model.gnn_backward`. d
    reads only rows and columns src and dst of dP = sum_l dm_l h_l^T, so
    each layer adds (B, 2, n) products: dp_rows[b, i] = dP[v] and
    dp_cols[b, i] = dP[:, v] for v = (src_b, dst_b)[i]. Layer 0's dm_0 h_0^T
    is dq_0 (x W_0)^T, so its dm is never formed. The pass's (B, n, .)
    arrays are written into `buffers` (see `model.scratch`)."""
    B, n, _ = a_batch.shape
    s, deg, live, r, p, at = M.relaxed_propagation(a_batch, buffers)
    hs, qs = M.gnn_layers(p, x, gnn_weights, buffers)
    g, read_back = M.readout(hs[-1], n)

    s0, s1, dg = head(g, grad=True)
    dqs, dms, _ = M.gnn_backward(p, qs, transposes, read_back(dg), stop=1, buffers=buffers)

    b = np.arange(B)
    row, ends = b[:, None], np.stack([src, dst], axis=1)
    dp_rows, dp_cols = np.zeros((B, 2, n)), np.zeros((B, 2, n))
    for l in reversed(range(1, len(gnn_weights))):
        dp_rows += dms[l][row, ends] @ np.swapaxes(hs[l], -1, -2)
        dp_cols += hs[l][row, ends] @ np.swapaxes(dms[l], -1, -2)
    xw = x @ gnn_weights[0]  # nothing reads the adjoint of the input features
    dp_rows += dqs[0][row, ends] @ xw.T
    dp_cols += xw[ends] @ np.swapaxes(dqs[0], -1, -2)

    # dr_v = sum_j dP_vj S_vj r_j + sum_j dP_jv S_jv r_j, with S symmetric
    r_ends = r[row, ends]
    dr = (((dp_rows + dp_cols) * s[row, ends]) @ r[:, :, None])[:, :, 0]
    ddeg = np.where(live[row, ends], dr * (-0.5) * r_ends**3, 0.0)
    # dS_vj = dP_vj r_v r_j + ddeg_v, as deg_v is the row sum of S; and
    # dA_st = (dS_st + dS_ts)(1 - A_ts), as S = A + A^T - A*A^T. Written the
    # same way for either end, so that (s,t) and (t,s) score the same bits.
    ds_st = dp_rows[b, 0, dst] * r_ends[:, 0] * r_ends[:, 1] + ddeg[:, 0]
    ds_ts = dp_rows[b, 1, src] * r_ends[:, 1] * r_ends[:, 0] + ddeg[:, 1]
    return s0 - s1, np.where(src == dst, 0.0, (ds_st + ds_ts) * (1.0 - at[b, src, dst]))


def _degree_summary(x: np.ndarray, a_batch: np.ndarray,
                    buffers: dict | None = None) -> np.ndarray:
    """(B, d+1) rows [mean row of the features, relaxed degree sum /
    (n(n-1))], one per (B, n, n) adjacency, of one graph's (n, d) features
    or of (B, n, d), one set per adjacency. At 0/1 entries the degree sum is
    the integer sum of max(A, A^T), whatever the order of summation."""
    return _summary_rows(x, M.relaxed_propagation(a_batch, buffers)[1])


def _summary_rows(x: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """`_degree_summary` of the (B, n) degrees `deg`."""
    B, n = deg.shape
    return np.concatenate([
        np.broadcast_to(x.mean(axis=-2), (B, x.shape[-1])),
        deg.sum(axis=1)[:, None] / max(n * (n - 1), 1),
    ], axis=1)


def _degree_summaries(graphs: list[FeatureGraph]) -> np.ndarray:
    """`_degree_summary` of each graph's own 0/1 adjacency, from the degrees
    of `model.graph_stacks`: (B, d+1)."""
    out = np.empty((len(graphs), graphs[0].feature_dim + 1))
    for indices, _, deg, x in M.graph_stacks(graphs):
        out[indices] = _summary_rows(x, deg)
    return out


def _margin_grad_degree_mlp(head, x: np.ndarray, a_batch: np.ndarray,
                            src: np.ndarray, dst: np.ndarray,
                            buffers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Score `head`'s margin s0 - s1 over `_degree_summary`; adjacency enters
    only through the degree sum, whose derivative by S is c everywhere, so
    dA_st = 2c(1 - A_ts)."""
    n = a_batch.shape[1]
    s0, s1, dphi = head(_degree_summary(x, a_batch, buffers), grad=True)
    c = dphi[:, -1] / max(n * (n - 1), 1)
    d = (c + c) * (1.0 - a_batch[np.arange(len(src)), dst, src])
    return s0 - s1, np.where(src == dst, 0.0, d)


class DetectorVictim:
    """White-box view of trained ModelParams: margin is benign minus malicious.
    The head is built once, as an attack does not change the weights."""

    symmetrizes = True

    def __init__(self, params: M.ModelParams):
        self.params = params
        self.head = M.score_head(params)
        self.transposes = [np.ascontiguousarray(w.T) for w in params.encoder_weights]
        self.buffers = {}  # the relaxed pass's arrays, reused across calls

    def labels(self, graphs: list[FeatureGraph]) -> list[int]:
        """Predict's label of each graph, from one forward per stack of
        graphs of one node count (`model.score_graphs`)."""
        return M.score_graphs(graphs, self.params.encoder_weights,
                              self.head)[1].tolist()

    def label(self, graph: FeatureGraph) -> int:
        return self.labels([graph])[0]

    def margin_grad_batched(self, features: np.ndarray, a_batch: np.ndarray,
                            src: np.ndarray,
                            dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Margins f of the (B, n, n) relaxed adjacencies `a_batch` and
        d[b] = df_b / da_batch[b, src_b, dst_b], 0 where src_b == dst_b. The
        results are fresh arrays; the pass's other arrays are reused."""
        return _margin_grad_gnn(self.params.encoder_weights, self.transposes,
                                self.head, features, a_batch, src, dst, self.buffers)


class SurrogateVictim:
    """The same interface over distilled SurrogateParams."""

    symmetrizes = True

    def __init__(self, surrogate: SurrogateParams):
        surrogate.validate()
        self.surrogate = surrogate
        w = surrogate.weights
        self.encoder = ([w["enc.0"], w["enc.1"]]
                        if surrogate.architecture == "gnn2_mlp" else None)
        self.transposes = [np.ascontiguousarray(w.T) for w in self.encoder or []]
        self.head = M.logits_head(w["head.0"], w["head.1"])
        self.buffers = {}

    def labels(self, graphs: list[FeatureGraph]) -> list[int]:
        """The label of each graph, from one forward per stack of graphs of
        one node count."""
        if self.encoder:
            return M.score_graphs(graphs, self.encoder, self.head)[1].tolist()
        return M.classify_rows(self.head, _degree_summaries(graphs),
                               [g.graph_id for g in graphs])[0].tolist()

    def label(self, graph: FeatureGraph) -> int:
        return self.labels([graph])[0]

    def margin_grad_batched(self, features: np.ndarray, a_batch: np.ndarray,
                            src: np.ndarray,
                            dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.encoder:
            return _margin_grad_gnn(self.encoder, self.transposes, self.head,
                                    features, a_batch, src, dst, self.buffers)
        return _margin_grad_degree_mlp(self.head, features, a_batch,
                                       src, dst, self.buffers)


def as_victim(victim):
    """Normalize ModelParams / SurrogateParams / duck-typed victims."""
    if isinstance(victim, M.ModelParams):
        return DetectorVictim(victim)
    if isinstance(victim, SurrogateParams):
        return SurrogateVictim(victim)
    if hasattr(victim, "margin_grad_batched"):
        return victim
    raise TypeError(f"cannot attack a {type(victim).__name__}")


# ------------------------------------------------------------------ saliency


def candidate_edges(graph: FeatureGraph,
                    symmetric: bool = False) -> list[tuple[int, int]]:
    """Missing directed edges, in lexicographic order.

    With `symmetric`, a pair whose reverse is already present is left out: a
    victim that reads the symmetrized edge set cannot see such an insertion.
    """
    existing = graph.edge_set()
    n = graph.node_count
    return [(s, t) for s in range(n) for t in range(n)
            if s != t and (s, t) not in existing
            and not (symmetric and (t, s) in existing)]


def edge_saliency_ig(victim, graph: FeatureGraph,
                     ig_steps: int) -> dict[tuple[int, int], float]:
    """Integrated-gradient score per missing edge.

    IG(e) = (1/m) sum_{k=1..m} d f(A + (k/m) 1_e) / dA_e, where f is the
    benign-minus-malicious margin. Higher scores push harder toward benign.
    Victims whose `symmetrizes` attribute is true are offered no edge whose
    reverse is present (see candidate_edges). Such a victim sees the same
    symmetrized graph on the path of (s,t) as on that of (t,s), so the two
    scores are equal; one path per unordered pair is integrated, along its
    lexicographically smaller edge, and both directed keys get its score.
    Other victims integrate one path per directed candidate. Rows (one per
    path per step) are batched and chunked, and each asks the victim for
    the one gradient entry it integrates.
    """
    if ig_steps < 1:
        raise ValueError("ig_steps must be at least 1")
    victim = as_victim(victim)
    symmetric = getattr(victim, "symmetrizes", False)
    cands = candidate_edges(graph, symmetric)
    if not cands:
        raise NoCandidateEdges(f"graph {graph.graph_id} has no candidate edges left")
    base = M.adjacency(graph)
    n = graph.node_count

    src, dst = np.array(cands, dtype=np.intp).T
    if symmetric:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    keys, owner = np.unique(src * n + dst, return_inverse=True)
    path_src, path_dst = np.divmod(keys, n)

    # one row per (path, step), path-major; step k sets the entry to (k+1)/m
    row_src = np.repeat(path_src, ig_steps)
    row_dst = np.repeat(path_dst, ig_steps)
    row_alpha = np.tile(np.arange(1, ig_steps + 1) / ig_steps, len(keys))
    grads = np.empty(len(row_src))
    a_full = np.empty((min(CHUNK_ROWS, len(grads)), n, n))
    for start in range(0, len(grads), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        s, t = row_src[rows], row_dst[rows]
        a_batch = a_full[:len(s)]
        a_batch[...] = base
        a_batch[np.arange(len(s)), s, t] = row_alpha[rows]
        grads[rows] = victim.margin_grad_batched(graph.features, a_batch, s, t)[1]

    per_step = grads.reshape(len(keys), ig_steps)
    scores = np.zeros(len(keys))
    for k in range(ig_steps):  # accumulate in step order
        scores += per_step[:, k]
    scores /= ig_steps
    if not np.all(np.isfinite(scores)):
        raise ad.NonFiniteError("saliency scores went non-finite")
    return {edge: float(scores[i]) for edge, i in zip(cands, owner)}


# ------------------------------------------------------------------ attack loops


def _add_edges(graph: FeatureGraph, new_edges: list[tuple[int, int]]) -> FeatureGraph:
    return FeatureGraph(
        node_count=graph.node_count,
        edges=np.concatenate([graph.edges, np.reshape(new_edges, (-1, 2))]),
        features=graph.features,
        label=graph.label,
        graph_id=graph.graph_id,
        year_tag=graph.year_tag,
    )


def pick_edges(scores: dict[tuple[int, int], float],
               count: int) -> list[tuple[int, int]]:
    """Up to `count` edges, one at a time: the lexicographically smallest of
    the candidates left whose score is at least best - max(TIE_TOLERANCE *
    |best|, TIE_FLOOR), where best is the top score among them."""
    left = dict(scores)
    picks = []
    for _ in range(min(count, len(left))):
        best = max(left.values())
        cut = best - max(TIE_TOLERANCE * abs(best), TIE_FLOOR)
        pick = min(e for e, s in left.items() if s >= cut)
        picks.append(pick)
        del left[pick]
    return picks


def _attack_loop(saliency_victim, label_fn, graph: FeatureGraph,
                 config: AttackConfig) -> AttackResult:
    config.validate()
    if label_fn(graph) != 1:
        raise ValueError(f"graph {graph.graph_id} is not detected as malicious; "
                         f"nothing to evade")
    queries = 1
    work = graph
    added: list[tuple[int, int]] = []
    iterations = 0
    success = False
    while iterations < config.max_iterations:
        try:
            scores = edge_saliency_ig(saliency_victim, work, config.ig_steps)
        except NoCandidateEdges:
            break
        iterations += 1
        picks = pick_edges(scores, config.edges_per_iteration)
        work = _add_edges(work, picks)
        added.extend(picks)
        queries += 1
        if label_fn(work) == 0:
            success = True
            break
    return AttackResult(
        original_id=graph.graph_id,
        perturbed=work,
        success=success,
        iterations_used=iterations,
        edges_added=added,
        original_edge_count=len(graph.edges),
        queries=queries,
    )


def whitebox_attack(victim, graph: FeatureGraph, config: AttackConfig) -> AttackResult:
    """Gradient-guided edge insertion with full access to the victim.

    `victim` is ModelParams or anything exposing label/margin_grad_batched.
    Original edges, features, and nodes are never touched; only additions.
    """
    v = as_victim(victim)
    return _attack_loop(v, v.label, graph, config)


def blackbox_attack(victim_label_fn, surrogate, graph: FeatureGraph,
                    config: AttackConfig) -> AttackResult:
    """Saliency from the surrogate; success judged by querying the victim.

    Victim queries are bounded by max_iterations + 1 (one precondition check
    plus one per iteration).
    """
    return _attack_loop(as_victim(surrogate), victim_label_fn, graph, config)


# ------------------------------------------------------------------ distillation


def _init_surrogate(architecture: str, d: int, hidden: int,
                    rng_seed: int) -> SurrogateParams:
    if architecture == "gnn2_mlp":
        shapes = {"enc.0": (d, hidden), "enc.1": (hidden, hidden),
                  "head.0": (hidden, hidden), "head.1": (hidden, 2)}
    elif architecture == "mlp_on_degree_features":
        shapes = {"head.0": (d + 1, hidden), "head.1": (hidden, 2)}
    else:
        raise ValueError(f"unknown architecture {architecture!r}")
    rng = np.random.default_rng(rng_seed)
    weights = {name: M.glorot(rng, *shape) for name, shape in shapes.items()}
    return SurrogateParams(architecture=architecture, weights=weights)


def surrogate_batch_grads(sp: SurrogateParams, members: list[tuple[FeatureGraph, int]]):
    """(loss, {name: gradient}) of a batch of (graph, victim label) members,
    labels 0 or 1 as `distill_surrogate` checks: the sum of their
    cross-entropies and its gradient by each weight of `sp`. A GNN
    surrogate runs `model.encode` on the padded (B, m, ·) stacks of
    `model.batch_graphs` and takes each graph's mean row by `model.readout`;
    the head is `model.mlp_logits` and the loss
    `losses.cross_entropy_logits`, whose backward passes give the bits of the
    same loss written as tape ops. The values a tape checks are checked
    under the names of its ops: the weights on entry, each layer's
    pre-activation, the readout, the head products, the shifted logits and
    the loss sums."""
    w = sp.weights
    if not all(np.isfinite(a).all() for a in w.values()):
        raise ad.NonFiniteError("leaf tensor contains non-finite values")
    graphs = [g for g, _ in members]
    gnn = sp.architecture == "gnn2_mlp"
    with np.errstate(over="ignore", invalid="ignore"):  # blowups become NonFiniteError
        if gnn:
            p, x, sizes = M.batch_graphs(graphs)
            h, enc_back = M.encode(p, x, [w["enc.0"], w["enc.1"]])
            g, read_back = M.readout(h, sizes)
            ad.check_finite("readout", g)
        else:
            g = _degree_summaries(graphs)
        logits, head_back = M.mlp_logits(g, w["head.0"], w["head.1"])
        loss, ce_back = cross_entropy_logits(logits, [y for _, y in members])

        grads = {}
        dg, (grads["head.0"], grads["head.1"]) = head_back(ce_back(1.0))
        if gnn:
            dws, _ = enc_back(read_back(dg), input_grad=False)
            grads.update((f"enc.{l}", dw) for l, dw in enumerate(dws))
    return loss, grads


def distill_surrogate(victim_label_fn, train_graphs: list[FeatureGraph],
                      architecture: str, epochs: int, hidden: int = 32,
                      learning_rate: float = 0.01, batch_size: int = 32,
                      rng_seed: int = 0) -> tuple[SurrogateParams, float]:
    """Train a substitute on victim-predicted labels with cross-entropy.

    Returns (surrogate, agreement rate on train_graphs). A constant-label
    victim degenerates gracefully: the surrogate just learns that class.
    """
    if not train_graphs:
        raise ValueError("distillation needs at least one graph")
    for name, value in (("epochs", epochs), ("hidden", hidden), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning_rate must be finite and positive")
    owner = getattr(victim_label_fn, "__self__", None)
    if (type(owner) in (DetectorVictim, SurrogateVictim)
            and victim_label_fn == owner.label):  # labelled by stacks, not one by one
        ys = owner.labels(train_graphs)
    else:
        ys = [int(victim_label_fn(g)) for g in train_graphs]
    labels = {g.graph_id: y for g, y in zip(train_graphs, ys)}
    for gid, y in labels.items():
        if y not in (0, 1):
            raise ValueError(f"victim label for {gid} must be 0 or 1, got {y}")

    d = train_graphs[0].feature_dim
    sp = _init_surrogate(architecture, d, hidden, rng_seed)
    optimizer = Adam(sp.weights, learning_rate)
    rng = np.random.default_rng(rng_seed)
    for _ in range(epochs):
        minibatch_epoch(sp.weights, optimizer, train_graphs, batch_size, rng,
                        lambda batch: per_graph_on_error(
                            lambda ms: surrogate_batch_grads(sp, ms),
                            [(g, labels[g.graph_id]) for g in batch])[1])

    agree = sum(1 for g, y in zip(train_graphs, SurrogateVictim(sp).labels(train_graphs))
                if y == labels[g.graph_id])
    return sp, agree / len(train_graphs)


# ------------------------------------------------------------------ metrics


def compute_asr_apr(results: list[AttackResult]) -> AttackSummary:
    """ASR over all attempts; APR averaged over the successful attacks on an
    original with edges, as the ratio is undefined without them. The other
    successes are counted apart; APR is flagged undefined (reported as 0)
    when no success has edges."""
    if not results:
        raise ValueError("no attack results to summarize")
    succ = [r for r in results if r.success]
    ratios = [len(r.edges_added) / r.original_edge_count
              for r in succ if r.original_edge_count > 0]
    return AttackSummary(
        asr=len(succ) / len(results),
        apr=float(np.mean(ratios)) if ratios else 0.0,
        apr_defined=bool(ratios),
        attempted=len(results),
        succeeded=len(succ),
        edgeless_successes=len(succ) - len(ratios),
    )
