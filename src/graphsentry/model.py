"""The detector: node masking, GNN encoder/decoder, readout, proxy inference.

Propagation follows the symmetric-normalized rule: a node's new state is
(own state + sum of neighbor states / sqrt(deg_u * deg_v)) times the layer
weight, through ReLU. Neighborhoods are taken on the symmetrized edge set.
One normalization (`relaxed_propagation`) gives the dense (n, n) matrix P
of an adjacency with entries in [0, 1], which the attack's relaxed rows
propagate through; at 0/1 adjacency it is `propagation_terms`, and
`edge_propagation` builds the same bits for a stack of graphs straight from
their edge arrays. The GCN layer stack is written once, in plain numpy
(`gnn_layers`), and so is its backward (`gnn_backward`). Every pass holds
its nodes as (B, m, ·) stacks. Training runs the stack over a padded
minibatch (`batch_graphs`: a (B, m, m) stack of P from one
`edge_propagation` call, the (B, m, d) feature rows and the node counts),
one graph being a batch of one: `encode` is one encoder or decoder pass with
its backward, and `mlp_logits` the MLP head with its. Inference and the
attack call `gnn_layers` directly, the attack's relaxed backward calls
`gnn_backward`, and both score embeddings by one head per family
(`proxy_head`, `logits_head`). Training, inference and the attack take one
mean readout (`readout`). Every inference call, for one graph or many, runs
one path: `graph_stacks` → `gnn_layers` → `readout` → `classify_rows`.
Graphs of one node count run as one unpadded (k, n, n) stack, so each graph
gets the bits it gets alone, and a stack that fails a check names its graph
by running the graphs alone. The module holds no mutable state: a training
run counts its own masking and decoding.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .graphdata import FeatureGraph, FeatureSchema, canonical_json

CHECKPOINT_FORMAT = "graphsentry-checkpoint"
CHECKPOINT_VERSION = 1
DEG_EPS = 1e-12  # degree below which a node counts as isolated
# Largest k * n^2 of one `graph_stacks` stack of k graphs of n nodes. A stack
# of desk graphs (n <= 19) holds 90 or more; a graph of 182 nodes or more
# runs alone, so a large graph's arrays stay the size they have alone.
STACK_ENTRIES = 32768


@dataclass
class ModelParams:
    """All learnable arrays. head_weights is only present for MLP-head variants."""

    encoder_weights: list[np.ndarray]
    decoder_weights: list[np.ndarray]
    mask_token: np.ndarray
    proxy_benign: np.ndarray
    proxy_malicious: np.ndarray
    head_weights: list[np.ndarray] | None = None

    def validate(self) -> None:
        if not self.encoder_weights or not self.decoder_weights:
            raise ValueError("encoder and decoder need at least one layer each")
        d = self.encoder_weights[0].shape[0]
        h = self.encoder_weights[0].shape[1]
        chain = [w.shape for w in self.encoder_weights]
        expect = [(d, h)] + [(h, h)] * (len(self.encoder_weights) - 1)
        if chain != expect:
            raise ValueError(f"encoder shape chain {chain} does not compose d->h")
        chain = [w.shape for w in self.decoder_weights]
        expect = [(h, h)] * (len(self.decoder_weights) - 1) + [(h, d)]
        if chain != expect:
            raise ValueError(f"decoder shape chain {chain} does not compose h->d")
        if self.mask_token.shape != (d,):
            raise ValueError(f"mask_token must have length {d}")
        if self.proxy_benign.shape != (h,) or self.proxy_malicious.shape != (h,):
            raise ValueError(f"proxies must have length {h}")
        if self.head_weights is not None:
            chain = [w.shape for w in self.head_weights]
            if chain != [(h, h), (h, 2)]:
                raise ValueError(f"head shape chain {chain} is not h->h->2")
        for arr in self.named_arrays().values():
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters contain non-finite entries")
        for name in ("proxy_benign", "proxy_malicious"):
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(getattr(self, name))
            if not np.isfinite(norm):
                raise ValueError(f"{name} has a norm that overflows")

    @property
    def feature_dim(self) -> int:
        return self.encoder_weights[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.encoder_weights[0].shape[1]

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Stable name -> array view of every learnable tensor, in a fixed order."""
        out = {}
        for i, w in enumerate(self.encoder_weights):
            out[f"encoder.{i}"] = w
        for i, w in enumerate(self.decoder_weights):
            out[f"decoder.{i}"] = w
        out["mask_token"] = self.mask_token
        out["proxy_benign"] = self.proxy_benign
        out["proxy_malicious"] = self.proxy_malicious
        if self.head_weights is not None:
            for i, w in enumerate(self.head_weights):
                out[f"head.{i}"] = w
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            encoder_weights=[w.copy() for w in self.encoder_weights],
            decoder_weights=[w.copy() for w in self.decoder_weights],
            mask_token=self.mask_token.copy(),
            proxy_benign=self.proxy_benign.copy(),
            proxy_malicious=self.proxy_malicious.copy(),
            head_weights=None if self.head_weights is None
            else [w.copy() for w in self.head_weights],
        )


@dataclass(frozen=True)
class MaskPlan:
    """Which node rows get replaced by the learnable mask token."""

    masked: tuple[int, ...]


def batch_graphs(graphs: list[FeatureGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P, X, sizes) of `graphs` padded to their largest node count m: the
    (B, m, m) stack of P from one `edge_propagation` call on the batch's
    edges, with the bits `relaxed_propagation` gives the stacked 0/1
    adjacency; the (B, m, d) stack of feature rows; and the (B,) node counts.
    Graph b's nodes are rows 0 .. n_b - 1 of its block and the rest is zero
    padding. A padding node has degree 0, so its row and column of P are
    zero; as the layers have no bias, its rows stay zero through every layer
    and no real node reads them."""
    if not graphs:
        raise ValueError("a batch needs at least one graph")
    for g in graphs:
        if g.node_count < 1:
            raise ValueError(f"graph {g.graph_id} is empty")
    sizes = np.array([g.node_count for g in graphs])
    m = int(sizes.max())
    x = np.zeros((len(graphs), m, graphs[0].feature_dim))
    x[np.arange(m) < sizes[:, None]] = np.concatenate([g.features for g in graphs])
    return edge_propagation(graphs, m)[0], x, sizes


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform [-a, a], a = sqrt(6/(fan_in+fan_out)): detector and surrogate init."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_params(schema: FeatureSchema | int, hidden: int = 128, layers: int = 2,
                rng_seed: int = 0) -> ModelParams:
    """Uniform [-a, a] weights with a = sqrt(6/(fan_in+fan_out)); small-normal
    mask token and proxies. Draw order is fixed so seeds reproduce exactly.

    `schema` may be a FeatureSchema or the bare feature width."""
    if hidden < 1 or layers < 1:
        raise ValueError("hidden and layers must be positive")
    d = schema.d if isinstance(schema, FeatureSchema) else int(schema)
    h = hidden
    rng = np.random.default_rng(rng_seed)
    enc = [glorot(rng, d, h)] + [glorot(rng, h, h) for _ in range(layers - 1)]
    dec = [glorot(rng, h, h) for _ in range(layers - 1)] + [glorot(rng, h, d)]
    params = ModelParams(
        encoder_weights=enc,
        decoder_weights=dec,
        mask_token=rng.standard_normal(d) * 0.01,
        proxy_benign=rng.standard_normal(h) * 0.01,
        proxy_malicious=rng.standard_normal(h) * 0.01,
    )
    params.validate()
    return params


def init_head(params: ModelParams, rng_seed: int) -> None:
    """Attach a fresh 2-layer MLP head (h -> h -> 2 logits) in place."""
    h = params.hidden_dim
    rng = np.random.default_rng(rng_seed)
    params.head_weights = [glorot(rng, h, h), glorot(rng, h, 2)]


def sample_mask(node_count: int, gamma: float, rng: np.random.Generator) -> MaskPlan:
    """Choose clamp(round(gamma*n), 1, n-1) node indices uniformly without
    replacement. Single-node graphs cannot be masked; callers skip them."""
    if node_count < 2:
        raise ValueError("masking needs at least 2 nodes")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    k = int(np.floor(gamma * node_count + 0.5))  # round half up
    k = min(max(k, 1), node_count - 1)
    idx = rng.choice(node_count, size=k, replace=False)
    return MaskPlan(masked=tuple(sorted(int(i) for i in idx)))


def adjacency(graph: FeatureGraph) -> np.ndarray:
    """Directed 0/1 adjacency matrix: entry (s, t) is 1 for each edge (s, t)."""
    a = np.zeros((graph.node_count, graph.node_count))
    a[graph.edges[:, 0], graph.edges[:, 1]] = 1.0
    return a


def edge_propagation(graphs: list[FeatureGraph], m: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, deg) of `relaxed_propagation` on the (k, m, m) stack of the k
    graphs' 0/1 adjacencies, each zero-padded to m nodes, with the same bits,
    built from the edge arrays without forming A: S is 1 at the flat keys of
    both directions of every edge (a reciprocal pair writes a key twice),
    deg is its row sums, and only those keys are then overwritten with
    r_s * r_t, which is relaxed's (S_st * r_s) * r_t at S_st = 1."""
    k = len(graphs)
    edges = np.concatenate([g.edges for g in graphs])
    s, t = edges[:, 0], edges[:, 1]
    first = np.repeat(np.arange(0, k * m, m), [len(g.edges) for g in graphs])
    rs, rt = first + s, first + t  # rows of the ends in the (k*m, m) stack
    keys = np.concatenate([rs * m + t, rt * m + s])
    flat = np.zeros(k * m * m)
    flat[keys] = 1.0
    p = flat.reshape(k, m, m)
    deg = p.sum(axis=-1)
    r = np.maximum(deg, DEG_EPS)
    r = np.divide(1.0, np.sqrt(r, out=r), out=r).reshape(-1)
    w = r[rs] * r[rt]
    flat[keys] = np.concatenate([w, w])
    return p, deg


def scratch(buffers: dict | None, key, shape: tuple, dtype=float) -> np.ndarray | None:
    """An array of `shape` to write a result into, kept in `buffers[key]`
    across calls, or None (a fresh result) without `buffers`. It is reused
    while it has `shape`'s trailing axes and at least its leading length (a
    leading prefix is a contiguous view); otherwise it is replaced by a new
    array of `shape`."""
    if buffers is None:
        return None
    arr = buffers.get(key)
    if arr is None or arr.shape[1:] != shape[1:] or len(arr) < shape[0]:
        arr = buffers[key] = np.empty(shape, dtype)
    return arr[:shape[0]]


def relaxed_propagation(a: np.ndarray, buffers: dict | None = None):
    """Smooth symmetrization S = A + A^T - A*A^T and normalization
    P = D^-1/2 S D^-1/2 of an (..., n, n) adjacency with entries in [0, 1],
    where D holds the row sums of S. At 0/1 entries S is the symmetrized edge
    set, and a node of degree 0 gets a zero row and column of P.

    Returns (S, deg, live, r, P, A^T), with live = deg > DEG_EPS and
    r = 1/sqrt(max(deg, DEG_EPS)), which the attack's backward reads. With
    `buffers` (see `scratch`) the arrays are written into them, in the same
    order of operations, so their bits do not depend on it; without, they
    are fresh arrays."""
    rows = a.shape[:-1]
    at = np.swapaxes(a, -1, -2)
    s = np.add(a, at, out=scratch(buffers, "S", a.shape))
    p = np.multiply(a, at, out=scratch(buffers, "P", a.shape))  # A*A^T, then P
    s = np.subtract(s, p, out=s)
    deg = s.sum(axis=-1, out=scratch(buffers, "deg", rows))
    live = np.greater(deg, DEG_EPS, out=scratch(buffers, "live", rows, bool))
    r = np.maximum(deg, DEG_EPS, out=scratch(buffers, "r", rows))
    r = np.divide(1.0, np.sqrt(r, out=r), out=r)
    p = np.multiply(s, r[..., :, None], out=p)
    p = np.multiply(p, r[..., None, :], out=p)
    return s, deg, live, r, p, at


def propagation_terms(graph: FeatureGraph) -> np.ndarray:
    """The dense (n, n) propagation matrix P of the graph's 0/1 adjacency."""
    return relaxed_propagation(adjacency(graph))[4]


def gnn_layers(p: np.ndarray, x: np.ndarray, weights: list[np.ndarray],
               buffers: dict | None = None):
    """The GCN layer stack without a tape: h_{l+1} = relu((h_l + P h_l) W_l)
    from h_0 = x. P may carry a leading batch axis, which the rows follow.
    Returns (hs, qs): the L+1 layer inputs/outputs and the L pre-activations.
    With `buffers` (see `scratch`) layer l's arrays are written into them
    under keys that name l, in the same order of operations."""
    hs, qs = [x], []
    for l, w in enumerate(weights):
        h = hs[-1]
        ph = np.matmul(p, h, out=scratch(buffers, ("ph", l), p.shape[:-1] + h.shape[-1:]))
        ph = np.add(h, ph, out=ph)
        q = np.matmul(ph, w, out=scratch(buffers, ("q", l), ph.shape[:-1] + w.shape[1:]))
        qs.append(q)
        hs.append(np.maximum(q, 0.0, out=scratch(buffers, ("h", l), q.shape)))
    return hs, qs


def gnn_backward(p: np.ndarray, qs: list[np.ndarray], transposes: list[np.ndarray],
                 dh: np.ndarray, linear_last: bool = False, stop: int = 0,
                 buffers: dict | None = None):
    """The reverse of `gnn_layers` from dh, the adjoint of its output (of q_L
    with `linear_last`, where the last layer has no ReLU), given its
    pre-activations `qs` and each weight's transpose in `transposes`.

    Walks layers L-1 down to 0: dq_l = dh_{l+1} relu'(q_l), then, for
    l >= `stop`, dm_l = dq_l W_l^T, the adjoint of h_l + P h_l, and
    dh_l = dm_l + P^T dm_l. Returns (dqs, dms, dh): dq_l of every layer, dm_l
    of layers l >= stop (None below) and the adjoint dh of h_stop. Each
    product by W_l^T is one 2-D product over the rows, whose bits do not
    depend on the stack's leading axes. With `buffers` (see `scratch`) the
    arrays are written into them under keys that name l."""
    dqs, dms = [None] * len(qs), [None] * len(qs)
    for l in reversed(range(len(qs))):
        dq = dqs[l] = (dh if linear_last and l == len(qs) - 1 else
                       np.multiply(dh, qs[l] > 0, out=scratch(buffers, ("dq", l), dh.shape)))
        if l < stop:
            break
        t = transposes[l]
        rows = dq.reshape(-1, t.shape[0])
        dm = np.matmul(rows, t, out=scratch(buffers, ("dm", l), (len(rows), t.shape[1])))
        dm = dms[l] = dm.reshape(dq.shape[:-1] + t.shape[1:])
        dh = np.matmul(np.swapaxes(p, -1, -2), dm, out=scratch(buffers, ("dh", l), dm.shape))
        dh = np.add(dm, dh, out=dh)
    return dqs, dms, dh


def encode(p: np.ndarray, rows: np.ndarray, weights: list[np.ndarray],
           final_linear: bool = False):
    """`gnn_layers` over the (B, m, ·) node rows `rows` of a padded batch
    whose (B, m, m) stack of P is `p`: the encoder, or the decoder with
    `final_linear` (its last layer stays linear, so reconstructions can
    approach binary targets from both sides). Each layer's pre-activation is
    checked, as a ReLU can turn an intermediate -inf into 0; call it inside
    np.errstate.

    Returns (out, back): the (B, m, width) output rows and back(d_out,
    input_grad=True) -> ([dW_l], d_rows or None). The backward is
    `gnn_backward` with the weights' transposed views, and dW_l =
    (h_l + P h_l)^T dq_l over all the batch's rows, the products of the
    layers as tape ops."""
    kept = {}  # gnn_layers' arrays; ("ph", l) holds h_l + P h_l
    hs, qs = gnn_layers(p, rows, weights, kept)
    ad.check_finite("matmul", *qs)

    def back(d_out, input_grad=True):
        dqs, _, d_rows = gnn_backward(p, qs, [w.T for w in weights], d_out, final_linear,
                                      stop=0 if input_grad else 1)
        # one 2-D product over all B*m rows per weight (np.tensordot gives
        # the same bits, but its Python overhead costs about 3% of a distillation)
        dws = [kept["ph", l].reshape(-1, w.shape[0]).T @ dq.reshape(-1, w.shape[1])
               for l, (w, dq) in enumerate(zip(weights, dqs))]
        return dws, d_rows if input_grad else None
    return qs[-1] if final_linear else hs[-1], back


def readout(h: np.ndarray, n):
    """The mean readout of a (B, m, w) stack of node rows: the (B, w) rows
    h.sum(axis=1) / n, n the node count of an unpadded stack (np.mean's bits)
    or the (B,) node counts of a padded one, whose padding rows are zero.
    Where w > 1 the rows are added in order, so a graph's row has the bits
    of its own rows' mean; at w = 1 numpy adds them pairwise and padding can
    move the last bit. Returns (g, back): back(dg) is dg / n broadcast to
    all (B, m, w) rows; a padding row's pre-activation is 0, so a ReLU stops
    it there."""
    n = n if np.isscalar(n) else n[:, None]
    return h.sum(axis=1) / n, lambda dg: np.broadcast_to((dg / n)[:, None], h.shape)


def bind_params(tape: ad.Tape, params: ModelParams) -> dict[str, ad.Tensor]:
    """Place every parameter array on a tape as a trainable leaf, keyed by its
    stable name. No pipeline step calls it; the benchmark's tracer names it."""
    return {name: tape.param(arr) for name, arr in params.named_arrays().items()}


def mlp_logits(g: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """The 2-logit MLP head of the non-contrastive variants and the
    surrogate: (B, 2) logits relu(g W0) W1 of (B, h) embedding rows, each
    product checked. Returns (logits, back): back(dlogits) -> (dg, [dW0,
    dW1]), with the products of the head written as tape ops."""
    pre = g @ w0
    ad.check_finite("matmul", pre)
    mask = pre > 0
    r = np.where(mask, pre, 0.0)
    logits = r @ w1
    ad.check_finite("matmul", logits)

    def back(dlogits):
        dpre = (dlogits @ w1.T) * mask
        return dpre @ w0.T, [g.T @ dpre, r.T @ dlogits]
    return logits, back


def graph_stacks(graphs: list[FeatureGraph]):
    """`graphs` as stacks of one node count n, at most max(1, STACK_ENTRIES //
    n^2) graphs each, by increasing n and then input order: yields (indices,
    P, deg, X), the `edge_propagation` of the graphs[i] for i in indices
    and their (k, n, d) features. Raises ValueError naming the first empty
    graph."""
    runs = {}  # node count -> input indices
    for i, g in enumerate(graphs):
        if g.node_count < 1:
            raise ValueError(f"graph {g.graph_id} is empty")
        runs.setdefault(g.node_count, []).append(i)
    for n, run in sorted(runs.items()):
        cap = max(1, STACK_ENTRIES // (n * n))
        for start in range(0, len(run), cap):
            indices = run[start:start + cap]
            members = [graphs[i] for i in indices]
            yield (indices, *edge_propagation(members, n),
                   np.array([g.features for g in members]))  # np.stack's bytes, faster


def graph_embeddings(graphs: list[FeatureGraph], weights: list[np.ndarray]) -> np.ndarray:
    """(B, h) embeddings of `graphs`: the unmasked encode by `gnn_layers` over
    encoder `weights` and the mean readout, without a tape. Each stack of
    `graph_stacks` is one `edge_propagation` and one `gnn_layers` call, in
    the order of operations of a lone graph, so a graph's row is the same
    bits in any call. Raises NonFiniteError naming the first graph, in input
    order, whose layer pre-activation or embedding norm is not finite; each
    layer is checked because a ReLU can turn an intermediate -inf into 0.
    A stack that fails a check runs every graph of the call alone, in input
    order; if none fails alone, only the stack's summed squares overflowed."""
    out = np.empty((len(graphs), weights[-1].shape[1]))
    for indices, p, _, x in graph_stacks(graphs):
        with np.errstate(over="ignore", invalid="ignore"):
            hs, qs = gnn_layers(p, x, weights)
            g = readout(hs[-1], p.shape[1])[0]
            sq_norm = float(np.vdot(g, g))  # when finite, so is every row's norm
        bad = [l for l, q in enumerate(qs) if not np.isfinite(q).all()]
        if bad or not math.isfinite(sq_norm):
            if len(graphs) == 1:
                what = (f"encoder layer {bad[0]} output is not finite" if bad
                        else "embedding norm overflows")
                raise ad.NonFiniteError(f"graph {graphs[0].graph_id}: {what}")
            for graph in graphs:
                graph_embeddings([graph], weights)
        if len(indices) == len(graphs):  # one stack holds the graphs in input order
            return g
        out[indices] = g
    return out


def graph_embedding(graph: FeatureGraph, weights: list[np.ndarray]) -> np.ndarray:
    """The (h,) embedding of one graph, by `graph_embeddings`."""
    return graph_embeddings([graph], weights)[0]


def proxy_head(p0: np.ndarray, p1: np.ndarray):
    """The proxy family's score head. A score head maps (B, h) rows g to the
    (B,) benign and malicious scores (s0, s1); head(g, grad=True) adds the
    (B, h) gradient of the margin s0 - s1 by g. It multiplies the rows as a
    (B, 1, h) stack, g[:, None] @ w: B 1-row products, which give a row the
    same bits in any batch, where BLAS picks its kernel for a plain (B, h)
    product by B. Here the scores are cosines to the proxies; a row whose
    norm is clamped gets none through its norm. A proxy whose norm overflows
    would give every row a cosine of 0 to it, so scoring rows then raises
    NonFiniteError naming the proxy; building the head does not, so that a
    caller's encoder checks can run first."""
    n0 = max(float(np.linalg.norm(p0)), ad.NORM_CLAMP)
    n1 = max(float(np.linalg.norm(p1)), ad.NORM_CLAMP)
    diverged = [name for name, norm in (("proxy_benign", n0), ("proxy_malicious", n1))
                if not math.isfinite(norm)]
    proxies = np.stack([p0, p1], axis=1)
    du = p0 / n0 - p1 / n1  # gn times the margin's gradient, less its radial part

    def head(g, grad=False):
        if diverged:
            raise ad.NonFiniteError(f"{diverged[0]} has a norm that overflows")
        raw = np.sqrt(np.add.reduce(g * g, axis=1))  # np.linalg.norm, less overhead
        gn = np.maximum(raw, ad.NORM_CLAMP)
        dots = g[:, None] @ proxies
        c0, c1 = dots[:, 0, 0] / (gn * n0), dots[:, 0, 1] / (gn * n1)
        if not grad:
            return c0, c1
        live = raw > ad.NORM_CLAMP
        return c0, c1, (du - g * ((c0 - c1) * live / gn)[:, None]) / gn[:, None]
    return head


def logits_head(w0: np.ndarray, w1: np.ndarray):
    """The MLP family's score head: the logits relu(g W0) W1."""
    u = w1[:, 0] - w1[:, 1]  # the margin's weights on the hidden layer
    w0t = np.ascontiguousarray(w0.T)

    def head(g, grad=False):
        pre = g[:, None] @ w0
        s = np.maximum(pre, 0.0) @ w1
        s0, s1 = s[:, 0, 0], s[:, 0, 1]
        return (s0, s1, ((u * (pre > 0)) @ w0t)[:, 0]) if grad else (s0, s1)
    return head


def score_head(params: ModelParams):
    """The detector's head: its MLP head when one is attached, else its proxies."""
    if params.head_weights is not None:
        return logits_head(*params.head_weights)
    return proxy_head(params.proxy_benign, params.proxy_malicious)


def classify_rows(head, g: np.ndarray, graph_ids: list[str]):
    """(labels, s0, s1), three (B,) arrays, of the (B, h) embedding rows `g` of
    graphs `graph_ids` under `head`; ties go to malicious. Raises
    NonFiniteError naming the first graph whose score is not finite (weights
    that overflow)."""
    s0, s1 = head(g)
    finite = np.isfinite(s0) & np.isfinite(s1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ad.NonFiniteError(f"graph {graph_ids[i]}: scores ({float(s0[i])}, "
                                f"{float(s1[i])}) are not finite")
    return (s1 >= s0).astype(int), s0, s1


def score_graphs(graphs: list[FeatureGraph], weights: list[np.ndarray], head):
    """(embeddings, labels, s0, s1) of `graphs`: `graph_embeddings` under
    encoder `weights`, then `classify_rows` under `head`. Raises
    NonFiniteError naming the first graph, in input order, whose embedding
    or scores are not finite: when an embedding fails, each graph is scored
    again alone, in order, as `predict` does, to find it."""
    try:
        rows = graph_embeddings(graphs, weights)
    except ad.NonFiniteError:
        if len(graphs) > 1:
            for graph in graphs:
                score_graphs([graph], weights, head)
        raise
    return (rows,) + classify_rows(head, rows, [graph.graph_id for graph in graphs])


def predict(graph: FeatureGraph, params: ModelParams) -> tuple[int, float, float]:
    """Full unmasked forward, classified by the detector's head. The head is
    built on every call, as training updates `params` in place."""
    g = graph_embedding(graph, params.encoder_weights)  # first: it names an overflow
    labels, s0, s1 = classify_rows(score_head(params), g[None], [graph.graph_id])
    return int(labels[0]), float(s0[0]), float(s1[0])


def _encode_array(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, ndim: int) -> np.ndarray:
    """A tensor entry {"shape": [...], "data": base64 float64 bytes} of rank
    `ndim`; ValueError says what is wrong with it."""
    if not isinstance(obj, dict):
        raise ValueError("must be an object with 'shape' and 'data'")
    shape, data = obj.get("shape"), obj.get("data")
    if (not isinstance(shape, list) or len(shape) != ndim
            or not all(type(k) is int and k >= 0 for k in shape)):
        raise ValueError(f"'shape' must be a list of {ndim} non-negative integers")
    if not isinstance(data, str):
        raise ValueError("'data' must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"'data' is not base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"'data' holds {len(raw)} bytes; shape {shape} needs "
                         f"{8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    """Single-file checkpoint: versioned header, run metadata, and every
    parameter tensor as named base64 float64 bytes. Round-trips bit-exactly."""
    params.validate()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "feature_dim": params.feature_dim,
        "hidden_dim": params.hidden_dim,
        "encoder_layers": len(params.encoder_weights),
        "decoder_layers": len(params.decoder_weights),
        "has_head": params.head_weights is not None,
        "meta": meta,
        "tensors": {name: _encode_array(arr)
                    for name, arr in params.named_arrays().items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload) + "\n")


def _field(payload: dict, path, name: str, ok, what: str):
    """payload[name], which must be present and pass `ok`."""
    if name not in payload:
        raise ValueError(f"{path}: checkpoint field {name!r} is missing")
    if not ok(payload[name]):
        raise ValueError(f"{path}: checkpoint field {name!r} must be {what}")
    return payload[name]


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by `save_checkpoint`. Anything malformed,
    missing or inconsistent raises ValueError naming the file and the field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed or too deeply nested
        raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    dims = {name: _field(payload, path, name, lambda v: type(v) is int and v >= 1,
                         "a positive integer")
            for name in ("feature_dim", "hidden_dim", "encoder_layers", "decoder_layers")}
    has_head = _field(payload, path, "has_head", lambda v: isinstance(v, bool),
                      "true or false")
    meta = _field(payload, path, "meta", lambda v: isinstance(v, dict), "an object")
    entries = _field(payload, path, "tensors", lambda v: isinstance(v, dict), "an object")
    enc_n, dec_n = dims["encoder_layers"], dims["decoder_layers"]
    if enc_n + dec_n > len(entries):
        raise ValueError(f"{path}: {enc_n} encoder and {dec_n} decoder layers need "
                         f"more tensors than the {len(entries)} present")
    layers = ([f"encoder.{i}" for i in range(enc_n)]
              + [f"decoder.{i}" for i in range(dec_n)]
              + (["head.0", "head.1"] if has_head else []))
    vectors = ["mask_token", "proxy_benign", "proxy_malicious"]
    missing = [name for name in layers + vectors if name not in entries]
    if missing:
        raise ValueError(f"{path}: tensor {missing[0]!r} is missing")
    extra = sorted(set(entries) - set(layers + vectors))
    if extra:
        raise ValueError(f"{path}: unexpected tensor {extra[0]!r}")
    tensors = {}
    for names, ndim in ((layers, 2), (vectors, 1)):
        for name in names:
            try:
                tensors[name] = _decode_array(entries[name], ndim)
            except ValueError as exc:
                raise ValueError(f"{path}: tensor {name!r}: {exc}") from None
    params = ModelParams(
        encoder_weights=[tensors[f"encoder.{i}"] for i in range(enc_n)],
        decoder_weights=[tensors[f"decoder.{i}"] for i in range(dec_n)],
        mask_token=tensors["mask_token"],
        proxy_benign=tensors["proxy_benign"],
        proxy_malicious=tensors["proxy_malicious"],
        head_weights=[tensors["head.0"], tensors["head.1"]] if has_head else None,
    )
    try:
        params.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for name in ("feature_dim", "hidden_dim"):
        if dims[name] != getattr(params, name):
            raise ValueError(f"{path}: checkpoint field {name!r} is {dims[name]}, "
                             f"but the tensors have {getattr(params, name)}")
    return params, meta
