"""The trained models' batch losses as tape ops: the bit reference of the
hand-written steps (`training.detector_batch_grads`,
`attacks.surrogate_batch_grads`). It is a helper, not a test module; pytest
does not collect it.

This is the tape the package trained on before its steps were written by
hand, with the readout the package now has: each encoder or decoder pass is
one op (`layer_op`, forward `model.gnn_layers`, backward
`model.gnn_backward`), which test_layer_op_gives_the_bits_of_per_op_layers
checks against layers of one op per step; the readout is one op, a mean
per graph written apart from `model.readout`; masking, head and losses are
primitive ops. The tape holds a batch's nodes as B*m rank-2 rows, graph
b's block being rows b*m .. b*m + m - 1, so the ops here flatten the
package's (B, m, ·) stacks themselves. The per-op layers are no reference
for every batch: at hidden width 1 after an input width of 12, on a
32-graph batch of desk graphs, they give the first weight another gradient.
"""
import numpy as np

from graphsentry import autodiff as ad
from graphsentry import model as M
from graphsentry.attacks import _degree_summaries


def layer_op(features, p, weights, final_linear):
    """`gnn_layers` over a batch's B*m rows as one tape op, P the batch's
    (B, m, m) stack; the last layer may stay linear. Its backward is
    `gnn_backward`, with the weights' transposed views, and dW_l =
    (h_l + P h_l)^T dq_l."""
    count, m, _ = p.shape
    xv = features.value
    ws = [w.value for w in weights]
    kept = {}
    with np.errstate(over="ignore", invalid="ignore"):
        hs, qs = M.gnn_layers(p, xv.reshape(count, m, -1), ws, kept)
    ad.check_finite("matmul", *qs)
    out = qs[-1] if final_linear else hs[-1]
    stop = 0 if features.requires_grad else 1

    def backward(g):
        dqs, _, dx = M.gnn_backward(p, qs, [w.T for w in ws], g.reshape(out.shape),
                                    final_linear, stop)
        grads = [(w.tid, kept["ph", l].reshape(-1, w.shape[0]).T
                  @ dq.reshape(-1, w.shape[1]))
                 for l, (w, dq) in enumerate(zip(weights, dqs))]
        if stop == 0:
            grads.append((features.tid, dx.reshape(xv.shape)))
        return grads

    return features.tape.emit("gnn_layers", (features, *weights),
                              out.reshape(count * m, -1), backward)


def apply_mask(features, plan, mask_token):
    """Replace masked rows with the mask token; gradient reaches the token."""
    if not plan.masked:
        return features
    tiled = ad.tile_rows(mask_token, len(plan.masked))
    return ad.scatter_rows(features, list(plan.masked), tiled)


def remask(embeddings, plan):
    """Zero the masked rows before decoding. The zero is a constant, so no
    gradient flows back into the encoder through these rows."""
    if not plan.masked:
        return embeddings
    zeros = embeddings.tape.constant(np.zeros((len(plan.masked), embeddings.shape[1])))
    return ad.scatter_rows(embeddings, list(plan.masked), zeros)


def readout(node_embeddings, sizes):
    """Mean pooling as one op: (B, h) rows, row b the sum of graph b's block
    of m rows, its n_b rows and zero padding, over n_b. Its backward gives
    each of graph b's rows dg_b / n_b and the padding rows nothing.

    The block is summed whole because np.sum adds the rows pairwise when
    they are one number wide, and then the trailing zeros change the
    grouping of the graph's own rows and so its last bits."""
    blocks = node_embeddings.value.reshape(len(sizes), -1, node_embeddings.shape[1])
    sizes = [int(n) for n in sizes]

    def backward(g):
        grad = np.zeros_like(blocks)
        for b, n in enumerate(sizes):
            grad[b, :n] = g[b] / n
        return [(node_embeddings.tid, grad.reshape(node_embeddings.shape))]

    return node_embeddings.tape.emit(
        "readout", (node_embeddings,),
        np.array([blocks[b].sum(axis=0) / n for b, n in enumerate(sizes)]), backward)


def head_logits(g, head_weights):
    """(B, 2) logits relu(g W0) W1 of (B, h) embedding rows."""
    return ad.matmul(ad.relu(ad.matmul(g, head_weights[0])), head_weights[1])


def reconstruction_loss(x, z, plan, row_weights):
    """Sum over masked rows v of w_v (1 - cos(x_v, z_v))^2."""
    idx = list(plan.masked)
    cos = ad.row_cosine(ad.gather_rows(x, idx), ad.gather_rows(z, idx))
    ones = x.tape.constant(np.ones(len(idx)))
    return ad.dot(ad.square(ad.sub(ones, cos)), x.tape.constant(row_weights))


def contrastive_loss(g, y, p0, p1, weights=None):
    """Sum over rows of w (y - cos(g, p1))^2 + w (1 - y - cos(g, p0))^2."""
    count = g.value.shape[0]
    labels = np.asarray(y, dtype=np.float64)
    tape = g.tape
    c0 = ad.row_cosine(g, ad.tile_rows(p0, count))
    c1 = ad.row_cosine(g, ad.tile_rows(p1, count))
    terms = ad.add(ad.square(ad.sub(tape.constant(labels), c1)),
                   ad.square(ad.sub(tape.constant(1.0 - labels), c0)))
    w = np.ones(count) if weights is None else np.asarray(weights, dtype=np.float64)
    return ad.dot(terms, tape.constant(w))


def cross_entropy_logits(logits, y):
    """Summed two-class cross-entropy, logsumexp(logits - max) - logit_y."""
    tape = logits.tape
    shift = tape.constant(np.repeat(logits.value.max(axis=1, keepdims=True), 2, axis=1))
    shifted = ad.sub(logits, shift)
    lse = ad.log(ad.matmul(ad.exp(shifted), tape.constant(np.ones((2, 1)))))
    pick = tape.constant(np.eye(2)[np.asarray(y, dtype=np.intp)])
    return ad.sub(ad.sum_all(lse), ad.sum_all(ad.mul(shifted, pick)))


def layer_tensors(bound, prefix):
    """Layers `prefix.0`, `prefix.1`, ... in index order."""
    layers = []
    while f"{prefix}.{len(layers)}" in bound:
        layers.append(bound[f"{prefix}.{len(layers)}"])
    return layers


def detector_loss_tape(members, params, config, class_weights):
    """(joint, rec, {name: gradient}) of a padded batch of (graph, mask plan)
    members, as `training.detector_batch_grads` returns them, from one tape.
    lambda1 weighs the reconstruction for the masking variants only."""
    graphs = [g for g, _ in members]
    p, features, sizes = M.batch_graphs(graphs)
    count, m, d = features.shape
    tape = ad.Tape()
    bound = M.bind_params(tape, params)
    x = tape.constant(features.reshape(count * m, d))
    masked, row_weights = [], []
    for b, (_, plan) in enumerate(members):
        if plan is not None:
            masked += [b * m + int(i) for i in plan.masked]
            row_weights += [1.0 / len(plan.masked)] * len(plan.masked)
    plan = M.MaskPlan(tuple(masked))
    h = layer_op(apply_mask(x, plan, bound["mask_token"]), p,
                 layer_tensors(bound, "encoder"), final_linear=False)
    g = readout(h, sizes)
    labels = [graph.label for graph in graphs]
    if config.uses_proxies:
        cl = contrastive_loss(g, labels, bound["proxy_benign"], bound["proxy_malicious"],
                              [class_weights[y] for y in labels])
    else:
        cl = cross_entropy_logits(head_logits(g, layer_tensors(bound, "head")), labels)
    if masked:
        z = layer_op(remask(h, plan), p, layer_tensors(bound, "decoder"),
                     final_linear=True)
        rec = reconstruction_loss(x, z, plan, row_weights)
    else:
        rec = tape.constant(0.0)
    lam1 = config.lambda1 if config.uses_masking else 0.0
    joint = ad.add(ad.scale(rec, lam1), ad.scale(cl, config.lambda2))
    grads = ad.backward(tape, joint)
    return joint.value, rec.value, {name: grads[t.tid] for name, t in bound.items()}


def surrogate_loss_tape(sp, members):
    """(loss, {name: gradient}) of a batch of (graph, label) members, as
    `attacks.surrogate_batch_grads` returns them, from one tape. A GNN
    surrogate runs on the padded batch of `model.batch_graphs`."""
    tape = ad.Tape()
    bound = {k: tape.param(v) for k, v in sp.weights.items()}
    graphs = [g for g, _ in members]
    if sp.architecture == "gnn2_mlp":
        p, x, sizes = M.batch_graphs(graphs)
        rows = tape.constant(x.reshape(-1, x.shape[2]))
        g = readout(layer_op(rows, p, [bound["enc.0"], bound["enc.1"]], False), sizes)
    else:
        g = tape.constant(_degree_summaries(graphs))
    loss = cross_entropy_logits(head_logits(g, [bound["head.0"], bound["head.1"]]),
                                [y for _, y in members])
    grads = ad.backward(tape, loss)
    return loss.value, {name: grads[t.tid] for name, t in bound.items()}
