"""Joint optimization loop, ablation variants and metrics.

One minibatch loop (`minibatch_epoch`) trains the detector and the attack's
distilled surrogate: per epoch the graphs are reshuffled, each batch, its
graphs padded into (B, m, ·) stacks (`model.batch_graphs`), gives the
gradient of the sum of its per-graph losses, and the optimizer steps once on
that gradient over the batch size, the mean. Each model's batch is one
function with a hand-written backward: `detector_batch_grads` here, and
`attacks.surrogate_batch_grads` for the surrogate, both built from
`model.encode` (an encoder or decoder pass, `model.gnn_layers` forward and
`model.gnn_backward` backward), `model.mlp_logits` and the losses of
`losses`. The detector draws each graph's mask plan from the permutation's
generator, in batch order, before the batch runs; its classifier term reads
the encoder output on the masked input, the pass that feeds the decoder,
and validation takes predict's labels. When a batch goes non-finite,
`per_graph_on_error` runs each graph alone with what was drawn for it, to
name the graph and op. Training stops after `early_stop_patience` epochs
without a better val F1, or at F1 1.0. Each run counts its masked and
decoded graphs: a batch masks and decodes each graph it has a plan for.

The proxy-contrast term is class-balanced: a graph of class c weighs
N / (k * N_c), for N training graphs over k classes, so each proxy receives
the same total pull whatever the class ratio. The term is bounded and
saturates, so without the weights the minority (malicious) proxy is trained
by a tenth of the signal at a 9:1 ratio and malicious graphs end up close to
the decision boundary.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import model as M
from .graphdata import FeatureGraph
from .losses import contrastive_loss, cross_entropy_logits, reconstruction_loss

VARIANTS = ("full", "minus_c", "minus_r", "minus_cr")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard


class TrainingDiverged(RuntimeError):
    """The loss went non-finite; carries epoch/graph context."""


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.8
    learning_rate: float = 0.001
    layers: int = 2
    hidden: int = 128
    lambda1: float = 1.0
    lambda2: float = 1.0
    max_epochs: int = 200
    early_stop_patience: int = 20
    batch_size: int = 32
    rng_seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        for name in ("learning_rate", "lambda1", "lambda2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie strictly between 0 and 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be positive")
        if self.layers < 1 or self.hidden < 1:
            raise ValueError("layers and hidden must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lambda2 == 0 and (self.lambda1 == 0 or not self.uses_masking):
            unused = "" if self.uses_masking else ", which does not use lambda1,"
            raise ValueError(f"lambda1={self.lambda1} and lambda2={self.lambda2} give "
                             f"variant {self.variant!r}{unused} a zero objective")

    @property
    def uses_masking(self) -> bool:
        return self.variant in ("full", "minus_c")

    @property
    def uses_proxies(self) -> bool:
        return self.variant in ("full", "minus_r")


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    accuracy: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        accuracy = (tp + tn) / (tp + fp + tn + fn)
        return cls(tp, fp, tn, fn, precision, recall, f1, accuracy)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    rec_loss: float
    val_f1: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    stopping_epoch: int = 0
    best_epoch: int = 0
    best_val_f1: float = 0.0
    counter_delta: dict = field(default_factory=dict)
    variant: str = "full"


class Adam:
    """Adaptive moment estimation over a named parameter dict."""

    def __init__(self, arrays: dict[str, np.ndarray], learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, arr in arrays.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            arr -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def minibatch_epoch(arrays: dict[str, np.ndarray], optimizer: Adam,
                    graphs: list[FeatureGraph], batch_size: int,
                    rng: np.random.Generator, batch_grads) -> None:
    """One epoch over `graphs` in a fresh permutation drawn from `rng`.

    `batch_grads(batch)` returns {name: gradient}: the gradient of the sum
    of the batch's graph losses by each array of `arrays`. `optimizer` steps
    once per batch, on the gradient of their mean."""
    order = rng.permutation(len(graphs))
    for start in range(0, len(order), batch_size):
        batch = [graphs[i] for i in order[start:start + batch_size]]
        grads = batch_grads(batch)
        scale = 1.0 / len(batch)
        optimizer.step(arrays, {name: g * scale for name, g in grads.items()})


def per_graph_on_error(build, members: list):
    """`build(members)` for the members (graph, ...) of one batch. On a
    NonFiniteError each member is built again alone, as a batch of one with
    what was drawn for it, and the error of the first that fails is raised
    again naming its graph; the op is named by the error itself."""
    try:
        return build(members)
    except ad.NonFiniteError as exc:
        for member in members:
            try:
                build([member])
            except ad.NonFiniteError as alone:
                raise ad.NonFiniteError(f"graph {member[0].graph_id}: {alone}") from exc
        ids = ", ".join(member[0].graph_id for member in members)
        raise ad.NonFiniteError(f"batch of graphs {ids}: {exc}") from exc


def proxy_class_weights(graphs: list[FeatureGraph]) -> dict[int, float]:
    """Per-class weight N / (k * N_c) of the proxy-contrast term."""
    counts = Counter(g.label for g in graphs)
    return {c: len(graphs) / (len(counts) * n) for c, n in counts.items()}


def draw_plans(graphs: list[FeatureGraph], config: TrainConfig,
               rng: np.random.Generator) -> list[M.MaskPlan | None]:
    """Each graph's mask plan, drawn from `rng` in order; None where the
    variant does not mask or the graph has a single node."""
    return [M.sample_mask(g.node_count, config.gamma, rng)
            if config.uses_masking and g.node_count >= 2 else None
            for g in graphs]


def detector_batch_grads(members: list[tuple[FeatureGraph, M.MaskPlan | None]],
                         params: M.ModelParams, config: TrainConfig,
                         class_weights: dict[int, float]):
    """(joint, rec, {name: gradient}) of a padded batch of (graph, mask
    plan) members: the sum of their joint losses lambda1 * rec + lambda2 *
    contrast (cross-entropy for the MLP-head variants), the sum of their
    reconstruction losses (0 when no member is masked), and the gradient of
    `joint` by each parameter, zeros where it reads none. One (B, m) mask of
    the planned rows drives the mask-token write, the decoder's zeroed
    input, its zeroed adjoint and the mask token's gradient.

    The backward runs in the reverse order of the ops a tape would record,
    with their products, so it gives their bits; the values a tape checks
    are checked under its op names, in forward order."""
    arrays = params.named_arrays()
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise ad.NonFiniteError("leaf tensor contains non-finite values")
    graphs = [g for g, _ in members]
    labels = [g.label for g in graphs]
    p, x, sizes = M.batch_graphs(graphs)
    mask = np.zeros(x.shape[:2], dtype=bool)  # (B, m): the masked node rows
    for b, (_, plan) in enumerate(members):
        if plan is not None:
            mask[b, list(plan.masked)] = True
    masked = bool(mask.any())
    grads = {name: None for name in arrays}
    with np.errstate(over="ignore", invalid="ignore"):  # blowups become NonFiniteError
        xin = x
        if masked:  # masked rows read the mask token
            xin = x.copy()
            xin[mask] = params.mask_token
        h, enc_back = M.encode(p, xin, params.encoder_weights)
        g, read_back = M.readout(h, sizes)
        ad.check_finite("readout", g)
        if config.uses_proxies:
            cl, cl_back = contrastive_loss(g, labels, params.proxy_benign,
                                           params.proxy_malicious,
                                           [class_weights[y] for y in labels])
        else:
            logits, head_back = M.mlp_logits(g, *params.head_weights)
            cl, ce_back = cross_entropy_logits(logits, labels)
        rec = 0.0
        if masked:  # the decoder reads the masked rows as zeros
            remasked = h.copy()
            remasked[mask] = 0.0
            z, dec_back = M.encode(p, remasked, params.decoder_weights, final_linear=True)
            # flat views: the masked rows in batch order, each graph's in
            # its plan's (sorted) order, weighed by 1 / its masked count
            counts = mask.sum(axis=1)
            row_weights = np.repeat(1.0 / np.maximum(counts, 1), counts)
            rec, rec_back = reconstruction_loss(x.reshape(-1, x.shape[2]),
                                                z.reshape(-1, z.shape[2]),
                                                np.flatnonzero(mask), row_weights)
        lam1, lam2 = float(config.lambda1), float(config.lambda2)
        parts = rec * lam1, cl * lam2
        ad.check_finite("scale", *parts)
        joint = parts[0] + parts[1]
        ad.check_finite("add", joint)

        if config.uses_proxies:
            dg, grads["proxy_benign"], grads["proxy_malicious"] = cl_back(lam2)
        else:
            dg, (grads["head.0"], grads["head.1"]) = head_back(ce_back(lam2))
        dh = read_back(dg)
        if masked:
            dws, dh_dec = dec_back(rec_back(lam1).reshape(z.shape))
            dh_dec[mask] = 0.0
            dh = dh_dec + dh
            grads.update((f"decoder.{l}", dw) for l, dw in enumerate(dws))
        dws, dx = enc_back(dh, input_grad=masked)
        grads.update((f"encoder.{l}", dw) for l, dw in enumerate(dws))
        if masked:
            grads["mask_token"] = dx[mask].sum(axis=0)
    return joint, rec, {name: np.zeros_like(arrays[name]) if grad is None else grad
                        for name, grad in grads.items()}


def train(train_graphs: list[FeatureGraph], val_graphs: list[FeatureGraph],
          config: TrainConfig) -> tuple[M.ModelParams, TrainReport]:
    """Run the variant's objective until val F1 stops improving or is 1.0.

    Returns the checkpoint of the first epoch with the best F1 (not the last
    epoch's parameters) and the per-epoch report. Raises TrainingDiverged on
    a non-finite loss.
    """
    if not train_graphs or not val_graphs:
        raise ValueError("train and validation sets must be nonempty")
    dims = {g.feature_dim for g in train_graphs} | {g.feature_dim for g in val_graphs}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature widths across graphs: {sorted(dims)}")

    params = M.init_params(dims.pop(), config.hidden, config.layers, config.rng_seed)
    if not config.uses_proxies:
        M.init_head(params, config.rng_seed + 1)
    arrays = params.named_arrays()
    optimizer = Adam(arrays, config.learning_rate)
    rng = np.random.default_rng(config.rng_seed)
    class_weights = proxy_class_weights(train_graphs)

    counts = {"mask_samples": 0, "decoder_passes": 0}
    report = TrainReport(variant=config.variant, counter_delta=counts)
    best_params = params.copy()
    best_f1, best_epoch = -1.0, 0

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        sums = {"loss": 0.0, "rec": 0.0, "rec_graphs": 0}

        def batch_grads(batch):
            members = list(zip(batch, draw_plans(batch, config, rng)))
            joint, rec, grads = per_graph_on_error(
                lambda ms: detector_batch_grads(ms, params, config, class_weights), members)
            planned = sum(plan is not None for _, plan in members)
            sums["loss"] += float(joint)
            sums["rec"] += float(rec)
            sums["rec_graphs"] += planned
            counts["mask_samples"] += planned
            counts["decoder_passes"] += planned
            return grads

        try:
            minibatch_epoch(arrays, optimizer, train_graphs, config.batch_size, rng,
                            batch_grads)
        except ad.NonFiniteError as exc:  # the message names the graph
            raise TrainingDiverged(f"epoch {epoch}, {exc}") from exc
        try:
            val_f1 = evaluate(params, val_graphs).f1
        except ad.NonFiniteError as exc:
            raise TrainingDiverged(f"epoch {epoch}, validation pass: {exc}") from exc
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=sums["loss"] / len(train_graphs),
            rec_loss=sums["rec"] / sums["rec_graphs"] if sums["rec_graphs"] else 0.0,
            val_f1=val_f1,
            seconds=time.perf_counter() - tic,
        ))
        if val_f1 > best_f1:  # a tie keeps the earlier epoch
            best_f1, best_epoch = val_f1, epoch
            best_params = params.copy()
        if best_f1 >= 1.0 or epoch - best_epoch >= config.early_stop_patience:
            break

    report.stopping_epoch = report.epochs[-1].epoch
    report.best_epoch = best_epoch
    report.best_val_f1 = best_f1
    return best_params, report


def evaluate(params: M.ModelParams, graphs: list[FeatureGraph]) -> Metrics:
    """Confusion counts of predict's labels, from one forward per stack of
    graphs of one node count (`model.score_graphs`); malicious is positive."""
    if not graphs:
        raise ValueError("evaluate needs at least one graph")
    # The head is built before the encoder runs and raises nothing: a proxy
    # norm that overflows is reported when the head scores rows, after the
    # encoder's checks of each graph, in predict's order.
    with np.errstate(over="ignore"):
        head = M.score_head(params)
    pred = M.score_graphs(graphs, params.encoder_weights, head)[1] == 1
    truth = np.array([g.label for g in graphs]) == 1
    return Metrics.from_counts(*(int(np.count_nonzero(c)) for c in (
        pred & truth, pred & ~truth, ~pred & ~truth, ~pred & truth)))
