"""Joint optimization loop, ablation variants and metrics.

One minibatch loop (`minibatch_epoch`) trains the detector and the attack's
distilled surrogate: per epoch the graphs are reshuffled, and each batch is
one tape, over its graphs padded and stacked (`model.GraphBatch`), on which
each encoder or decoder pass is one op (`model.gnn_layers` forward,
`model.gnn_backward` backward), and whose scalar is the sum of the
per-graph losses; the optimizer steps once on its gradient over the batch
size, the mean. The detector draws each graph's mask
plan from the permutation's generator, in batch order, before the tape is
built; its classifier term reads the encoder output on the masked input, the
pass that feeds the decoder, and validation takes predict's labels.
When a batch tape goes non-finite, `batch_tape` replays each graph alone
with what was drawn for it, to name the graph and op. Training stops after
`early_stop_patience` epochs without a better val F1, or at F1 1.0. Each run
counts its masked and decoded graphs from its tapes.

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
from .losses import (LossWeights, contrastive_loss, cross_entropy_logits,
                     joint_loss, reconstruction_loss)

VARIANTS = ("full", "minus_c", "minus_r", "minus_cr")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator guard


class TrainingDiverged(RuntimeError):
    """The loss went non-finite; carries epoch/graph context."""


@dataclass
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

    def validate(self) -> None:
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

    def effective_weights(self) -> LossWeights:
        lam1 = self.lambda1 if self.uses_masking else 0.0
        return LossWeights(lam1, self.lambda2)


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
                    rng: np.random.Generator, batch_loss) -> None:
    """One epoch over `graphs` in a fresh permutation drawn from `rng`.

    `batch_loss(batch)` returns (tape, bound, loss): one tape for the whole
    batch whose scalar `loss` is the sum of its graphs' losses, with `bound`
    mapping parameter names of `arrays` to their tensors on it. `optimizer`
    steps once per batch, on the gradient of their mean."""
    order = rng.permutation(len(graphs))
    for start in range(0, len(order), batch_size):
        batch = [graphs[i] for i in order[start:start + batch_size]]
        tape, bound, loss = batch_loss(batch)
        grads = ad.backward(tape, loss)
        scale = 1.0 / len(batch)
        optimizer.step(arrays, {name: grads[t.tid] * scale for name, t in bound.items()})


def batch_tape(build, members: list):
    """`build(members)` for members (graph, ...) of one batch. On a
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


def _reads(tape: ad.Tape, tensor: ad.Tensor) -> bool:
    """Whether a recorded op of `tape` takes `tensor` as an input."""
    return any(tensor.tid in rec.input_ids for rec in tape.records)


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


def detector_loss_tape(members: list[tuple[FeatureGraph, M.MaskPlan | None]],
                    params: M.ModelParams, config: TrainConfig,
                    class_weights: dict[int, float]):
    """One tape over a padded batch of (graph, mask plan) members.

    Returns (tape, bound, joint, rec): `joint` is the sum of the members'
    joint losses and `rec` the sum of their reconstruction losses (a
    constant 0 when no member is masked). Encoder and decoder share the
    batch's one propagation stack."""
    graphs = [g for g, _ in members]
    batch = M.batch_graphs(graphs)
    tape = ad.Tape()
    bound = M.bind_params(tape, params)
    x = tape.constant(batch.features)

    masked, row_weights = [], []
    for b, (_, plan) in enumerate(members):
        if plan is not None:
            masked += batch.rows(b, plan.masked)
            row_weights += [1.0 / len(plan.masked)] * len(plan.masked)
    plan = M.MaskPlan(tuple(masked))
    h = M.encode(batch, M.apply_mask(x, plan, bound["mask_token"]),
                 M.encoder_tensors(bound))
    g = M.readout(h, batch)

    labels = [graph.label for graph in graphs]
    if config.uses_proxies:
        cl = contrastive_loss(g, labels, bound["proxy_benign"], bound["proxy_malicious"],
                              [class_weights[y] for y in labels])
    else:
        cl = cross_entropy_logits(M.head_logits(g, M.head_tensors(bound)), labels)

    if masked:
        z = M.decode(batch, M.remask(h, plan), M.decoder_tensors(bound))
        rec = reconstruction_loss(x, z, plan, row_weights)
    else:
        rec = tape.constant(0.0)
    return tape, bound, joint_loss(rec, cl, config.effective_weights()), rec


def train(train_graphs: list[FeatureGraph], val_graphs: list[FeatureGraph],
          config: TrainConfig) -> tuple[M.ModelParams, TrainReport]:
    """Run the variant's objective until val F1 stops improving or is 1.0.

    Returns the checkpoint of the first epoch with the best F1 (not the last
    epoch's parameters) and the per-epoch report. Raises TrainingDiverged on
    a non-finite loss.
    """
    config.validate()
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

        def batch_loss(batch):
            members = list(zip(batch, draw_plans(batch, config, rng)))
            tape, bound, joint, rec = batch_tape(
                lambda ms: detector_loss_tape(ms, params, config, class_weights), members)
            planned = sum(plan is not None for _, plan in members)
            sums["loss"] += float(joint.value)
            sums["rec"] += float(rec.value)
            sums["rec_graphs"] += planned
            counts["mask_samples"] += planned * _reads(tape, bound["mask_token"])
            counts["decoder_passes"] += planned * _reads(tape, bound["decoder.0"])
            return tape, bound, joint

        try:
            minibatch_epoch(arrays, optimizer, train_graphs, config.batch_size, rng,
                            batch_loss)
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
