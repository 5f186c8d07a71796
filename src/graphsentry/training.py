"""Joint optimization loop, ablation variants and metrics.

One minibatch loop (`minibatch_epoch`) trains the detector and the attack's
distilled surrogate: per epoch the graphs are reshuffled, and each batch sums
one tape's gradients per graph before one optimizer step on their mean. The
detector draws its mask plans from the permutation's generator; its
classifier term reads the encoder output on the masked input, the pass that
feeds the decoder, and validation runs the unmasked predict path. Training
stops after `early_stop_patience` epochs without a better val F1, or at F1
1.0. Each run counts its mask samples and decoder passes from its tapes.

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

    def __init__(self, arrays: dict[str, np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, arr in arrays.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            arr -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def minibatch_epoch(arrays: dict[str, np.ndarray], optimizer: Adam,
                    graphs: list[FeatureGraph], batch_size: int,
                    rng: np.random.Generator, graph_loss) -> None:
    """One epoch over `graphs` in a fresh permutation drawn from `rng`.

    `graph_loss(graph)` returns (tape, bound, loss): one tape per graph, with
    `bound` mapping parameter names of `arrays` to their tensors on it. Each
    batch's gradients are summed by name and `optimizer` steps once on their
    mean. A NonFiniteError is re-raised naming the graph."""
    order = rng.permutation(len(graphs))
    for start in range(0, len(order), batch_size):
        batch = [graphs[i] for i in order[start:start + batch_size]]
        grad_sums = {k: np.zeros_like(v) for k, v in arrays.items()}
        for graph in batch:
            try:
                tape, bound, loss = graph_loss(graph)
            except ad.NonFiniteError as exc:
                raise ad.NonFiniteError(f"graph {graph.graph_id}: {exc}") from exc
            grads = ad.backward(tape, loss)
            for name, tensor in bound.items():
                grad_sums[name] += grads[tensor.tid]
        scale = 1.0 / len(batch)
        optimizer.step(arrays, {k: g * scale for k, g in grad_sums.items()})


def _reads(tape: ad.Tape, tensor: ad.Tensor) -> bool:
    """Whether a recorded op of `tape` takes `tensor` as an input."""
    return any(tensor.tid in rec.input_ids for rec in tape.records)


def proxy_class_weights(graphs: list[FeatureGraph]) -> dict[int, float]:
    """Per-class weight N / (k * N_c) of the proxy-contrast term."""
    counts = Counter(g.label for g in graphs)
    return {c: len(graphs) / (len(counts) * n) for c, n in counts.items()}


def _graph_loss(graph: FeatureGraph, params: M.ModelParams, config: TrainConfig,
                rng: np.random.Generator, class_weights: dict[int, float]):
    """One tape: forward a single graph, return (tape, bound, joint, rec value or None)."""
    tape = ad.Tape()
    bound = M.bind_params(tape, params, trainable=True)
    x = tape.constant(graph.features)

    plan = None
    if config.uses_masking and graph.node_count >= 2:
        plan = M.sample_mask(graph.node_count, config.gamma, rng)
        xin = M.apply_mask(x, plan, bound["mask_token"])
    else:
        xin = x

    h = M.encode(graph, xin, M.encoder_tensors(bound))
    g = M.readout(h)

    if config.uses_proxies:
        cl = ad.scale(contrastive_loss(g, graph.label, bound["proxy_benign"],
                                       bound["proxy_malicious"]),
                      class_weights[graph.label])
    else:
        cl = cross_entropy_logits(M.head_logits(g, M.head_tensors(bound)), graph.label)

    if plan is not None:
        z = M.decode(graph, M.remask(h, plan), M.decoder_tensors(bound))
        rec = reconstruction_loss(x, z, plan)
        rec_value = float(rec.value)
    else:
        rec = tape.constant(0.0)
        rec_value = None

    joint = joint_loss(rec, cl, config.effective_weights())
    return tape, bound, joint, rec_value


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

        def graph_loss(graph):
            tape, bound, joint, rec_value = _graph_loss(graph, params, config, rng,
                                                        class_weights)
            sums["loss"] += float(joint.value)
            if rec_value is not None:
                sums["rec"] += rec_value
                sums["rec_graphs"] += 1
            counts["mask_samples"] += _reads(tape, bound["mask_token"])
            counts["decoder_passes"] += _reads(tape, bound["decoder.0"])
            return tape, bound, joint

        try:
            minibatch_epoch(arrays, optimizer, train_graphs, config.batch_size, rng,
                            graph_loss)
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
    """Confusion counts from the unmasked predict path; malicious is positive."""
    if not graphs:
        raise ValueError("evaluate needs at least one graph")
    tp = fp = tn = fn = 0
    for g in graphs:
        pred = M.predict(g, params)[0]
        if g.label == 1:
            tp, fn = (tp + 1, fn) if pred == 1 else (tp, fn + 1)
        else:
            tn, fp = (tn + 1, fp) if pred == 0 else (tn, fp + 1)
    return Metrics.from_counts(tp, fp, tn, fn)
