"""Training objectives: masked-row reconstruction, proxy contrast, joint sum."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import MaskPlan


@dataclass(frozen=True)
class LossWeights:
    lambda1: float  # reconstruction strength
    lambda2: float  # contrastive strength

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lambda1 == 0 and self.lambda2 == 0:
            raise ValueError("at least one loss weight must be positive")


def _labels(y, rows: int) -> np.ndarray:
    """A sequence of 0/1 labels, one per row."""
    labels = np.asarray(y)
    if labels.shape != (rows,):
        raise ValueError(f"labels of shape {labels.shape} for {rows} rows")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError(f"label must be 0 or 1, got {y}")
    return labels.astype(np.float64)


def reconstruction_loss(x: ad.Tensor, z: ad.Tensor, plan: MaskPlan,
                        row_weights) -> ad.Tensor:
    """Sum over masked rows v of w_v (1 - cos(x_v, z_v))^2, each term in [0,4].
    Training weighs each row by 1/(its graph's masked count), so each graph
    adds the mean over its masked rows."""
    if not plan.masked:
        raise ValueError("reconstruction loss needs at least one masked node")
    idx = list(plan.masked)
    xm = ad.gather_rows(x, idx)
    zm = ad.gather_rows(z, idx)
    cos = ad.row_cosine(xm, zm)
    ones = x.tape.constant(np.ones(len(idx)))
    return ad.dot(ad.square(ad.sub(ones, cos)), x.tape.constant(row_weights))


def contrastive_loss(g: ad.Tensor, y, p0: ad.Tensor, p1: ad.Tensor,
                     weights=None) -> ad.Tensor:
    """Pull each graph embedding toward its class proxy, push from the other.

    y=1: cos(g,p0)^2 + (1-cos(g,p1))^2; y=0 swaps the proxy roles. `g` holds
    (B, h) embedding rows with B labels, summed with per-row `weights`
    (default 1).
    """
    count = g.value.shape[0]
    labels = _labels(y, count)
    tape = g.tape
    c0 = ad.row_cosine(g, ad.tile_rows(p0, count))
    c1 = ad.row_cosine(g, ad.tile_rows(p1, count))
    # (y - c1)^2 + (1 - y - c0)^2 is pull + push for either label
    terms = ad.add(ad.square(ad.sub(tape.constant(labels), c1)),
                   ad.square(ad.sub(tape.constant(1.0 - labels), c0)))
    w = np.ones(count) if weights is None else np.asarray(weights, dtype=np.float64)
    return ad.dot(terms, tape.constant(w))


def joint_loss(l_rec: ad.Tensor, l_cl: ad.Tensor, weights: LossWeights) -> ad.Tensor:
    return ad.add(ad.scale(l_rec, weights.lambda1), ad.scale(l_cl, weights.lambda2))


def cross_entropy_logits(logits: ad.Tensor, y) -> ad.Tensor:
    """Two-class cross-entropy from raw logits, used by the MLP-head variants:
    summed over (B, 2) rows with B labels.

    Computed per row as logsumexp(logits - max) - logit_y with the max
    detached, which keeps exp in range without changing the gradient.
    """
    count = logits.value.shape[0]
    labels = _labels(y, count).astype(np.intp)
    tape = logits.tape
    shift = tape.constant(np.repeat(logits.value.max(axis=1, keepdims=True), 2, axis=1))
    shifted = ad.sub(logits, shift)
    lse = ad.log(ad.matmul(ad.exp(shifted), tape.constant(np.ones((2, 1)))))
    pick = tape.constant(np.eye(2)[labels])
    return ad.sub(ad.sum_all(lse), ad.sum_all(ad.mul(shifted, pick)))
