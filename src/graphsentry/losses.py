"""Training objectives in plain numpy: masked-row reconstruction, proxy
contrast and two-class cross-entropy.

Each loss returns (value, back), where `back(s)` gives the gradients of s
times the value by the loss's inputs, with the products and order of the
same loss written as tape ops, so with their bits. Values that can go
non-finite from finite inputs are checked under the names of those ops.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _labels(y, rows: int) -> np.ndarray:
    """A sequence of 0/1 labels, one per row."""
    labels = np.asarray(y)
    if labels.shape != (rows,):
        raise ValueError(f"labels of shape {labels.shape} for {rows} rows")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError(f"label must be 0 or 1, got {y}")
    return labels.astype(np.float64)


def row_cosine(x: np.ndarray, z: np.ndarray):
    """Per-row cosine similarity of two (n, d) matrices, norms clamped at
    NORM_CLAMP; `back(g)` of the (n,) adjoint g gives (dx, dz), and a row
    whose norm is clamped gets no gradient through its norm."""
    rx, rz = np.linalg.norm(x, axis=1), np.linalg.norm(z, axis=1)
    nx, nz = np.maximum(rx, ad.NORM_CLAMP), np.maximum(rz, ad.NORM_CLAMP)
    c = (x * z).sum(axis=1) / (nx * nz)
    ad.check_finite("row_cosine", c)

    def back(g):
        gx = g[:, None] * (z / (nx * nz)[:, None]
                           - (c / nx**2)[:, None] * x * (rx > ad.NORM_CLAMP)[:, None])
        gz = g[:, None] * (x / (nx * nz)[:, None]
                           - (c / nz**2)[:, None] * z * (rz > ad.NORM_CLAMP)[:, None])
        return gx, gz
    return c, back


def reconstruction_loss(x: np.ndarray, z: np.ndarray, rows, row_weights):
    """Sum over masked `rows` v of w_v (1 - cos(x_v, z_v))^2, each term in
    [0, 4]; `back(s)` gives dz, x being the constant target. Training weighs
    each row by 1/(its graph's masked count), so each graph adds the mean
    over its masked rows."""
    if not len(rows):
        raise ValueError("reconstruction loss needs at least one masked node")
    idx = np.asarray(rows, dtype=np.intp)
    w = np.asarray(row_weights, dtype=np.float64)
    cos, cos_back = row_cosine(x[idx], z[idx])
    a = 1.0 - cos

    def back(s):
        dz = np.zeros_like(z)
        dz[idx] += cos_back(-(2.0 * a * (float(s) * w)))[1]
        return dz
    return (a * a) @ w, back


def contrastive_loss(g: np.ndarray, y, p0: np.ndarray, p1: np.ndarray, weights=None):
    """Pull each graph embedding toward its class proxy, push from the other.

    y=1: cos(g,p0)^2 + (1-cos(g,p1))^2; y=0 swaps the proxy roles. `g` holds
    (B, h) embedding rows with B labels, summed with per-row `weights`
    (default 1). `back(s)` gives (dg, dp0, dp1).
    """
    count = len(g)
    labels = _labels(y, count)
    c0, back0 = row_cosine(g, np.tile(p0, (count, 1)))
    c1, back1 = row_cosine(g, np.tile(p1, (count, 1)))
    # (y - c1)^2 + (1 - y - c0)^2 is pull + push for either label
    a1, a0 = labels - c1, (1.0 - labels) - c0
    w = np.ones(count) if weights is None else np.asarray(weights, dtype=np.float64)

    def back(s):
        dterms = float(s) * w
        dg0, dp0 = back0(-(2.0 * a0 * dterms))
        dg1, dp1 = back1(-(2.0 * a1 * dterms))
        return dg1 + dg0, dp0.sum(axis=0), dp1.sum(axis=0)
    return (a1 * a1 + a0 * a0) @ w, back


def cross_entropy_logits(logits: np.ndarray, y):
    """Two-class cross-entropy from raw (B, 2) logits with B labels, summed
    over the rows; used by the MLP-head variants and the surrogate. `back(s)`
    gives dlogits.

    Computed per row as logsumexp(logits - max) - logit_y with the max
    detached, which keeps exp in range without changing the gradient.
    """
    pick = np.eye(2)[_labels(y, len(logits)).astype(np.intp)]
    shifted = logits - logits.max(axis=1, keepdims=True)
    ad.check_finite("sub", shifted)
    ev = np.exp(shifted)
    se = ev @ np.ones((2, 1))
    picked = (shifted * pick).sum()
    ad.check_finite("sum", picked)
    loss = np.log(se).sum() - picked
    ad.check_finite("sub", loss)

    def back(s):
        return (-s * pick) + ev * (s / se)
    return loss, back
