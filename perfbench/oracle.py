"""Independent numpy reference for the benchmark's output checks.

Written from the method's definition, not from the package: nothing here
imports graphsentry. Graphs are plain (node_count, edges, features) triples and
parameters a name -> array dict, so the reference reads the package's file
formats itself.

- Dense GCN: S is the symmetrized 0/1 adjacency, C = D^-1/2 S D^-1/2 over the
  nodes with a neighbour, and each layer maps h to relu((h + C h) W).
  The graph embedding is the mean of the last layer's rows.
- Heads: the proxy-cosine head scores cos(g, p_benign), cos(g, p_malicious);
  the logits head scores relu(g W0) W1. Malicious wins ties.
- Relaxed margin: adjacency entries vary in [0, 1], S = A + A^T - A*A^T, and
  degrees are the fractional row sums of S. The margin is the benign score
  minus the malicious score.
- IG: for a missing edge e, the mean over k = 1..m of the margin's derivative
  in A_e at A + (k/m) 1_e, each derivative taken by central differences.
"""
from __future__ import annotations

import base64
import json

import numpy as np

NORM_CLAMP = 1e-12
FD_STEP = 1e-6


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parameter arrays of a checkpoint file, keyed by their stored names."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {name: np.frombuffer(base64.b64decode(obj["data"]), dtype=np.float64)
            .reshape(obj["shape"]) for name, obj in payload["tensors"].items()}


def read_dataset(path) -> list[dict]:
    """Records of a dataset file: id, label, n, edges (E, 2) and x (n, d)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    out = []
    for line in lines[1:]:
        rec = json.loads(line)
        bits = "".join(rec["x"]).encode("ascii")
        x = (np.frombuffer(bits, dtype=np.uint8) - ord("0")).astype(np.float64)
        out.append({"id": rec["id"], "label": rec["label"], "n": rec["n"],
                    "edges": np.asarray(rec["edges"], dtype=np.int64).reshape(-1, 2),
                    "x": x.reshape(rec["n"], -1)})
    return out


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a[e[:, 0], e[:, 1]] = 1.0
    return a


def _layer_stack(params: dict, prefix: str) -> list[np.ndarray]:
    keys = sorted((k for k in params if k.startswith(prefix)),
                  key=lambda k: int(k.rsplit(".", 1)[1]))
    return [params[k] for k in keys]


def _propagate(c: np.ndarray, x: np.ndarray, weights) -> np.ndarray:
    """GCN layers over a (B, n, n) operator and (n, d) or (B, n, d) rows."""
    h = x
    for w in weights:
        h = np.maximum((h + c @ h) @ w, 0.0)
    return h.mean(axis=-2)


def embedding(params: dict, n: int, edges, x: np.ndarray,
              encoder: str = "encoder.") -> np.ndarray:
    a = adjacency(n, edges)
    s = np.maximum(a, a.T)
    deg = s.sum(axis=1)
    r = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return _propagate(s * r[:, None] * r[None, :], x, _layer_stack(params, encoder))


def head_scores(params: dict, g: np.ndarray, head: str = "head.") -> np.ndarray:
    """(..., 2) class scores of embeddings g (..., h): benign then malicious."""
    hw = _layer_stack(params, head)
    if hw:
        return np.maximum(g @ hw[0], 0.0) @ hw[1]
    gn = np.maximum(np.linalg.norm(g, axis=-1), NORM_CLAMP)
    cols = []
    for p in (params["proxy_benign"], params["proxy_malicious"]):
        cols.append((g @ p) / (gn * max(float(np.linalg.norm(p)), NORM_CLAMP)))
    return np.stack(cols, axis=-1)


def predict(params: dict, n: int, edges, x: np.ndarray,
            encoder: str = "encoder.", head: str = "head.") -> tuple[int, float, float]:
    s0, s1 = head_scores(params, embedding(params, n, edges, x, encoder), head)
    return (1 if s1 >= s0 else 0), float(s0), float(s1)


def relaxed_margin(params: dict, x: np.ndarray, a_batch: np.ndarray,
                   encoder: str = "encoder.", head: str = "head.") -> np.ndarray:
    """Benign-minus-malicious margin of each relaxed adjacency in a (B, n, n) batch."""
    at = np.swapaxes(a_batch, 1, 2)
    s = a_batch + at - a_batch * at
    deg = s.sum(axis=2)
    r = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    g = _propagate(s * r[:, :, None] * r[:, None, :], x, _layer_stack(params, encoder))
    sc = head_scores(params, g, head)
    return sc[:, 0] - sc[:, 1]


def candidates(n: int, edges) -> list[tuple[int, int]]:
    """Missing directed pairs whose reverse is missing too, in lexicographic order."""
    a = adjacency(n, edges)
    return [(s, t) for s in range(n) for t in range(n)
            if s != t and a[s, t] == 0 and a[t, s] == 0]


def ig_scores(params: dict, n: int, edges, x: np.ndarray, ig_steps: int,
              encoder: str = "encoder.", head: str = "head.",
              chunk: int = 64) -> dict[tuple[int, int], float]:
    base = adjacency(n, edges)
    cands = candidates(n, edges)
    alphas = np.arange(1, ig_steps + 1) / ig_steps
    offsets = np.concatenate([alphas + FD_STEP, alphas - FD_STEP])
    out = {}
    for lo in range(0, len(cands), chunk):
        part = cands[lo:lo + chunk]
        batch = np.repeat(base[None], len(part) * offsets.size, axis=0)
        for ci, (s, t) in enumerate(part):
            batch[ci * offsets.size:(ci + 1) * offsets.size, s, t] = offsets
        f = relaxed_margin(params, x, batch, encoder, head).reshape(len(part), 2, ig_steps)
        grads = (f[:, 0] - f[:, 1]) / (2.0 * FD_STEP)
        for ci, edge in enumerate(part):
            out[edge] = float(grads[ci].mean())
    return out
