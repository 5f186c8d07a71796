"""Reverse-mode differentiation on an explicit tape of dense float64 tensors.

Rank is limited to 2 (scalars, vectors, matrices) and there is no
broadcasting: elementwise ops require identical shapes. Every operation
validates that its output is finite; NaN/Inf anywhere is an error state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

NORM_CLAMP = 1e-12


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


class Tensor:
    """A node on a Tape: float64 ndarray of rank <= 2 plus bookkeeping."""

    __slots__ = ("value", "requires_grad", "tape", "tid")

    def __init__(self, value: np.ndarray, requires_grad: bool, tape: "Tape", tid: int):
        self.value = value
        self.requires_grad = requires_grad
        self.tape = tape
        self.tid = tid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(tid={self.tid}, shape={self.value.shape}, requires_grad={self.requires_grad})"


# One backward closure per recorded op; it maps the output gradient to
# (input tid, input gradient) contributions.
BackwardFn = Callable[[np.ndarray], Sequence[tuple[int, np.ndarray]]]


@dataclass
class Record:
    kind: str
    input_ids: tuple[int, ...]
    output_id: int
    backward: BackwardFn


@dataclass
class Tape:
    """Append-only record of operations. Single writer; one tape per forward."""

    records: list[Record] = field(default_factory=list)
    _next_id: int = 0
    _grad_leaves: list[Tensor] = field(default_factory=list)

    def _new_tensor(self, value: np.ndarray, requires_grad: bool) -> Tensor:
        t = Tensor(value, requires_grad, self, self._next_id)
        self._next_id += 1
        if requires_grad:
            self._grad_leaves.append(t)
        return t

    def leaf(self, value, requires_grad: bool = False) -> Tensor:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max rank 2)")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("leaf tensor contains non-finite values")
        return self._new_tensor(arr, requires_grad)

    def param(self, value) -> Tensor:
        return self.leaf(value, requires_grad=True)

    def constant(self, value) -> Tensor:
        return self.leaf(value, requires_grad=False)

    def emit(self, kind: str, inputs: Sequence[Tensor], value: np.ndarray,
             backward: BackwardFn) -> Tensor:
        for t in inputs:
            if t.tape is not self:
                raise ValueError(f"{kind}: input tensor belongs to a different tape")
        if not np.all(np.isfinite(value)):
            raise NonFiniteError(f"{kind} produced non-finite output")
        rg = any(t.requires_grad for t in inputs)
        out = self._new_tensor(value, False)  # op outputs are interior nodes
        if rg:
            self.records.append(Record(kind, tuple(t.tid for t in inputs), out.tid, backward))
            out.requires_grad = True
        return out


def backward(tape: Tape, output: Tensor) -> dict[int, np.ndarray]:
    """Walk the tape in reverse record order once, from a scalar output.

    Returns a gradient for every grad-requiring leaf on the tape; leaves the
    output does not depend on map to zeros. The walk consumes the tape: its
    records and leaf list are cleared, which breaks the reference cycles
    between the tape and its tensors, so that reference counting frees the
    tape's arrays once the caller drops it (a minibatch tape holds megabytes,
    which the cyclic collector would free only some batches later).
    """
    if output.tape is not tape:
        raise ValueError("output tensor is not on this tape")
    if output.value.ndim != 0:
        raise ValueError(f"backward requires a scalar output, got shape {output.value.shape}")
    grads: dict[int, np.ndarray] = {output.tid: np.ones((), dtype=np.float64)}
    for rec in reversed(tape.records):
        gout = grads.get(rec.output_id)
        if gout is None:
            continue
        for tid, gin in rec.backward(gout):
            acc = grads.get(tid)
            grads[tid] = gin if acc is None else acc + gin
    out = {}
    for leaf in tape._grad_leaves:
        g = grads.get(leaf.tid)
        out[leaf.tid] = np.zeros_like(leaf.value) if g is None else g
    tape.records.clear()
    tape._grad_leaves.clear()
    return out


def _check_same_shape(kind: str, a: Tensor, b: Tensor) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{kind}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return a.tape.emit("add", (a, b), a.value + b.value,
                       lambda g: ((a.tid, g), (b.tid, g)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return a.tape.emit("sub", (a, b), a.value - b.value,
                       lambda g: ((a.tid, g), (b.tid, -g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    av, bv = a.value, b.value
    return a.tape.emit("mul", (a, b), av * bv,
                       lambda g: ((a.tid, g * bv), (b.tid, g * av)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return a.tape.emit("scale", (a,), a.value * c, lambda g: ((a.tid, g * c),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul requires rank-2 operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dims differ {a.value.shape} @ {b.value.shape}")
    av, bv = a.value, b.value
    with np.errstate(over="ignore", invalid="ignore"):  # blowups become NonFiniteError
        out = av @ bv
    return a.tape.emit("matmul", (a, b), out,
                       lambda g: ((a.tid, g @ bv.T), (b.tid, av.T @ g)))


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0  # subgradient at exactly 0 is 0
    return a.tape.emit("relu", (a,), np.where(mask, a.value, 0.0),
                       lambda g: ((a.tid, g * mask),))


def square(a: Tensor) -> Tensor:
    av = a.value
    return a.tape.emit("square", (a,), av * av, lambda g: ((a.tid, 2.0 * av * g),))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        ev = np.exp(a.value)
    return a.tape.emit("exp", (a,), ev, lambda g: ((a.tid, g * ev),))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        lv = np.log(a.value)
    return a.tape.emit("log", (a,), lv, lambda g: ((a.tid, g / a.value),))


def sum_all(a: Tensor) -> Tensor:
    av = a.value
    return a.tape.emit("sum", (a,), np.asarray(av.sum()),
                       lambda g: ((a.tid, np.full_like(av, float(g))),))


def mean_all(a: Tensor) -> Tensor:
    av = a.value
    n = av.size
    return a.tape.emit("mean", (a,), np.asarray(av.mean()),
                       lambda g: ((a.tid, np.full_like(av, float(g) / n)),))


def mean_rows(x: Tensor) -> Tensor:
    """Average the rows of an (n, d) matrix into a (d,) vector."""
    if x.value.ndim != 2:
        raise ValueError("mean_rows requires a rank-2 input")
    n = x.value.shape[0]
    return x.tape.emit("mean_rows", (x,), x.value.mean(axis=0),
                       lambda g: ((x.tid, np.tile(g / n, (n, 1))),))


def dot(u: Tensor, v: Tensor) -> Tensor:
    if u.value.ndim != 1 or v.value.ndim != 1:
        raise ValueError("dot requires rank-1 operands")
    _check_same_shape("dot", u, v)
    uv, vv = u.value, v.value
    return u.tape.emit("dot", (u, v), np.asarray(uv @ vv),
                       lambda g: ((u.tid, float(g) * vv), (v.tid, float(g) * uv)))


def row_norms(x: Tensor) -> Tensor:
    """Per-row L2 norm of an (n, d) matrix, clamped away from zero."""
    if x.value.ndim != 2:
        raise ValueError("row_norms requires a rank-2 input")
    xv = x.value
    norms = np.sqrt((xv * xv).sum(axis=1))
    clamped = np.maximum(norms, NORM_CLAMP)
    live = norms > NORM_CLAMP  # clamped rows get zero gradient

    def bwd(g):
        gx = (g / clamped)[:, None] * xv * live[:, None]
        return ((x.tid, gx),)

    return x.tape.emit("row_norms", (x,), clamped, bwd)


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Cosine similarity of two vectors with norms clamped at 1e-12."""
    if u.value.ndim != 1 or v.value.ndim != 1:
        raise ValueError("cosine requires rank-1 operands")
    _check_same_shape("cosine", u, v)
    uv, vv = u.value, v.value
    nu = max(float(np.linalg.norm(uv)), NORM_CLAMP)
    nv = max(float(np.linalg.norm(vv)), NORM_CLAMP)
    c = float(uv @ vv) / (nu * nv)
    u_live = float(np.linalg.norm(uv)) > NORM_CLAMP
    v_live = float(np.linalg.norm(vv)) > NORM_CLAMP

    def bwd(g):
        gs = float(g)
        gu = gs * (vv / (nu * nv) - (c / (nu * nu)) * uv * u_live)
        gv = gs * (uv / (nu * nv) - (c / (nv * nv)) * vv * v_live)
        return ((u.tid, gu), (v.tid, gv))

    return u.tape.emit("cosine", (u, v), np.asarray(c), bwd)


def row_cosine(x: Tensor, z: Tensor) -> Tensor:
    """Per-row cosine similarity of two (n, d) matrices -> (n,) vector."""
    if x.value.ndim != 2 or z.value.ndim != 2:
        raise ValueError("row_cosine requires rank-2 operands")
    _check_same_shape("row_cosine", x, z)
    xv, zv = x.value, z.value
    nx = np.maximum(np.linalg.norm(xv, axis=1), NORM_CLAMP)
    nz = np.maximum(np.linalg.norm(zv, axis=1), NORM_CLAMP)
    x_live = np.linalg.norm(xv, axis=1) > NORM_CLAMP
    z_live = np.linalg.norm(zv, axis=1) > NORM_CLAMP
    c = (xv * zv).sum(axis=1) / (nx * nz)

    def bwd(g):
        gx = g[:, None] * (zv / (nx * nz)[:, None] - (c / nx**2)[:, None] * xv * x_live[:, None])
        gz = g[:, None] * (xv / (nx * nz)[:, None] - (c / nz**2)[:, None] * zv * z_live[:, None])
        return ((x.tid, gx), (z.tid, gz))

    return x.tape.emit("row_cosine", (x, z), c, bwd)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate scalars/vectors into one vector."""
    if not parts:
        raise ValueError("concat of zero tensors")
    vals = [np.atleast_1d(p.value) for p in parts]
    for p in parts:
        if p.value.ndim > 1:
            raise ValueError("concat supports rank 0 and 1 only")
    sizes = [v.size for v in vals]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        out = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            seg = g[lo:hi]
            out.append((p.tid, seg.reshape(p.value.shape)))
        return out

    return parts[0].tape.emit("concat", tuple(parts), np.concatenate(vals), bwd)


def gather_rows(x: Tensor, idx: Sequence[int]) -> Tensor:
    """Select rows of an (n, d) matrix -> (len(idx), d)."""
    if x.value.ndim != 2:
        raise ValueError("gather_rows requires a rank-2 input")
    ii = np.asarray(idx, dtype=np.intp)
    if ii.size and (ii.min() < 0 or ii.max() >= x.value.shape[0]):
        raise ValueError("gather_rows: index out of range")

    def bwd(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, ii, g)
        return ((x.tid, gx),)

    return x.tape.emit("gather_rows", (x,), x.value[ii], bwd)


def scatter_rows(x: Tensor, idx: Sequence[int], rows: Tensor) -> Tensor:
    """Copy of x with rows[idx] replaced by `rows` (same width, unique idx)."""
    if x.value.ndim != 2 or rows.value.ndim != 2:
        raise ValueError("scatter_rows requires rank-2 operands")
    ii = np.asarray(idx, dtype=np.intp)
    if len(set(ii.tolist())) != ii.size:
        raise ValueError("scatter_rows: duplicate indices")
    if ii.size != rows.value.shape[0]:
        raise ValueError("scatter_rows: index count does not match row count")
    if ii.size and (ii.min() < 0 or ii.max() >= x.value.shape[0]):
        raise ValueError("scatter_rows: index out of range")
    out = x.value.copy()
    out[ii] = rows.value

    def bwd(g):
        gx = g.copy()
        gx[ii] = 0.0
        return ((x.tid, gx), (rows.tid, g[ii]))

    return x.tape.emit("scatter_rows", (x, rows), out, bwd)


def tile_rows(v: Tensor, k: int) -> Tensor:
    """Stack a (d,) vector into k identical rows -> (k, d)."""
    if v.value.ndim != 1:
        raise ValueError("tile_rows requires a rank-1 input")
    return v.tape.emit("tile_rows", (v,), np.tile(v.value, (int(k), 1)),
                       lambda g: ((v.tid, g.sum(axis=0)),))


def edge_aggregate(x: Tensor, p: np.ndarray) -> Tensor:
    """Neighbour sum through a constant (B, m, m) stack of propagation
    matrices, blockwise over the B*m rows of x: block b (rows b*m ..
    b*m+m-1) is propagated by p[b]. The package's layers do not call it
    (`model._gnn_forward` is one op); the tests' per-op reference layers
    do, and the benchmark's tracer names it."""
    xv = x.value
    if (p.ndim != 3 or p.shape[1] != p.shape[2] or xv.ndim != 2
            or xv.shape[0] != p.shape[0] * p.shape[1]):
        raise ValueError(f"edge_aggregate: {p.shape} matrix for {xv.shape} rows")
    blocks = (p.shape[0], p.shape[1], xv.shape[1])
    back = np.swapaxes(p, 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # blowups become NonFiniteError
        out = (p @ xv.reshape(blocks)).reshape(xv.shape)
    return x.tape.emit("edge_aggregate", (x,), out,
                       lambda g: ((x.tid, (back @ g.reshape(blocks)).reshape(g.shape)),))
