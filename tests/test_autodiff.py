"""Tape engine tests: hand-derived gradient oracles, finite-difference
cross-checks for every op, and the harness's own bug-detection power."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fd_check import finite_difference_check
from graphsentry import autodiff as ad


def make_closure(build, shapes):
    """Wrap a tape-building function as an fd-check target.

    `build(tape, tensors)` returns a scalar Tensor; the closure replays it on
    a fresh tape per call and returns (value, grads-in-input-order).
    """
    def f(arrays):
        tape = ad.Tape()
        tensors = [tape.param(a) for a in arrays]
        out = build(tape, tensors)
        grads = ad.backward(tape, out)
        return float(out.value), [grads[t.tid] for t in tensors]
    return f


def rng_arrays(seed, shapes, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi, size=s) for s in shapes]


# ---------------------------------------------------------------- analytic oracles

def test_square_gradient_matches_hand_value():
    tape = ad.Tape()
    x = tape.param(3.0)
    y = ad.square(x)
    grads = ad.backward(tape, y)
    assert y.value == 9.0
    assert grads[x.tid] == pytest.approx(6.0, abs=0)


def test_dot_gradients_swap_operands():
    tape = ad.Tape()
    u = tape.param([1.0, 2.0, 3.0])
    v = tape.param([4.0, 5.0, 6.0])
    out = ad.dot(u, v)
    grads = ad.backward(tape, out)
    np.testing.assert_array_equal(grads[u.tid], v.value)
    np.testing.assert_array_equal(grads[v.tid], u.value)


def test_matmul_sum_gradient_closed_form():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    tape = ad.Tape()
    ta, tb = tape.param(a), tape.param(b)
    out = ad.sum_all(ad.matmul(ta, tb))
    grads = ad.backward(tape, out)
    np.testing.assert_allclose(grads[ta.tid], np.ones((3, 2)) @ b.T, atol=1e-12)
    np.testing.assert_allclose(grads[tb.tid], a.T @ np.ones((3, 2)), atol=1e-12)


def test_cosine_gradient_closed_form():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    tape = ad.Tape()
    tu, tv = tape.param(u), tape.param(v)
    out = ad.cosine(tu, tv)
    grads = ad.backward(tape, out)
    # d cos / du = v/(|u||v|) - cos * u/|u|^2
    c = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(grads[tu.tid], v / np.sqrt(2.0) - c * u, atol=1e-12)
    np.testing.assert_allclose(grads[tv.tid], u / np.sqrt(2.0) - c * v / 2.0, atol=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    tape = ad.Tape()
    x = tape.param([-1.0, 0.0, 2.0])
    out = ad.sum_all(ad.relu(x))
    grads = ad.backward(tape, out)
    np.testing.assert_array_equal(grads[x.tid], [0.0, 0.0, 1.0])


def test_unreached_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.param([1.0, 2.0])
    unused = tape.param([[3.0, 4.0]])
    out = ad.sum_all(x)
    grads = ad.backward(tape, out)
    np.testing.assert_array_equal(grads[unused.tid], np.zeros((1, 2)))


def test_shared_subexpression_accumulates():
    # y = x*x + x  =>  dy/dx = 2x + 1
    tape = ad.Tape()
    x = tape.param([1.5, -0.5])
    out = ad.sum_all(ad.add(ad.mul(x, x), x))
    grads = ad.backward(tape, out)
    np.testing.assert_allclose(grads[x.tid], 2.0 * x.value + 1.0, atol=1e-12)


# ---------------------------------------------------------------- fd harness itself

def test_fd_harness_passes_on_composite_cosine_loss():
    def build(tape, ts):
        x, w, p = ts
        h = ad.relu(ad.matmul(x, w))
        g = ad.mean_rows(h)
        return ad.square(ad.cosine(g, p))
    arrays = rng_arrays(7, [(5, 3), (3, 4), (4,)])
    arrays[0] = np.abs(arrays[0]) + 0.2  # keep relu away from its kink
    rep = finite_difference_check(make_closure(build, None), arrays,
                                  step=1e-6, tolerance=1e-5)
    assert rep.passed, str(rep)
    assert rep.worst_error < 1e-5


def test_fd_harness_detects_planted_factor_two_bug():
    def buggy(arrays):
        tape = ad.Tape()
        x = tape.param(arrays[0])
        out = ad.sum_all(ad.mul(x, x))
        grads = ad.backward(tape, out)
        return float(out.value), [2.0 * grads[x.tid]]  # planted bug
    rep = finite_difference_check(buggy, [np.array([1.0, -2.0, 0.5])],
                                  step=1e-6, tolerance=1e-4)
    assert not rep.passed
    assert rep.worst_error > 0.4  # factor 2 shows up as ~50% relative error


# ---------------------------------------------------------------- per-op fd coverage

OP_CASES = {
    "add": (lambda t, ts: ad.sum_all(ad.square(ad.add(ts[0], ts[1]))), [(3, 2), (3, 2)]),
    "sub": (lambda t, ts: ad.sum_all(ad.square(ad.sub(ts[0], ts[1]))), [(4,), (4,)]),
    "mul": (lambda t, ts: ad.sum_all(ad.mul(ts[0], ts[1])), [(3, 3), (3, 3)]),
    "scale": (lambda t, ts: ad.sum_all(ad.scale(ts[0], -1.7)), [(5,)]),
    "matmul": (lambda t, ts: ad.mean_all(ad.matmul(ts[0], ts[1])), [(3, 4), (4, 2)]),
    "relu": (lambda t, ts: ad.sum_all(ad.relu(ts[0])), [(6,)]),
    "square": (lambda t, ts: ad.mean_all(ad.square(ts[0])), [(2, 5)]),
    "exp": (lambda t, ts: ad.sum_all(ad.exp(ts[0])), [(4,)]),
    "log": (lambda t, ts: ad.sum_all(ad.log(ts[0])), [(4,)]),
    "mean_rows": (lambda t, ts: ad.dot(ad.mean_rows(ts[0]), ad.mean_rows(ts[0])), [(4, 3)]),
    "row_norms": (lambda t, ts: ad.sum_all(ad.row_norms(ts[0])), [(4, 3)]),
    "dot": (lambda t, ts: ad.square(ad.dot(ts[0], ts[1])), [(5,), (5,)]),
    "cosine": (lambda t, ts: ad.cosine(ts[0], ts[1]), [(6,), (6,)]),
    "row_cosine": (lambda t, ts: ad.mean_all(ad.row_cosine(ts[0], ts[1])), [(4, 3), (4, 3)]),
    "concat": (lambda t, ts: ad.sum_all(ad.square(ad.concat([ts[0], ts[1]]))), [(3,), (2,)]),
    "gather_rows": (lambda t, ts: ad.sum_all(ad.square(ad.gather_rows(ts[0], [2, 0, 2]))), [(4, 3)]),
    "scatter_rows": (lambda t, ts: ad.sum_all(ad.square(ad.scatter_rows(ts[0], [1, 3], ts[1]))),
                     [(5, 2), (2, 2)]),
    "tile_rows": (lambda t, ts: ad.sum_all(ad.square(ad.tile_rows(ts[0], 3))), [(4,)]),
    "sum": (lambda t, ts: ad.square(ad.sum_all(ts[0])), [(3, 2)]),
    "mean": (lambda t, ts: ad.square(ad.mean_all(ts[0])), [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    build, shapes = OP_CASES[name]
    arrays = rng_arrays(hash(name) % 2**32, shapes, lo=0.5, hi=2.0)  # positive: safe for log/relu
    rep = finite_difference_check(make_closure(build, shapes), arrays,
                                  step=1e-6, tolerance=1e-5)
    assert rep.passed, f"{name}: {rep}"


def test_edge_aggregate_forward_and_gradient():
    x = np.arange(12.0).reshape(4, 3)
    p = np.zeros((4, 4))
    p[1, 0], p[1, 2], p[3, 2] = 0.5, 2.0, 1.0
    tape = ad.Tape()
    tx = tape.param(x)
    out = ad.edge_aggregate(tx, p[None])
    expect = np.zeros_like(x)
    expect[1] = 0.5 * x[0] + 2.0 * x[2]
    expect[3] = x[2]
    np.testing.assert_allclose(out.value, expect, atol=0)

    def build(tape, ts):
        return ad.sum_all(ad.square(ad.edge_aggregate(ts[0], p[None])))
    rep = finite_difference_check(make_closure(build, None), [x], tolerance=1e-5)
    assert rep.passed, str(rep)
    with pytest.raises(ValueError):
        ad.edge_aggregate(tx, np.zeros((1, 3, 3)))


def test_edge_aggregate_applies_a_stack_blockwise():
    x = np.arange(12.0).reshape(4, 3)
    stack = np.array([[[0.0, 0.5], [2.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    tape = ad.Tape()
    out = ad.edge_aggregate(tape.param(x), stack)
    np.testing.assert_allclose(out.value, np.vstack([stack[0] @ x[:2], stack[1] @ x[2:]]),
                               atol=0)

    def build(tape, ts):
        return ad.sum_all(ad.square(ad.edge_aggregate(ts[0], stack)))
    rep = finite_difference_check(make_closure(build, None), [x], tolerance=1e-5)
    assert rep.passed, str(rep)
    # a single (4, 4) matrix of the right size is not a stack either
    for bad in (np.zeros((2, 2, 3)), np.zeros((3, 2, 2)), np.zeros(4), np.zeros((4, 4))):
        with pytest.raises(ValueError, match="edge_aggregate"):
            ad.edge_aggregate(tape.param(x), bad)
    with pytest.raises(ValueError, match="edge_aggregate"):  # a 1-D vector of rows
        ad.edge_aggregate(tape.param(np.ones(4)), np.zeros((1, 4, 4)))


def test_edge_aggregate_no_edges_is_zero():
    tape = ad.Tape()
    tx = tape.param(np.ones((3, 2)))
    out = ad.edge_aggregate(tx, np.zeros((1, 3, 3)))
    np.testing.assert_array_equal(out.value, np.zeros((3, 2)))
    grads = ad.backward(tape, ad.sum_all(out))
    np.testing.assert_array_equal(grads[tx.tid], np.zeros((3, 2)))


def test_scatter_rows_blocks_gradient_through_overwritten_rows():
    tape = ad.Tape()
    x = tape.param(np.ones((3, 2)))
    r = tape.param(np.full((1, 2), 5.0))
    out = ad.sum_all(ad.scatter_rows(x, [1], r))
    grads = ad.backward(tape, out)
    np.testing.assert_array_equal(grads[x.tid], [[1, 1], [0, 0], [1, 1]])
    np.testing.assert_array_equal(grads[r.tid], [[1, 1]])


def test_cosine_zero_vector_is_clamped_and_finite():
    tape = ad.Tape()
    u = tape.param(np.zeros(3))
    v = tape.param([1.0, 2.0, 3.0])
    out = ad.cosine(u, v)
    assert out.value == 0.0
    grads = ad.backward(tape, out)
    assert np.all(np.isfinite(grads[u.tid]))
    assert np.all(np.isfinite(grads[v.tid]))


# ---------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
def test_backward_is_linear_in_the_output(seed, a, b):
    x0 = np.random.default_rng(seed).normal(size=4)

    def grad_of(combine):
        tape = ad.Tape()
        x = tape.param(x0)
        f = ad.sum_all(ad.mul(x, x))
        g = ad.dot(x, tape.constant([1.0, -1.0, 2.0, 0.5]))
        grads = ad.backward(tape, combine(f, g))
        return grads[x.tid]

    combined = grad_of(lambda f, g: ad.add(ad.scale(f, a), ad.scale(g, b)))
    separate = a * grad_of(lambda f, g: f) + b * grad_of(lambda f, g: g)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_replaying_a_tape_yields_identical_gradients(seed):
    def run():
        rng = np.random.default_rng(seed)
        tape = ad.Tape()
        x = tape.param(rng.normal(size=(4, 3)))
        w = tape.param(rng.normal(size=(3, 3)))
        p = tape.param(rng.normal(size=3))
        g = ad.mean_rows(ad.relu(ad.matmul(x, w)))
        out = ad.square(ad.cosine(g, p))
        grads = ad.backward(tape, out)
        return [grads[t.tid] for t in (x, w, p)]
    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------- error states

def test_nan_leaf_is_rejected():
    tape = ad.Tape()
    with pytest.raises(ad.NonFiniteError):
        tape.param([1.0, np.nan])


def test_log_of_negative_raises_nonfinite():
    tape = ad.Tape()
    x = tape.param([-1.0])
    with pytest.raises(ad.NonFiniteError):
        ad.log(x)


def test_overflowing_exp_raises_nonfinite():
    tape = ad.Tape()
    x = tape.param([1000.0])
    with pytest.raises(ad.NonFiniteError):
        ad.exp(x)


def test_shape_mismatch_raises_value_error():
    tape = ad.Tape()
    a = tape.param(np.ones((2, 3)))
    b = tape.param(np.ones((3, 2)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_rank_three_leaf_is_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        tape.param(np.ones((2, 2, 2)))


def test_backward_requires_scalar_output():
    tape = ad.Tape()
    x = tape.param(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(tape, ad.relu(x))


def test_cross_tape_operands_are_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.param([1.0])
    b = t2.param([2.0])
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_scatter_rows_rejects_duplicate_indices():
    tape = ad.Tape()
    x = tape.param(np.ones((4, 2)))
    r = tape.param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.scatter_rows(x, [1, 1], r)
