"""Loss tests: frozen trivial values, symmetry/scale properties, fd gradients."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fd_check import finite_difference_check
from graphsentry import losses as L
from graphsentry import model as M
from graphsentry import training as T
from graphsentry.graphdata import FeatureGraph


def rec_value(x, z, masked):
    """The loss of one graph: the mean over its masked rows."""
    return float(L.reconstruction_loss(x, z, masked, np.full(len(masked), 1.0 / len(masked)))[0])


def cl_value(g, y, p0, p1):
    """The loss of one (h,) embedding `g` with label `y`, as a batch of one."""
    return float(L.contrastive_loss(g[None], [y], p0, p1)[0])


# ------------------------------------------------------------------ frozen values

def test_reconstruction_perfect_rows_give_zero():
    x = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert rec_value(x, x.copy(), [0, 2]) == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_orthogonal_rows_give_one():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    z = np.array([[0.0, 1.0], [0.0, 3.0]])
    assert rec_value(x, z, [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_reconstruction_opposite_rows_give_four():
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert rec_value(x, -2.0 * x, [0, 1]) == pytest.approx(4.0, abs=1e-12)


def test_reconstruction_uses_only_masked_rows():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 0.0], [-5.0, -5.0]])  # row 1 is garbage but unmasked
    assert rec_value(x, z, [0]) == pytest.approx(0.0, abs=1e-12)


def test_reconstruction_rejects_empty_plan():
    x = np.ones((2, 2))
    with pytest.raises(ValueError):
        L.reconstruction_loss(x, x, [], np.zeros(0))


def test_contrastive_perfect_malicious_placement_is_zero():
    p1 = np.array([1.0, 0.0])
    p0 = np.array([0.0, 1.0])
    assert cl_value(p1.copy(), 1, p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_contrastive_orthogonal_confusion_is_two():
    p0 = np.array([1.0, 0.0])
    p1 = np.array([0.0, 1.0])
    assert cl_value(p0.copy(), 1, p0, p1) == pytest.approx(2.0, abs=1e-12)


def test_contrastive_perfect_benign_placement_is_zero():
    p0 = np.array([1.0, 0.0])
    p1 = np.array([0.0, 1.0])
    assert cl_value(p0.copy(), 0, p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_joint_loss_weighted_sum():
    """The detector's batch loss is lambda1 * rec + lambda2 * contrast."""
    rng = np.random.default_rng(0)
    graph = FeatureGraph(4, [(0, 1), (1, 2), (2, 3)], rng.integers(0, 2, size=(4, 3)), 1, "g")
    params = M.init_params(3, 4, 1, rng_seed=0)
    members = [(graph, M.MaskPlan((1, 3)))]

    def joint_and_rec(lambda1, lambda2):
        cfg = T.TrainConfig(hidden=4, layers=1, lambda1=lambda1, lambda2=lambda2)
        return T.detector_batch_grads(members, params, cfg, {0: 1.0, 1: 1.0})[:2]

    joint, rec = joint_and_rec(1.0, 1.0)
    cl = joint - rec
    assert rec > 0 and cl > 0
    assert joint_and_rec(0.0, 2.0)[0] == pytest.approx(2.0 * cl, abs=1e-12)
    assert joint_and_rec(3.0, 0.0)[0] == pytest.approx(3.0 * rec, abs=1e-12)


def test_cross_entropy_matches_log_softmax():
    logits = np.array([2.0, -1.0])
    out = L.cross_entropy_logits(logits[None], [0])[0]
    expect = -np.log(np.exp(logits[0]) / np.exp(logits).sum())
    assert float(out) == pytest.approx(expect, abs=1e-12)


def test_cross_entropy_survives_large_logits():
    out = L.cross_entropy_logits(np.array([[800.0, 0.0]]), [1])[0]
    assert float(out) == pytest.approx(800.0, rel=1e-12)


# ------------------------------------------------------------------ properties

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_losses_are_scale_invariant(seed, cx, cz):
    rng = np.random.default_rng(seed)
    x, z = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    base = rec_value(x, z, [0, 1, 2])
    assert rec_value(cx * x, cz * z, [0, 1, 2]) == pytest.approx(base, abs=1e-9)
    g, p0, p1 = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
    y = int(seed % 2)
    assert cl_value(cx * g, y, cz * p0, cx * p1) == pytest.approx(
        cl_value(g, y, p0, p1), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_contrastive_label_symmetry(seed):
    rng = np.random.default_rng(seed)
    g, p0, p1 = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    assert cl_value(g, 1, p0, p1) == pytest.approx(cl_value(g, 0, p1, p0), abs=1e-12)
    assert cl_value(g, 0, p0, p1) == pytest.approx(cl_value(g, 1, p1, p0), abs=1e-12)


def test_contrastive_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = cl_value(rng.normal(size=3), int(rng.integers(2)),
                     rng.normal(size=3), rng.normal(size=3))
        assert 0.0 <= v <= 5.0


def test_reconstruction_terms_bounded():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rec_value(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), [0, 1, 2, 3])
        assert 0.0 <= v <= 4.0


# ------------------------------------------------------------------ gradients

def test_reconstruction_gradients_pass_fd():
    """The gradient by the reconstruction z; the target x is a constant."""
    x = np.random.default_rng(2).normal(size=(3, 4))

    def f(arrays):
        value, back = L.reconstruction_loss(x, arrays[0], [0, 2], np.full(2, 0.5))
        return float(value), [back(1.0)]
    rep = finite_difference_check(f, [np.random.default_rng(3).normal(size=(3, 4))],
                                  tolerance=1e-4)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("y", [0, 1])
def test_contrastive_gradients_pass_fd(y):
    def f(arrays):
        value, back = L.contrastive_loss(arrays[0], [y], arrays[1], arrays[2])
        return float(value), list(back(1.0))
    rng = np.random.default_rng(3 + y)
    g, p0, p1 = (rng.normal(size=6) for _ in range(3))
    rep = finite_difference_check(f, [g[None], p0, p1], tolerance=1e-4)
    assert rep.passed, str(rep)


@pytest.mark.parametrize("y", [0, 1])
def test_cross_entropy_gradient_is_softmax_minus_onehot(y):
    logits = np.array([0.7, -1.3])
    _, back = L.cross_entropy_logits(logits[None], [y])
    soft = np.exp(logits) / np.exp(logits).sum()
    onehot = np.eye(2)[y]
    np.testing.assert_allclose(back(1.0), [soft - onehot], atol=1e-12)
