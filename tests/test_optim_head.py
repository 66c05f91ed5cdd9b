"""Adam, MLP head, losses, and manual backprop vs finite differences."""

import math

import numpy as np
import pytest

from gkconv.head import (HeadError, LossReport, batch_loss, init_mlp,
                         mlp_update, readout)
from gkconv.optim import Adam
from conftest import graph_gradients
from oracle import (cross_entropy, jsd_grad, jsd_loss, mlp_forward,
                    pool_sum, predict, softmax)


# --- optimizer ---------------------------------------------------------

def reference_adam(params, grads_seq, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, fresh arrays every step."""
    p = {k: np.array(v, dtype=float) for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(val) for k, val in p.items()}
    t = 0
    for grads in grads_seq:
        t += 1
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            mhat = m[k] / (1 - b1 ** t)
            vhat = v[k] / (1 - b2 ** t)
            p[k] = p[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_matches_reference():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
    grads_seq = [{"w": rng.standard_normal((3, 2)),
                  "b": rng.standard_normal(2)} for _ in range(7)]
    want = reference_adam(params, grads_seq, lr=0.01)

    opt = Adam(lr=0.01)
    live = {k: v.copy() for k, v in params.items()}
    for grads in grads_seq:
        opt.step(live, grads)
    for k in params:
        assert np.allclose(live[k], want[k], rtol=1e-12, atol=1e-12)


def test_adam_state_roundtrip_continues_identically():
    rng = np.random.default_rng(1)
    p1 = {"w": rng.standard_normal(4)}
    p2 = {"w": p1["w"].copy()}
    g = [{"w": rng.standard_normal(4)} for _ in range(6)]

    a = Adam(lr=0.05)
    for gi in g[:3]:
        a.step(p1, gi)
    b = Adam(lr=0.05)
    b.load_state({k: np.array(v) for k, v in a.state().items()})
    for gi in g[3:]:
        a.step(p1, gi)
    # replay the first half on a fresh optimizer, then restore and finish
    c = Adam(lr=0.05)
    for gi in g[:3]:
        c.step(p2, gi)
    b_params = {"w": p2["w"].copy()}
    for gi in g[3:]:
        b.step(b_params, gi)
    assert np.array_equal(p1["w"], b_params["w"])


def test_adam_validation():
    for lr in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            Adam(lr=lr)


# --- head forward pieces ----------------------------------------------

def test_pool_sum():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(pool_sum(X), [4.0, 6.0])
    perm = pool_sum(X[::-1])
    assert np.array_equal(perm, pool_sum(X))
    with pytest.raises(HeadError):
        pool_sum(np.zeros((0, 2)))
    with pytest.raises(HeadError):
        pool_sum(np.zeros(3))


def test_mlp_forward_shapes_and_zero_case():
    rng = np.random.default_rng(2)
    params = init_mlp(4, 8, 3, rng)
    logits = mlp_forward(params, np.zeros(4))
    assert logits.shape == (3,)
    assert np.array_equal(logits, params.b2)  # relu(0)=0 passes only b2


def test_predict_tie_goes_to_smaller_class():
    rng = np.random.default_rng(3)
    params = init_mlp(2, 4, 3, rng)
    params.W2[:] = 0.0
    params.b2[:] = 0.0
    assert predict(params, np.ones(2)) == 0


def test_softmax_and_cross_entropy():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5])
    assert abs(cross_entropy(np.zeros(2), 0) - math.log(2)) < 1e-12
    # extreme logits stay finite through log-sum-exp
    assert cross_entropy(np.array([1000.0, -1000.0]), 0) < 1e-9
    assert abs(cross_entropy(np.array([1000.0, -1000.0]), 1) - 2000) < 1e-6
    with pytest.raises(HeadError):
        cross_entropy(np.zeros(2), 2)


def test_accuracy():
    rng = np.random.default_rng(4)
    params = init_mlp(2, 4, 2, rng)
    feats = [np.ones((3, 2)), np.zeros((2, 2))]
    ys = [predict(params, pool_sum(X)) for X in feats]
    assert readout(params, feats, ys, 0.0).accuracy == 1.0
    assert readout(params, feats, [1 - y for y in ys], 0.0).accuracy == 0.0


# --- JSD loss ----------------------------------------------------------

def test_jsd_loss_frozen_value():
    X = np.array([[1.0, 0.0], [1.0, 2.0]])
    assert abs(jsd_loss(X) - 0.130812035941137) < 1e-15


def test_jsd_loss_edge_cases():
    # identical uniform columns: -ln2 + 2 ln2 = ln2
    X = np.ones((2, 2))
    assert abs(jsd_loss(X) - math.log(2)) < 1e-12
    # disjoint peaked columns: -ln2
    X = np.eye(2)
    assert abs(jsd_loss(X) + math.log(2)) < 1e-12
    # single column is always zero
    assert jsd_loss(np.array([[0.3], [0.7]])) == 0.0
    # all-zero column behaves as uniform
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert abs(jsd_loss(X) - math.log(2)) < 1e-12
    with pytest.raises(HeadError):
        jsd_loss(np.array([[1.0, -0.1], [1.0, 0.5]]))


def test_jsd_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = rng.uniform(0.05, 1.0, size=(6, 4))
        grad = jsd_grad(X)
        step = 1e-6
        for idx in [(0, 0), (2, 1), (5, 3)]:
            up = X.copy()
            up[idx] += step
            down = X.copy()
            down[idx] -= step
            fd = (jsd_loss(up) - jsd_loss(down)) / (2 * step)
            assert abs(grad[idx] - fd) < 1e-6


def test_jsd_grad_zero_for_zero_column():
    X = np.array([[0.5, 0.0], [0.5, 0.0], [1.0, 0.0]])
    grad = jsd_grad(X)
    assert np.array_equal(grad[:, 1], np.zeros(3))


def test_duplicating_columns_never_decreases_jsd():
    # replacing two distinct columns with copies of their average
    # distribution removes diversity, so the loss cannot drop
    rng = np.random.default_rng(6)
    for _ in range(100):
        X = rng.uniform(0.0, 1.0, size=(10, 4))
        X[rng.random(size=X.shape) < 0.1] = 0.0
        base = jsd_loss(X)
        i, j = rng.choice(4, size=2, replace=False)
        cols = X.copy()
        pi = cols[:, i] / max(cols[:, i].sum(), 1e-300) \
            if cols[:, i].sum() > 0 else np.full(10, 0.1)
        pj = cols[:, j] / max(cols[:, j].sum(), 1e-300) \
            if cols[:, j].sum() > 0 else np.full(10, 0.1)
        avg = 0.5 * (pi + pj)
        cols[:, i] = avg
        cols[:, j] = avg
        assert jsd_loss(cols) >= base - 1e-12


# --- backward vs central finite differences ----------------------------

def numeric_grad(f, arr, step=1e-5):
    out = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + step
        hi = f()
        arr[idx] = keep - step
        lo = f()
        arr[idx] = keep
        out[idx] = (hi - lo) / (2 * step)
        it.iternext()
    return out


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    jsd_weight = 1e-4
    for trial in range(8):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 4))
        params = init_mlp(m, 5, c, rng)
        feats = [rng.uniform(0.0, 1.0, size=(n, m)) for _ in range(3)]
        ys = [int(rng.integers(c)) for _ in range(3)]

        def total():
            return batch_loss(params, feats, ys, jsd_weight).total

        grads, dxs = graph_gradients(params, feats, ys, jsd_weight)
        for name, arr in (("W1", params.W1), ("b1", params.b1),
                          ("W2", params.W2), ("b2", params.b2)):
            fd = numeric_grad(total, arr)
            assert rel_err(grads[name], fd) < 1e-4, name
        for bi, X in enumerate(feats):
            fd = numeric_grad(total, X)
            assert rel_err(dxs[bi], fd) < 1e-4


def test_backward_zero_output_weights_kill_feature_gradient():
    rng = np.random.default_rng(8)
    params = init_mlp(3, 4, 2, rng)
    params.W2[:] = 0.0
    X = rng.uniform(0.1, 1.0, size=(4, 3))
    _, dxs = graph_gradients(params, [X], [1], 0.0)
    assert np.allclose(dxs[0], 0.0)


def test_mlp_update_applies_adam_step():
    rng = np.random.default_rng(9)
    params = init_mlp(3, 4, 2, rng)
    w1 = params.W1.copy()
    grads = {"W1": np.ones_like(params.W1),
             "b1": np.zeros_like(params.b1),
             "W2": np.zeros_like(params.W2),
             "b2": np.zeros_like(params.b2)}
    mlp_update(params, grads)
    assert not np.array_equal(params.W1, w1)
    assert (params.W1 < w1).all()  # positive gradient moves weights down


def test_batch_loss_report():
    rng = np.random.default_rng(10)
    params = init_mlp(2, 3, 2, rng)
    X = rng.uniform(0.0, 1.0, size=(4, 2))
    rep = batch_loss(params, [X], [0], jsd_weight=0.5)
    assert isinstance(rep, LossReport)
    assert rep.total == rep.cross_entropy + 0.5 * rep.jsd
    assert rep.cross_entropy >= 0.0
    with pytest.raises(HeadError):
        batch_loss(params, [], [], jsd_weight=0.0)
