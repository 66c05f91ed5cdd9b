"""The batched readout pass against the graph-by-graph head it replaced.

The reference functions below are that head, one graph at a time: they
pool, run the MLP, build the column distributions and accumulate the
loss and gradient sums graph by graph. The batched pass must give the
same bits for every value, so seeded training runs do not move.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from gkconv import experiment
from gkconv.data import (MotifSpec, generate_motif_dataset,
                         generate_triangle_cycle_dataset, split_holdout, take)
from gkconv.experiment import TrainConfig, build_network, init_params
from gkconv.head import (HeadError, LossReport, batch_loss, gradients,
                         init_mlp, readout)
from gkconv.model import ForwardEngine
from gkconv.rng import stream
from conftest import graph_gradients
from oracle import (cross_entropy, jsd_grad, jsd_loss, mlp_forward,
                    pool_sum, predict, softmax)

_EPS = 1e-12


# --- per-graph reference ----------------------------------------------

def ref_entropy(p):
    return float(-(p * np.log(np.maximum(p, _EPS))).sum())


def ref_column_distributions(X):
    X = np.asarray(X, dtype=np.float64)
    n, m = X.shape
    s = X.sum(axis=0)
    zero = s <= 0.0
    P = X / np.where(zero, 1.0, s)
    P[:, zero] = 1.0 / n
    return P, s, zero


def ref_jsd_loss(X):
    P, _, _ = ref_column_distributions(X)
    q = P.mean(axis=1)
    return -ref_entropy(q) + sum(ref_entropy(P[:, i])
                                 for i in range(P.shape[1]))


def ref_jsd_grad(X):
    P, s, zero = ref_column_distributions(X)
    n, m = P.shape
    q = P.mean(axis=1)
    lq = np.log(np.maximum(q, _EPS))
    lp = np.log(np.maximum(P, _EPS))
    g = (lq[:, None] + 1.0) / m - (lp + 1.0)
    inner = (g * P).sum(axis=0)
    out = (g - inner[None, :]) / np.where(zero, 1.0, s)[None, :]
    out[:, zero] = 0.0
    return out


def ref_batch_loss(p, feats, ys, jsd_weight):
    ce = 0.0
    jsd = 0.0
    for X, y in zip(feats, ys):
        ce += cross_entropy(mlp_forward(p, pool_sum(X)), int(y))
        jsd += ref_jsd_loss(X)
    b = len(feats)
    return ce / b, jsd / b


def ref_accuracy(p, feats, ys):
    hits = sum(predict(p, pool_sum(X)) == int(y) for X, y in zip(feats, ys))
    return hits / len(ys)


def ref_backward(p, feats, ys, jsd_weight):
    b = len(feats)
    grads = {"W1": np.zeros_like(p.W1), "b1": np.zeros_like(p.b1),
             "W2": np.zeros_like(p.W2), "b2": np.zeros_like(p.b2)}
    dxs = []
    for X, y in zip(feats, ys):
        X = np.asarray(X, dtype=np.float64)
        pooled = pool_sum(X)
        z1 = pooled @ p.W1 + p.b1
        a1 = np.maximum(z1, 0.0)
        prob = softmax(a1 @ p.W2 + p.b2)
        dlogits = prob.copy()
        dlogits[int(y)] -= 1.0
        dlogits /= b
        grads["W2"] += np.outer(a1, dlogits)
        grads["b2"] += dlogits
        dz1 = (p.W2 @ dlogits) * (z1 > 0.0)
        grads["W1"] += np.outer(pooled, dz1)
        grads["b1"] += dz1
        dx = np.tile(p.W1 @ dz1, (X.shape[0], 1))
        dx += (jsd_weight / b) * ref_jsd_grad(X)
        dxs.append(dx)
    return grads, dxs


def ref_readout(p, feats, ys, jsd_weight):
    """What training reads of ``readout``, from the per-graph head."""
    ce, jsd = ref_batch_loss(p, feats, ys, jsd_weight)
    return SimpleNamespace(loss=LossReport(ce, jsd, jsd_weight),
                           accuracy=ref_accuracy(p, feats, ys),
                           args=(p, feats, ys, jsd_weight))


def ref_gradients(r):
    grads, dxs = ref_backward(*r.args)
    return grads, np.concatenate(dxs)


# --- bitwise comparison -------------------------------------------------

def bits(x):
    """The bytes of a float or array: unlike ==, tells -0.0 from 0.0."""
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def assert_matches_reference(p, feats, ys, jsd_weight):
    ce, jsd = ref_batch_loss(p, feats, ys, jsd_weight)
    rep = batch_loss(p, feats, ys, jsd_weight)
    assert bits(rep.cross_entropy) == bits(ce)
    assert bits(rep.jsd) == bits(jsd)
    assert readout(p, feats, ys, 0.0).accuracy == ref_accuracy(p, feats, ys)
    want_grads, want_dxs = ref_backward(p, feats, ys, jsd_weight)
    grads, dxs = graph_gradients(p, feats, ys, jsd_weight)
    assert list(grads) == list(want_grads)
    for name in want_grads:
        assert grads[name].shape == want_grads[name].shape
        assert bits(grads[name]) == bits(want_grads[name]), name
    assert len(dxs) == len(want_dxs)
    for got, want in zip(dxs, want_dxs):
        assert got.shape == want.shape
        assert bits(got) == bits(want)
    # one pass serves all three, and its stacked feature gradient is the
    # per-graph gradients end to end
    r = readout(p, feats, ys, jsd_weight)
    assert r.loss == rep
    assert r.accuracy == ref_accuracy(p, feats, ys)
    _, dx = gradients(r)
    assert bits(dx) == bits(np.concatenate(want_dxs))
    for X in feats[:4]:
        assert bits(jsd_loss(X)) == bits(ref_jsd_loss(X))
        assert bits(jsd_grad(X)) == bits(ref_jsd_grad(X))


def responses(rng, n, m, zero_cols=()):
    X = rng.uniform(0.0, 1.0, size=(n, m))
    X[rng.random(size=X.shape) < 0.25] = 0.0
    for i in zero_cols:
        X[:, i] = 0.0
    return X


# numpy's pairwise summation switches at 8 and 128 elements; 64 and 130
# sized graphs straddle its blocks, 128 and 129 sit on its block edge and
# 257 recurses twice
NODE_COUNTS = (1, 2, 7, 8, 9, 17, 64, 128, 129, 130, 257)


@pytest.mark.parametrize("masks", [1, 2, 8, 9])
@pytest.mark.parametrize("classes", [2, 3])
def test_mixed_node_counts_match_reference_bitwise(masks, classes):
    rng = np.random.default_rng(100 * masks + classes)
    for hidden in (1, 8):
        p = init_mlp(masks, hidden, classes, rng)
        p.b1[:] = rng.uniform(-0.2, 0.2, size=hidden)
        sizes = [int(n) for n in rng.permutation(NODE_COUNTS * 3)]
        feats = [responses(rng, n, masks) for n in sizes]
        ys = [int(rng.integers(classes)) for _ in feats]
        for jsd_weight in (0.0, 1e-4, 0.5):
            assert_matches_reference(p, feats, ys, jsd_weight)


def test_zero_response_columns_match_reference_bitwise():
    rng = np.random.default_rng(1)
    p = init_mlp(4, 6, 2, rng)
    feats = [responses(rng, 9, 4, zero_cols=(1,)),
             np.zeros((8, 4)),                       # every column zero
             responses(rng, 9, 4, zero_cols=(0, 3)),
             np.zeros((1, 4)),
             responses(rng, 2, 4)]
    ys = [0, 1, 1, 0, 1]
    assert_matches_reference(p, feats, ys, 1e-4)
    _, dxs = graph_gradients(p, feats, ys, 1e-4)
    # a zero column gets no penalty gradient, only the pooled-sum path
    assert np.all(dxs[0][:, 1] == dxs[0][0, 1])


def test_batch_of_one_and_repeated_graph_match_reference_bitwise():
    rng = np.random.default_rng(2)
    p = init_mlp(8, 8, 3, rng)
    X = responses(rng, 17, 8)
    for n in NODE_COUNTS:
        assert_matches_reference(p, [responses(rng, n, 8)], [2], 1e-4)
    Y = responses(rng, 17, 8)
    assert_matches_reference(p, [X, Y, X, X], [0, 1, 2, 0], 1e-4)


def test_engine_features_match_reference_bitwise():
    ds = generate_motif_dataset(MotifSpec("ring", 6), 40,
                                stream(0, "synth"))
    graphs, ys = take(ds, range(32))
    # the last net is two WL layers over a k=4 junction, 16 columns
    for kind, radius, layers in (("wl_subtree", 3, 1), ("graphlet3", 1, 1),
                                 ("wl_subtree", 3, 2)):
        net = build_network(ds.dictionary.size, num_masks=8, mask_nodes=6,
                            radius=radius, num_layers=layers,
                            kernel_kind=kind, quantizer_k=4)
        params = init_params(net, ds.num_classes, TrainConfig(seed=0))
        feats = ForwardEngine(net).forward_graphs(
            params, graphs, fit_rng=stream(0, "kmeans")).features
        assert feats[0].shape[1] == 8 * layers
        assert len({X.shape[0] for X in feats}) > 5
        assert_matches_reference(params.mlp, feats, ys, 1e-4)


def test_head_errors():
    rng = np.random.default_rng(3)
    p = init_mlp(2, 3, 3, rng)
    X = rng.uniform(0.1, 1.0, size=(4, 2))
    calls = (lambda f, y: batch_loss(p, f, y, 1e-4),
             lambda f, y: readout(p, f, y, 0.0).accuracy,
             lambda f, y: graph_gradients(p, f, y, 1e-4),
             lambda f, y: readout(p, f, y, 1e-4))
    bad = [([X, np.zeros((0, 2))], [0, 1]),        # a 0-node graph
           ([X, -X], [0, 1]),                      # negative responses
           ([X, X], [0]),                          # mismatched lengths
           ([], []),                               # empty batch
           ([X, X], [0, 3]),                       # class out of range
           ([X, X], [0, -1]),                      # negative class
           ([X, rng.uniform(size=(4, 3))], [0, 1]),  # wrong width
           ([X, np.ones(4)], [0, 1])]              # not a matrix
    for call in calls:
        for feats, ys in bad:
            with pytest.raises(HeadError):
                call(feats, ys)


def trained(ds, net, path):
    """The report (without timings) and final mask workspaces of a tiny
    seeded training run."""
    cfg = TrainConfig(epochs=3, batch_size=8, jsd_weight=0.01, seed=4)
    params, report = experiment.train(
        ds, split_holdout(ds, stream(cfg.seed, "splits")), net, cfg)
    masks = [[(mk.workspace.edges, mk.workspace.labels) for mk in bank]
             for bank in params.masks]
    return report.to_csv(path, timing=False).read_bytes(), masks


@pytest.mark.parametrize("kind", ["wl_subtree", "graphlet3"])
def test_seeded_training_matches_per_graph_head(monkeypatch, tmp_path, kind):
    # the whole trajectory, not one batch: every loss, accuracy, MLP step
    # and accepted mask edit is the per-graph head's
    if kind == "graphlet3":
        ds = generate_triangle_cycle_dataset(48, stream(1, "synth"))
        net = build_network(ds.dictionary.size, num_masks=4, mask_nodes=5,
                            radius=1, kernel_kind=kind)
    else:
        ds = generate_motif_dataset(MotifSpec("ring", 6), 48,
                                    stream(1, "synth"))
        net = build_network(ds.dictionary.size, num_masks=4, mask_nodes=5,
                            radius=2, num_layers=2, quantizer_k=3)
    want = trained(ds, net, tmp_path / "flat.csv")
    monkeypatch.setattr(experiment.head, "readout", ref_readout)
    monkeypatch.setattr(experiment.head, "gradients", ref_gradients)
    assert trained(ds, net, tmp_path / "per_graph.csv") == want
