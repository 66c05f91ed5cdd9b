"""Readout: sum pooling, a two-layer MLP, and the training losses.

The loss is cross entropy plus a weighted redundancy penalty on the
per-mask response distributions over a graph's nodes (``jsd_loss`` has
the exact formula): identical response columns are maximally redundant
and penalized hardest, so masks are pushed to specialize. ``readout``
runs the head once per batch and serves the loss, the accuracy and the
gradients, which are computed by hand; everything is plain numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import Adam

_EPS = 1e-12


class HeadError(ValueError):
    pass


@dataclass
class MlpParams:
    W1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden, classes)
    b2: np.ndarray  # (classes,)
    opt: Adam = None

    @property
    def num_classes(self) -> int:
        return self.b2.shape[0]


def init_mlp(in_dim: int, hidden: int, classes: int,
             rng: np.random.Generator, lr: float = 0.001) -> MlpParams:
    """Glorot-uniform weights, zero biases."""
    if min(in_dim, hidden, classes) < 1:
        raise HeadError("all MLP dimensions must be >= 1")
    a1 = np.sqrt(6.0 / (in_dim + hidden))
    a2 = np.sqrt(6.0 / (hidden + classes))
    return MlpParams(
        W1=rng.uniform(-a1, a1, size=(in_dim, hidden)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-a2, a2, size=(hidden, classes)),
        b2=np.zeros(classes),
        opt=Adam(lr))


def _running_sum(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum along axis as a running ``total += a[i]`` from a zero total, in
    index order: the order, and so the bits, of a Python loop over the
    entries. A numpy sum may add pairwise instead. The ``+ 0.0`` only
    turns the -0.0 a sum of all -0.0 entries gives into the loop's 0.0."""
    return np.take(np.cumsum(a, axis=axis), -1, axis=axis) + 0.0


class _Columns(NamedTuple):
    """Column statistics of k stacked (n, m) response matrices."""

    s: np.ndarray     # (k, m) column sums, which are also the pooled sums
    zero: np.ndarray  # (k, m) all-zero columns
    P: np.ndarray     # (k, n, m) column distributions
    lp: np.ndarray    # (k, n, m) log P
    q: np.ndarray     # (k, n) mean of each matrix's column distributions
    lq: np.ndarray    # (k, n) log q


def _columns(X: np.ndarray) -> _Columns:
    """Columns of X (k, n, m) normalized to distributions; all-zero
    columns become uniform (their response carries no preference over
    nodes). Every reduction runs over the same axis layout as it would
    on one (n, m) matrix, so the values are bitwise those of k separate
    calls."""
    if (X < 0).any():
        raise HeadError("kernel responses must be non-negative")
    n = X.shape[1]
    s = X.sum(axis=1)
    zero = s <= 0.0
    P = np.where(zero[:, None, :], 1.0 / n,
                 X / np.where(zero, 1.0, s)[:, None, :])
    q = P.mean(axis=2)
    return _Columns(s, zero, P, np.log(np.maximum(P, _EPS)), q,
                    np.log(np.maximum(q, _EPS)))


def _jsd(c: _Columns) -> np.ndarray:
    """The redundancy penalty -H(q) + sum_i H(P_i) of each matrix, (k,).

    Each column entropy sums over a contiguous node axis, as a 1-D
    entropy would; the m column entropies are then added in column
    order."""
    neg_hq = (c.q * c.lq).sum(axis=1)
    terms = np.ascontiguousarray((c.P * c.lp).transpose(0, 2, 1))
    return neg_hq + _running_sum(-terms.sum(axis=2), axis=1)


def _jsd_grad(c: _Columns) -> np.ndarray:
    """d penalty / d X for each matrix, (k, n, m); all-zero columns are
    flat plateaus of the penalty and get zero gradient."""
    m = c.P.shape[2]
    # dloss/dP[v,i], then projected through the column normalization
    g = (c.lq[:, :, None] + 1.0) / m - (c.lp + 1.0)
    inner = (g * c.P).sum(axis=1)
    out = (g - inner[:, None, :]) / np.where(c.zero, 1.0, c.s)[:, None, :]
    return np.where(c.zero[:, None, :], 0.0, out)


def _matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise HeadError("need a non-empty (nodes, masks) feature matrix")
    return X


def jsd_loss(features: np.ndarray) -> float:
    """Redundancy penalty of one graph's (n, m) response matrix X.

    With P_i the distribution of column i over the nodes and q the mean
    of the P_i, the penalty is -H(q) + sum_i H(P_i). This is not the
    negated uniform-weight generalized Jensen-Shannon divergence
    -H(q) + (1/m) sum_i H(P_i): the column entropies are summed, not
    averaged, which adds (1 - 1/m) sum_i H(P_i) and so also rewards
    peaked columns. It is minimal when the columns are as distinct and
    as peaked as possible, and zero for a single column.
    """
    return float(_jsd(_columns(_matrix(features)[None]))[0])


def jsd_grad(features: np.ndarray) -> np.ndarray:
    """d jsd_loss / d features, same shape as features.

    All-zero columns are flat plateaus of the loss surface and get zero
    gradient.
    """
    return _jsd_grad(_columns(_matrix(features)[None]))[0]


@dataclass(frozen=True)
class LossReport:
    cross_entropy: float
    jsd: float
    jsd_weight: float

    @property
    def total(self) -> float:
        return self.cross_entropy + self.jsd_weight * self.jsd


@dataclass(eq=False)
class Readout:
    """The head's one pass over a batch of graphs.

    ``readout`` pools every graph, runs the MLP and derives the loss
    report and the accuracy from the one set of logits; ``gradients``
    reuses the pass's activations, so call it before the MLP parameters
    change.
    """

    loss: LossReport       # mean cross entropy and mean penalty
    accuracy: float        # share of graphs whose argmax class is right
    p: MlpParams
    ys: np.ndarray         # (b,) classes
    jsd_weight: float
    offsets: np.ndarray    # (b + 1,) first node of each graph
    groups: list           # [(batch positions, _Columns)] per node count
    pooled: np.ndarray     # (b, m)
    z1: np.ndarray         # (b, hidden) pre-activations
    a1: np.ndarray         # (b, hidden)
    prob: np.ndarray       # (b, classes) softmax


def readout(p: MlpParams, features_list, ys, jsd_weight: float) -> Readout:
    """One pass of the head over a batch: per-graph (n_g, m) response
    matrices and their classes.

    Graphs are stacked by node count, so each reduction of a graph runs
    over the same axis layout as on its own matrix, and the MLP runs as
    one stacked matrix-vector product per graph: every value is bitwise
    the one a graph-by-graph loop gives.
    """
    if len(features_list) != len(ys) or not features_list:
        raise HeadError("need matching, non-empty features and labels")
    mats = [_matrix(X) for X in features_list]
    in_dim, classes = p.W1.shape[0], p.num_classes
    if any(X.shape[1] != in_dim for X in mats):
        raise HeadError(f"feature matrices must have {in_dim} columns")
    ys = np.array([int(y) for y in ys], dtype=np.int64)
    bad = (ys < 0) | (ys >= classes)
    if bad.any():
        raise HeadError(f"class {ys[bad][0]} out of range")
    b = len(mats)
    sizes = [X.shape[0] for X in mats]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    pooled = np.empty((b, in_dim))
    jsd = np.empty(b)
    groups = []
    for n in sorted(set(sizes)):
        pos = np.flatnonzero(np.equal(sizes, n))
        c = _columns(np.stack([mats[i] for i in pos.tolist()]))
        pooled[pos] = c.s
        jsd[pos] = _jsd(c)
        groups.append((pos, c))
    z1 = (pooled[:, None, :] @ p.W1)[:, 0] + p.b1
    a1 = np.maximum(z1, 0.0)
    logits = (a1[:, None, :] @ p.W2)[:, 0] + p.b2
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    ce = np.log(total) - z[np.arange(b), ys]
    loss = LossReport(cross_entropy=float(_running_sum(ce)) / b,
                      jsd=float(_running_sum(jsd)) / b,
                      jsd_weight=jsd_weight)
    # argmax gives exact logit ties to the smaller class id
    hits = int((logits.argmax(axis=1) == ys).sum())
    return Readout(loss, hits / b, p, ys, jsd_weight, offsets, groups,
                   pooled, z1, a1, e / total[:, None])


def gradients(r: Readout):
    """Gradients of the mean total loss from a readout pass: (MLP grad
    dict, d loss / d features as one (total nodes, masks) matrix whose
    rows follow the graphs in batch order). The feature gradients fold
    in both the cross-entropy path through the pooled sums and the
    weighted redundancy penalty; they are what the mask edit search
    consumes. Batch sums run in batch order, as per-graph accumulation
    would.
    """
    p, b = r.p, len(r.ys)
    dlogits = r.prob.copy()
    dlogits[np.arange(b), r.ys] -= 1.0
    dlogits /= b
    dz1 = (p.W2 @ dlogits[:, :, None])[:, :, 0] * (r.z1 > 0.0)
    grads = {"W1": _running_sum(r.pooled[:, :, None] * dz1[:, None, :]),
             "b1": _running_sum(dz1),
             "W2": _running_sum(r.a1[:, :, None] * dlogits[:, None, :]),
             "b2": _running_sum(dlogits)}
    dpooled = (p.W1 @ dz1[:, :, None])[:, :, 0]
    m = dpooled.shape[1]
    dx = np.empty((int(r.offsets[-1]), m))
    scale = r.jsd_weight / b
    for pos, c in r.groups:
        rows = (r.offsets[pos][:, None] + np.arange(c.P.shape[1])).ravel()
        dx[rows] = (dpooled[pos][:, None, :]
                    + scale * _jsd_grad(c)).reshape(-1, m)
    return grads, dx


def batch_loss(p: MlpParams, features_list, ys, jsd_weight: float) -> LossReport:
    """Mean cross entropy and mean redundancy penalty over a batch."""
    return readout(p, features_list, ys, jsd_weight).loss


def mlp_update(p: MlpParams, grads: dict) -> None:
    p.opt.step({"W1": p.W1, "b1": p.b1, "W2": p.W2, "b2": p.b2}, grads)
