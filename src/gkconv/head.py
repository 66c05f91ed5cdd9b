"""Readout: sum pooling, a two-layer MLP, and the training losses.

The loss is cross entropy plus a weighted redundancy penalty on the
per-mask response distributions over a graph's nodes: identical
response columns are maximally redundant and penalized hardest, so masks
are pushed to specialize. With P_i the distribution of column i of a
graph's (n, m) response matrix over the nodes and q the mean of the P_i,
the penalty is -H(q) + sum_i H(P_i). This is not the negated
uniform-weight generalized Jensen-Shannon divergence -H(q) + (1/m)
sum_i H(P_i): the column entropies are summed, not averaged, which adds
(1 - 1/m) sum_i H(P_i) and so also rewards peaked columns. It is minimal
when the columns are as distinct and as peaked as possible, and zero
for a single column. ``readout`` runs the head once per batch and serves
the loss, the accuracy and the gradients, which are computed by hand;
everything is plain numpy.
Elementwise steps run once over the batch's node rows; only sums over
a graph's nodes run per node-count group, since numpy's summation order
depends on the summed length. Every value is bitwise a per-graph loop's.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _Flat:
    """A batch's (n_g, m) response matrices as one (N, m) matrix, graphs
    stable-sorted by node count, and every graph's column statistics in
    that order. numpy adds a contiguous axis pairwise, in a tree set by
    its length, so node-axis sums run per node-count group on a (graphs,
    n, columns) view laid out as each graph's own matrix; reduceat over
    the batch, or zero padding, would add in another order."""

    def __init__(self, mats):
        sizes = [X.shape[0] for X in mats]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.order = np.argsort(sizes, kind="stable")
        n = np.take(sizes, self.order)
        X = np.concatenate([mats[i] for i in self.order.tolist()])
        if (X < 0).any():
            raise HeadError("kernel responses must be non-negative")
        first = np.concatenate(([0], np.cumsum(n)))
        at = np.flatnonzero(np.diff(n, prepend=-1, append=-1))
        rows = first[at].tolist()
        # (first row, end row, nodes) of each node-count group
        self.groups = list(zip(rows, rows[1:], n[at[:-1]].tolist()))
        # each row's graph, and its row in batch order
        self.graph = np.repeat(np.arange(len(n)), n)
        self.rows = np.arange(len(X)) + self.per_row(
            self.offsets[self.order] - first[:-1])
        self.s = self.node_sums(X)  # (b, m) column sums = pooled sums
        zero = self.s <= 0.0
        self.zero = self.per_row(zero)
        self.den = self.per_row(np.where(zero, 1.0, self.s))
        # an all-zero column, with no preference over nodes, is uniform
        self.P = np.where(self.zero, self.per_row(1.0 / n)[:, None],
                          X / self.den)
        self.lp = np.log(np.maximum(self.P, _EPS))
        q = self.P.mean(axis=1)
        self.lq = np.log(np.maximum(q, _EPS))
        # P log P of each column as a row, q log q as one more, so that
        # one sum over contiguous node axes serves every entropy
        m = X.shape[1]
        terms = np.empty((m + 1, len(X)))
        np.multiply(self.P.T, self.lp.T, out=terms[:m])
        np.multiply(q, self.lq, out=terms[m])
        e = self.node_sums(terms.T)
        # -H(q) + sum_i H(P_i), column entropies added in column order
        self.jsd = e[:, m] + _running_sum(-e[:, :m], axis=1)

    def node_sums(self, A: np.ndarray) -> np.ndarray:
        """Each graph's sums of the rows of A (N, c), (b, c) in sorted
        order. A column of A that is contiguous in memory is summed
        pairwise, a C-ordered A row by row, as on one graph's matrix."""
        return np.concatenate([A[lo:hi].reshape(-1, n, A.shape[1]).sum(1)
                               for lo, hi, n in self.groups])

    def per_row(self, a: np.ndarray) -> np.ndarray:
        """Per-graph values (b, ...) in sorted order, one copy per row."""
        return a.take(self.graph, axis=0)

    def penalty_grad(self) -> np.ndarray:
        """d penalty / d X of every row, (N, m) in sorted order; all-zero
        columns are flat plateaus of the penalty and get zero gradient."""
        m = self.P.shape[1]
        # dloss/dP[v,i], then projected through the column normalization
        g = (self.lq[:, None] + 1.0) / m - (self.lp + 1.0)
        out = (g - self.per_row(self.node_sums(g * self.P))) / self.den
        return np.where(self.zero, 0.0, out)


def _matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise HeadError("need a non-empty (nodes, masks) feature matrix")
    return X


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
    reuses the pass's activations and ``flat``, so call it before the MLP
    parameters change. Only node-axis sums ran per node-count group: the
    count is all their summation order depends on.
    """

    loss: LossReport       # mean cross entropy and mean penalty
    accuracy: float        # share of graphs whose argmax class is right
    p: MlpParams
    ys: np.ndarray         # (b,) classes
    jsd_weight: float
    offsets: np.ndarray    # (b + 1,) first node of each graph
    flat: _Flat            # the batch's rows, sorted by node count
    pooled: np.ndarray     # (b, m)
    z1: np.ndarray         # (b, hidden) pre-activations
    a1: np.ndarray         # (b, hidden)
    prob: np.ndarray       # (b, classes) softmax


def readout(p: MlpParams, features_list, ys, jsd_weight: float) -> Readout:
    """One pass of the head over a batch: per-graph (n_g, m) response
    matrices and their classes.

    Elementwise steps run once over the flat batch (``_Flat``), node-axis
    sums once per node-count group, whose length sets their float order,
    and the MLP as one stacked matrix-vector product per graph: every
    value is bitwise the one a graph-by-graph loop gives.
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
    f = _Flat(mats)
    back = np.argsort(f.order)
    pooled, jsd = f.s[back], f.jsd[back]
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
    return Readout(loss, hits / b, p, ys, jsd_weight, f.offsets, f, pooled,
                   z1, a1, e / total[:, None])


def gradients(r: Readout):
    """Gradients of the mean total loss from a readout pass: (MLP grad
    dict, d loss / d features as one (total nodes, masks) matrix whose
    rows follow the graphs in batch order). The feature gradients fold
    in both the cross-entropy path through the pooled sums and the
    weighted redundancy penalty; they are what the mask edit search
    consumes. Batch sums run in batch order, as per-graph accumulation
    would.
    """
    p, b, f = r.p, len(r.ys), r.flat
    dlogits = r.prob.copy()
    dlogits[np.arange(b), r.ys] -= 1.0
    dlogits /= b
    dz1 = (p.W2 @ dlogits[:, :, None])[:, :, 0] * (r.z1 > 0.0)
    grads = {"W1": _running_sum(r.pooled[:, :, None] * dz1[:, None, :]),
             "b1": _running_sum(dz1),
             "W2": _running_sum(r.a1[:, :, None] * dlogits[:, None, :]),
             "b2": _running_sum(dlogits)}
    dpooled = (p.W1 @ dz1[:, :, None])[:, :, 0]
    dx = np.empty_like(f.P)
    dx[f.rows] = (f.per_row(dpooled[f.order])
                  + r.jsd_weight / b * f.penalty_grad())
    return grads, dx


def batch_loss(p: MlpParams, features_list, ys, jsd_weight: float) -> LossReport:
    """Mean cross entropy and mean redundancy penalty over a batch."""
    return readout(p, features_list, ys, jsd_weight).loss


def mlp_update(p: MlpParams, grads: dict) -> None:
    p.opt.step({"W1": p.W1, "b1": p.b1, "W2": p.W2, "b2": p.b2}, grads)
