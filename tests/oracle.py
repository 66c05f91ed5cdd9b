"""Per-graph reference paths that the batched code is checked against,
and the graph builders only tests use.

``gkc_forward`` and ``network_forward`` run the network on one graph at a
time from plain ego subgraphs and ``kernel_matrix``, sharing no cache
with ``ForwardEngine``. The head functions score one graph's pooled
features; ``head.readout`` must give their bits for every graph of a
batch. ``jsd_loss`` and ``jsd_grad`` run the head's batch statistics
on one graph.
"""

import numpy as np

from gkconv import graphs
from gkconv.head import HeadError, MlpParams, _Flat, _matrix
from gkconv.kernels import kernel_matrix
from gkconv.model import LayerConfig, ModelError, ModelParams, NetworkConfig
from gkconv.quantizer import CodebookStateError, assign


# --- graphs -------------------------------------------------------------

def path_graph(n, labels=None) -> graphs.LabeledGraph:
    if n < 1:
        raise graphs.GraphError("path needs >= 1 node")
    edges = [(i, i + 1) for i in range(n - 1)]
    return graphs.LabeledGraph(n, edges,
                               labels if labels is not None else [0] * n)


def permuted(g, perm) -> graphs.LabeledGraph:
    """g with its nodes renamed by perm (old index -> new index)."""
    if sorted(perm) != list(range(g.num_nodes)):
        raise graphs.GraphError("perm is not a permutation of the node ids")
    new_labels = [0] * g.num_nodes
    for old, new in enumerate(perm):
        new_labels[new] = g.labels[old]
    new_edges = [(perm[a], perm[b]) for a, b in g.edges]
    return graphs.LabeledGraph(g.num_nodes, new_edges, new_labels)


# --- network ------------------------------------------------------------

def gkc_forward(layer: LayerConfig, masks, g) -> np.ndarray:
    """Feature matrix (n, num_masks) for one graph under one mask bank."""
    egos = [graphs.ego_subgraph(g, v, layer.radius).graph
            for v in range(g.num_nodes)]
    return kernel_matrix(layer.kernel, egos, [mk.graph for mk in masks])


def network_forward(net: NetworkConfig, params: ModelParams,
                    g) -> np.ndarray:
    """Forward pass for one graph: (n, sum of mask counts).

    Junction codebooks must already be fitted; training uses the batched
    engine, which fits them on the fly.
    """
    if g.num_nodes == 0:
        raise ModelError("cannot run the network on an empty graph")
    cur = g
    blocks = []
    for l, layer in enumerate(net.layers):
        z = gkc_forward(layer, params.masks[l], cur)
        blocks.append(z)
        if l < net.num_layers - 1:
            if net.quantizer_k[l] is not None:
                cb = params.codebooks[l]
                if cb is None or not cb.initialized:
                    raise CodebookStateError(
                        f"junction {l} codebook has not been fitted")
                cur = cur.with_labels(assign(cb, z))
    return np.hstack(blocks)


# --- head ---------------------------------------------------------------

def pool_sum(features: np.ndarray) -> np.ndarray:
    """Column sums over the node axis; onto each mask's total response."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise HeadError("need a non-empty (nodes, masks) feature matrix")
    return features.sum(axis=0)


def mlp_forward(p: MlpParams, pooled: np.ndarray) -> np.ndarray:
    z1 = pooled @ p.W1 + p.b1
    return np.maximum(z1, 0.0) @ p.W2 + p.b2


def predict(p: MlpParams, pooled: np.ndarray) -> int:
    """Argmax class; exact logit ties go to the smaller class id."""
    return int(np.argmax(mlp_forward(p, pooled)))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(logits: np.ndarray, y: int) -> float:
    """-log softmax(logits)[y], computed via log-sum-exp."""
    if not 0 <= y < logits.shape[0]:
        raise HeadError(f"class {y} out of range")
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[y])


def jsd_loss(features: np.ndarray) -> float:
    """The head's redundancy penalty of one graph's (n, m) response
    matrix, -H(q) + sum_i H(P_i) (``gkconv.head``)."""
    return float(_Flat([_matrix(features)]).jsd[0])


def jsd_grad(features: np.ndarray) -> np.ndarray:
    """d jsd_loss / d features; all-zero columns get zero gradient."""
    return _Flat([_matrix(features)]).penalty_grad()
