"""Output checks and trajectory digests.

The reference path rebuilds every feature row from the package's
primitives alone: ``graphs.ego_subgraph`` balls, ``kernels.kernel_matrix``
against the mask graphs and, between layers, ``quantizer.assign``. It
shares no cache with ``ForwardEngine``, so equality checks the engine's
caching and batching, and kernel values are integer histogram dot
products, so equality is required bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from gkconv import graphs, kernels, quantizer


def reference_features(net, params, g):
    """(n, feature_dim) features of one graph from primitives only."""
    cur = g
    blocks = []
    for l, layer in enumerate(net.layers):
        egos = [graphs.ego_subgraph(cur, v, layer.radius).graph
                for v in range(cur.num_nodes)]
        z = kernels.kernel_matrix(layer.kernel, egos,
                                  [m.graph for m in params.masks[l]])
        blocks.append(z)
        if l < net.num_layers - 1 and net.quantizer_k[l] is not None:
            cur = cur.with_labels(quantizer.assign(params.codebooks[l], z))
    return np.hstack(blocks)


def feature_mismatches(net, params, sample, features):
    """Number of graphs whose engine features differ from the reference."""
    return sum(not np.array_equal(f, reference_features(net, params, g))
               for g, f in zip(sample, features))


def report_digest(report, path) -> str:
    """sha256 of the report written without its wall-clock column."""
    return hashlib.sha256(
        report.to_csv(path, timing=False).read_bytes()).hexdigest()


def mask_digest(params) -> str:
    """sha256 of every mask's final workspace edge and label lists."""
    state = [[(m.workspace.edges, m.workspace.labels) for m in bank]
             for bank in params.masks]
    return hashlib.sha256(repr(state).encode()).hexdigest()
