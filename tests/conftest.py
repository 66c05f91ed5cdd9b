"""Shared helpers: random graph soup, one-pair kernel values, per-graph
head gradients and networkx conversion.

networkx is used purely as an independent oracle (isomorphism, ego
nets, components); the package itself never imports it.
"""

import sys

import networkx as nx
import numpy as np
import pytest

from gkconv.graphs import LabeledGraph
from gkconv.head import gradients, readout
from gkconv.kernels import kernel_matrix


def random_graph(rng, n_max=8, dict_size=3, p=0.35, n_min=1):
    n = int(rng.integers(n_min, n_max + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    labels = rng.integers(0, dict_size, size=n).tolist()
    return LabeledGraph(n, edges, labels)


def kernel_value(kc, g1, g2):
    """The kernel value of one pair, the single entry of kernel_matrix."""
    return kernel_matrix(kc, [g1], [g2])[0, 0]


def graph_gradients(p, feats, ys, jsd_weight):
    """The head's MLP gradients, and d loss / d features split per graph."""
    r = readout(p, feats, ys, jsd_weight)
    grads, dx = gradients(r)
    return grads, np.split(dx, r.offsets[1:-1])


def to_nx(g):
    out = nx.Graph()
    for v in range(g.num_nodes):
        out.add_node(v, label=g.labels[v])
    out.add_edges_from(g.edges)
    return out


def nx_isomorphic(g1, g2):
    return nx.is_isomorphic(to_nx(g1), to_nx(g2),
                            node_match=lambda a, b: a["label"] == b["label"])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RECORD", None) if mod else None
    if not lines:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in lines:
        terminalreporter.write_line(line)
