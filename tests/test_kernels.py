"""Kernel correctness against independent brute-force oracles.

The WL oracle rebuilds per-iteration histograms with string multiset
labels; the graphlet oracle enumerates all 3-node subsets directly.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from gkconv.graphs import (LabeledGraph, complete_graph, cycle_graph,
                           disjoint_union, star_graph)
from gkconv.kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig, KernelError,
                            WlColorTable, _key_span, graphlet3_vector,
                            kernel_matrix, refine_union, wl_indistinguishable)
from conftest import kernel_value, random_graph
from oracle import path_graph, permuted

K3 = complete_graph(3)
P3 = path_graph(3)


def wl_string_histograms(g, h):
    """Reference WL feature: one histogram per iteration, string labels."""
    colors = [str(l) for l in g.labels]
    hists = [Counter(colors)]
    for _ in range(h):
        colors = [
            colors[v] + "|" + ",".join(sorted(colors[u] for u in g.adj[v]))
            for v in range(g.num_nodes)]
        hists.append(Counter(colors))
    return hists


def wl_oracle(g1, g2, h):
    h1 = wl_string_histograms(g1, h)
    h2 = wl_string_histograms(g2, h)
    return sum(sum(c1[key] * c2[key] for key in c1)
               for c1, c2 in zip(h1, h2))


def graphlet_oracle(g):
    tri = paths = 0
    for a, b, c in combinations(range(g.num_nodes), 3):
        m = g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c)
        if m == 3:
            tri += 1
        elif m == 2:
            paths += 1
    return tri, paths


def test_wl_kernel_frozen_values():
    raw = KernelConfig(kind=WL_SUBTREE, wl_iterations=1, normalized=False)
    assert kernel_value(raw, K3, P3) == 12.0
    assert kernel_value(raw, K3, K3) == 18.0
    assert kernel_value(raw, P3, P3) == 14.0
    e = LabeledGraph(2, [(0, 1)], [0, 0])
    assert kernel_value(raw, e, e) == 8.0
    kc = KernelConfig(kind=WL_SUBTREE, wl_iterations=1, normalized=True)
    got = kernel_value(kc, K3, P3)
    assert abs(got - 12.0 / np.sqrt(252.0)) < 1e-15


def test_wl_kernel_equals_string_oracle():
    rng = np.random.default_rng(42)
    for _ in range(120):
        g1 = random_graph(rng)
        g2 = random_graph(rng)
        h = int(rng.integers(1, 4))
        raw = KernelConfig(kind=WL_SUBTREE, wl_iterations=h, normalized=False)
        assert kernel_value(raw, g1, g2) == wl_oracle(g1, g2, h)


def test_wl_label_outside_dictionary():
    with pytest.raises(KernelError):
        WlColorTable(1, 1).refine(P3.with_labels([0, 1, 0]))


def test_wl_refine_colors():
    colors = WlColorTable(1, 2).refine(P3)[0]
    assert list(colors[0]) == list(P3.labels)
    # endpoint vs middle separate after one round
    final = colors[-1]
    assert final[0] == final[2] != final[1]


def test_graphlet_vector_matches_enumeration():
    rng = np.random.default_rng(44)
    for _ in range(100):
        g = random_graph(rng, n_max=10, dict_size=1)
        assert tuple(graphlet3_vector(g)) == graphlet_oracle(g)


def test_graphlet_frozen_values():
    assert tuple(graphlet3_vector(K3)) == (1, 0)
    assert tuple(graphlet3_vector(P3)) == (0, 1)
    assert tuple(graphlet3_vector(complete_graph(4))) == (4, 0)
    assert tuple(graphlet3_vector(cycle_graph(6))) == (0, 6)
    assert tuple(graphlet3_vector(star_graph(3))) == (0, 3)


def test_graphlet_kernel_ignores_labels():
    g = cycle_graph(4)
    h = g.with_labels([1, 0, 1, 0])
    kc = KernelConfig(kind=GRAPHLET3, wl_iterations=1, normalized=False)
    assert kernel_value(kc, g, g) == kernel_value(kc, h, h)


@pytest.mark.parametrize("kind", [WL_SUBTREE, GRAPHLET3])
@pytest.mark.parametrize("normalized", [False, True])
def test_kernel_symmetry(kind, normalized):
    rng = np.random.default_rng(45)
    kc = KernelConfig(kind=kind, wl_iterations=2, normalized=normalized)
    for _ in range(25):
        g1, g2 = random_graph(rng), random_graph(rng)
        assert kernel_value(kc, g1, g2) == kernel_value(kc, g2, g1)


@pytest.mark.parametrize("kind", [WL_SUBTREE, GRAPHLET3])
def test_kernel_isomorphism_invariance(kind):
    rng = np.random.default_rng(46)
    kc = KernelConfig(kind=kind, wl_iterations=3, normalized=True)
    base = random_graph(rng, n_max=7)
    probe = random_graph(rng, n_max=7)
    want = kernel_value(kc, base, probe)
    for _ in range(50):
        perm = rng.permutation(base.num_nodes).tolist()
        assert kernel_value(kc, permuted(base, perm), probe) == want


def test_normalized_self_kernel_is_one():
    rng = np.random.default_rng(47)
    for kind in (WL_SUBTREE, GRAPHLET3):
        norm = KernelConfig(kind=kind, wl_iterations=2, normalized=True)
        raw = KernelConfig(kind=kind, wl_iterations=2, normalized=False)
        done = 0
        while done < 20:
            g = random_graph(rng, n_max=8, n_min=3, p=0.5)
            if kernel_value(raw, g, g) <= 0:
                continue  # no 3-node graphlets, nothing to normalize
            assert abs(kernel_value(norm, g, g) - 1.0) <= 1e-12
            done += 1


def test_normalized_zero_vector_guard():
    # a single node has no 3-node graphlets at all
    lonely = LabeledGraph(1, [], [0])
    kc = KernelConfig(kind=GRAPHLET3, wl_iterations=1, normalized=True)
    assert kernel_value(kc, lonely, K3) == 0.0
    assert kernel_value(kc, lonely, lonely) == 0.0


@pytest.mark.parametrize("kind", [WL_SUBTREE, GRAPHLET3])
def test_gram_matrix_positive_semidefinite(kind):
    rng = np.random.default_rng(48)
    graphs = [random_graph(rng, n_max=8, n_min=2) for _ in range(10)]
    for normalized in (False, True):
        kc = KernelConfig(kind=kind, wl_iterations=2, normalized=normalized)
        gram = kernel_matrix(kc, graphs, graphs)
        assert np.allclose(gram, gram.T)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8


@pytest.mark.parametrize("kind", [WL_SUBTREE, GRAPHLET3])
def test_gram_matrix_builds_each_row_once(kind, monkeypatch):
    # right is left: one row per graph serves both sides, with the values
    # of the two-sided product bitwise
    rng = np.random.default_rng(50)
    graphs = [random_graph(rng, n_max=9, dict_size=3) for _ in range(12)]
    graphs += [LabeledGraph(0, [], []), LabeledGraph(1, [], [2]), K3]
    refined = []
    real_refine = WlColorTable.refine

    def count_refine(table, g):
        refined.append(g)
        return real_refine(table, g)

    monkeypatch.setattr(WlColorTable, "refine", count_refine)
    for normalized in (False, True):
        kc = KernelConfig(kind=kind, wl_iterations=2, normalized=normalized)
        del refined[:]
        gram = kernel_matrix(kc, graphs, graphs)
        assert len(refined) == (len(graphs) if kind == WL_SUBTREE else 0)
        want = kernel_matrix(kc, graphs, list(graphs))
        assert gram.shape == (len(graphs), len(graphs))
        assert np.array_equal(gram, want)
        # the empty graph (index 12) has norm 0: normalizing leaves its
        # row and column the +0.0 dot products, not NaN and not -0.0
        empty = np.concatenate([gram[12], gram[:, 12]])
        assert (empty == 0.0).all() and not np.signbit(empty).any()
        assert kernel_matrix(kc, [], []).shape == (0, 0)


def test_kernel_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(49)
    left = [random_graph(rng) for _ in range(6)]
    right = [random_graph(rng) for _ in range(4)]
    for kind in (WL_SUBTREE, GRAPHLET3):
        kc = KernelConfig(kind=kind, wl_iterations=2, normalized=True)
        mat = kernel_matrix(kc, left, right)
        assert mat.shape == (6, 4)
        for i, g1 in enumerate(left):
            for j, g2 in enumerate(right):
                assert mat[i, j] == kernel_value(kc, g1, g2)


def test_wl_indistinguishable_cases():
    two_tri = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert wl_indistinguishable(two_tri, cycle_graph(6))
    assert not wl_indistinguishable(K3, P3)
    assert not wl_indistinguishable(star_graph(3), path_graph(4))
    assert wl_indistinguishable(cycle_graph(4), cycle_graph(4))
    g = random_graph(np.random.default_rng(51), n_max=7)
    perm = np.random.default_rng(52).permutation(g.num_nodes).tolist()
    assert wl_indistinguishable(g, permuted(g, perm))


def test_wl_indistinguishable_matches_string_oracle():
    """Against the string-label histograms of rounds 0..n1 + n2, by
    which the joint color partition of the two graphs is stable."""
    def oracle(g1, g2):
        h = g1.num_nodes + g2.num_nodes
        return wl_string_histograms(g1, h) == wl_string_histograms(g2, h)

    rng = np.random.default_rng(54)
    empty = LabeledGraph(0, [], [])
    two_tri = disjoint_union(cycle_graph(3), cycle_graph(3))
    # a path and a triangle plus an edge share their degrees, so only the
    # second round separates them
    tri_edge = disjoint_union(cycle_graph(3), path_graph(2))
    pairs = [(empty, empty), (empty, LabeledGraph(1, [], [0])),
             (two_tri, cycle_graph(6)), (cycle_graph(6), two_tri),
             (two_tri, cycle_graph(6, [1, 0, 0, 0, 0, 0])),
             (path_graph(5), tri_edge)]
    for i in range(600):
        if i % 3 == 0:  # permuted copies
            g1 = random_graph(rng, n_max=5, dict_size=int(rng.integers(1, 3)),
                              p=float(rng.uniform(0.2, 0.7)))
            g2 = permuted(g1, rng.permutation(g1.num_nodes).tolist())
        elif i % 3 == 1:  # any sizes, the empty graph included
            g1, g2 = (random_graph(rng, n_max=4, n_min=0,
                                   dict_size=int(rng.integers(1, 3)),
                                   p=float(rng.uniform(0.2, 0.7)))
                      for _ in range(2))
        else:  # unlabeled, where refinement is most often fooled
            g1, g2 = (random_graph(rng, n_max=4, n_min=2, dict_size=1, p=0.5)
                      for _ in range(2))
        pairs.append((g1, g2))
    got = [wl_indistinguishable(g1, g2) for g1, g2 in pairs]
    assert got == [oracle(g1, g2) for g1, g2 in pairs]
    assert got[:6] == [True, False, True, True, False, False]
    assert 0 < sum(got[6:]) < 600


def test_kernel_config_validation():
    with pytest.raises(KernelError):
        KernelConfig(kind="unknown", wl_iterations=1, normalized=True)
    with pytest.raises(KernelError):
        KernelConfig(kind=WL_SUBTREE, wl_iterations=0, normalized=True)
    with pytest.raises(KernelError):
        KernelConfig(kind=WL_SUBTREE, wl_iterations=0, normalized=False)


def _union_of(graphs):
    """CSR arrays, labels and part sizes of a disjoint union."""
    indptr, indices, labels, off = [0], [], [], 0
    for g in graphs:
        for ns in g.adj:
            indices.extend(off + u for u in ns)
            indptr.append(len(indices))
        labels.extend(g.labels)
        off += g.num_nodes
    return indptr, indices, labels, [g.num_nodes for g in graphs]


@pytest.mark.parametrize("iterations", [1, 3])
def test_refine_union_matches_kernel_matrix(iterations):
    rng = np.random.default_rng(53)
    parts = [random_graph(rng, n_max=9, dict_size=3) for _ in range(12)]
    parts.append(star_graph(5, [2] * 6))
    probes = [random_graph(rng, n_max=6, dict_size=5) for _ in range(10)]
    probes += [star_graph(11), LabeledGraph(1, [], [4])]
    union = refine_union(*_union_of(parts), iterations)
    raw = KernelConfig(kind=WL_SUBTREE, wl_iterations=iterations,
                       normalized=False)
    gram = kernel_matrix(raw, parts, parts + probes)
    assert np.array_equal(union.norms, np.sqrt(np.diag(gram)))
    assert np.array_equal(union.dot(parts + probes), gram)


def test_union_columns_of_a_list_equal_per_graph_calls():
    # a list of graphs is refined as one disjoint union against the
    # union's tables; no graph's histogram may depend on the others
    rng = np.random.default_rng(54)
    parts = [random_graph(rng, n_max=7, dict_size=3) for _ in range(8)]
    union = refine_union(*_union_of(parts), 2)
    wide = star_graph(union.width + 1, [1] * (union.width + 2))
    probes = [random_graph(rng, n_max=6, dict_size=3) for _ in range(6)]
    probes += [path_graph(3, [0, 7, 1]),  # a label the union never saw
               wide,  # a node of degree above the union's width
               LabeledGraph(1, [], [2]), LabeledGraph(0, [], [])]
    raw = KernelConfig(kind=WL_SUBTREE, wl_iterations=2, normalized=False)
    for gs in (probes, probes[::-1], [probes[0], probes[0]], [wide],
               probes[-1:], probes[-2:-1]):
        cols, dot = union.columns(gs), union.dot(gs)
        assert len(cols) == len(gs) and dot.shape == (len(parts), len(gs))
        for j, g in enumerate(gs):
            (c, n), = union.columns([g])
            assert c.dtype == cols[j][0].dtype and n.dtype == cols[j][1].dtype
            assert np.array_equal(c, cols[j][0])
            assert np.array_equal(n, cols[j][1])
            assert union.dot([g])[:, 0].tobytes() == dot[:, j].tobytes()
        assert np.array_equal(dot, kernel_matrix(raw, parts, gs))


def test_packed_key_guard():
    # every rank below n_ranks followed by k digits must fit in int64
    top = 2 ** 63 - 1
    for n_ranks, base in ((4, 5), (26_000, 3_001), (1, 2), (2 ** 40, 2 ** 22)):
        k = _key_span(n_ranks, base, 64)
        assert n_ranks * base ** k - 1 <= top < n_ranks * base ** (k + 1) - 1
    assert _key_span(4, 5, 3) == 3
    with pytest.raises(KernelError):
        _key_span(2 ** 40, 2 ** 23 + 1, 1)
    with pytest.raises(KernelError):
        _key_span(top, 2, 1)
