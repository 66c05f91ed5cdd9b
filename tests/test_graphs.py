"""Graph container, ego extraction, components."""

import networkx as nx
import numpy as np
import pytest

from gkconv.graphs import (EgoSubgraph, GraphError, LabelDictionary,
                           LabeledGraph, complete_graph, connected_components,
                           cycle_graph, disjoint_union, ego_balls,
                           ego_subgraph, induced_subgraph, max_component_nodes,
                           star_graph, to_dot)
from conftest import nx_isomorphic, random_graph, to_nx
from oracle import path_graph, permuted


def test_construction_normalizes_edges():
    g = LabeledGraph(3, [(2, 1), (1, 2), (0, 1)], [0, 1, 0])
    assert g.edges == ((0, 1), (1, 2))
    assert g.num_edges == 2
    assert g.adj[1] == (0, 2)
    assert g.labels == (0, 1, 0)


def test_construction_errors():
    with pytest.raises(GraphError):
        LabeledGraph(2, [(0, 0)], [0, 0])  # self loop
    with pytest.raises(GraphError):
        LabeledGraph(2, [(0, 2)], [0, 0])  # endpoint out of range
    with pytest.raises(GraphError):
        LabeledGraph(2, [], [0])  # label count mismatch
    with pytest.raises(GraphError):
        LabeledGraph(2, [], [0, -1])  # negative label
    with pytest.raises(GraphError):
        LabeledGraph(-1, [], [])


def test_degree_and_has_edge():
    g = star_graph(3)
    assert len(g.adj[0]) == 3
    assert len(g.adj[1]) == 1
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 2)


def test_with_labels():
    g = path_graph(3)
    h = g.with_labels([2, 0, 1])
    assert h.labels == (2, 0, 1)
    assert h.edges == g.edges
    with pytest.raises(GraphError):
        g.with_labels([0])


def test_permuted_roundtrip_and_isomorphism():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graph(rng)
        perm = rng.permutation(g.num_nodes).tolist()
        h = permuted(g, perm)
        assert nx_isomorphic(g, h)
        # applying the inverse permutation restores the original
        inv = [0] * len(perm)
        for old, new in enumerate(perm):
            inv[new] = old
        back = permuted(h, inv)
        assert back.edges == g.edges and back.labels == g.labels
    with pytest.raises(GraphError):
        permuted(path_graph(3), [0, 0, 1])


def test_ego_subgraph_matches_networkx():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_graph(rng, n_max=10, p=0.25)
        v = int(rng.integers(g.num_nodes))
        r = int(rng.integers(0, 4))
        ego = ego_subgraph(g, v, r)
        ref = nx.ego_graph(to_nx(g), v, radius=r)
        assert ego.origin == tuple(sorted(ref.nodes))
        assert ego.origin[ego.center] == v
        got = {(ego.origin[a], ego.origin[b]) for a, b in ego.graph.edges}
        want = {(min(a, b), max(a, b)) for a, b in ref.edges}
        assert got == want
        labs = [g.labels[u] for u in ego.origin]
        assert list(ego.graph.labels) == labs


def test_ego_subgraph_radius_zero_and_errors():
    g = path_graph(4)
    ego = ego_subgraph(g, 2, 0)
    assert ego.graph.num_nodes == 1 and ego.origin == (2,)
    with pytest.raises(GraphError):
        ego_subgraph(g, 9, 1)
    with pytest.raises(GraphError):
        ego_subgraph(g, 0, -1)


def assert_balls_match_ego_subgraph(graphs, r):
    """Every ball of ego_balls equals ego_subgraph of its center: same
    origin, center and induced edges, in the same local node order."""
    balls = ego_balls(graphs, r)
    starts = np.concatenate(([0], np.cumsum(balls.degree)))
    node_at = np.concatenate(([0], np.cumsum(balls.sizes)))
    i, off = 0, 0
    for g in graphs:
        for v in range(g.num_nodes):
            ref = ego_subgraph(g, v, r)
            lo, hi = node_at[i], node_at[i + 1]
            origin = tuple((balls.origin[lo:hi] - off).tolist())
            assert origin == ref.origin
            assert origin.index(v) == ref.center
            adj = tuple(tuple((balls.nbrs[starts[u]:starts[u + 1]]
                               - lo).tolist()) for u in range(lo, hi))
            assert adj == ref.graph.adj
            i += 1
        off += g.num_nodes
    assert i == len(balls.sizes) == off
    assert len(balls.origin) == len(balls.degree) == node_at[-1]
    assert len(balls.nbrs) == starts[-1]


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_ego_balls_match_ego_subgraph(r):
    rng = np.random.default_rng(19)
    cases = [
        [LabeledGraph(0, [], [])],                      # empty graph
        [LabeledGraph(1, [], [2])],                     # one node
        [LabeledGraph(4, [(1, 2)], [0, 1, 0, 1])],      # isolated nodes
        [disjoint_union(cycle_graph(5), path_graph(4))],  # two components
        [path_graph(3), complete_graph(4)],  # r >= diameter for r >= 2
        [cycle_graph(9), star_graph(4), path_graph(9)],
    ]
    # graphs laid end to end, including empty ones between others
    cases.append([random_graph(rng, n_max=10, p=0.25) for _ in range(6)]
                 + [LabeledGraph(0, [], []), random_graph(rng, p=0.5)])
    for graphs in cases:
        assert_balls_match_ego_subgraph(graphs, r)


def test_ego_balls_edge_cases():
    empty = ego_balls([], 2)
    assert all(len(a) == 0 for a in empty)
    assert all(a.dtype == np.int32 for a in empty)
    with pytest.raises(GraphError):
        ego_balls([path_graph(3)], -1)


def test_connected_components_match_networkx():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = random_graph(rng, n_max=12, p=0.12)
        comps = connected_components(g)
        ref = sorted((sorted(c) for c in
                      nx.connected_components(to_nx(g))))
        assert sorted(sorted(c) for c in comps) == ref
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == list(range(g.num_nodes))


def test_component_ordering_breaks_ties_by_smallest_node():
    # two singletons 0,1 and edge {2,3}: sizes (2,1,1), ties by min id
    g = LabeledGraph(4, [(2, 3)], [0] * 4)
    comps = connected_components(g)
    assert comps[0] == [2, 3]
    assert comps[1] == [0] and comps[2] == [1]
    assert max_component_nodes(g) == [2, 3]


def test_induced_subgraph_and_max_component():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.num_nodes == 3 and sub.num_edges == 3
    comp = induced_subgraph(g, max_component_nodes(g))
    assert comp.num_nodes == 3 and comp.num_edges == 3


def test_builders():
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    c = cycle_graph(5)
    assert c.num_edges == 5 and all(len(c.adj[v]) == 2 for v in range(5))
    k = complete_graph(4)
    assert k.num_edges == 6
    s = star_graph(4)
    assert s.num_nodes == 5 and len(s.adj[0]) == 4
    u = disjoint_union(path_graph(2), cycle_graph(3))
    assert u.num_nodes == 5 and u.num_edges == 4
    with pytest.raises(GraphError):
        cycle_graph(2)
    with pytest.raises(GraphError):
        path_graph(0)


def test_label_dictionary():
    assert LabelDictionary(3).size == 3
    with pytest.raises(GraphError):
        LabelDictionary(0)


def test_to_dot_output():
    g = path_graph(3).with_labels([0, 1, 0])
    text = to_dot(g, name="demo")
    assert text.startswith("graph demo {")
    assert text.count(" -- ") == 2
    assert 'v0' in text and 'v2' in text
    colored = to_dot(g, colors=["#440154", "#fde725", "#440154"])
    assert colored.count("fillcolor") == 3
    with pytest.raises(GraphError):
        to_dot(g, colors=["#440154"])  # wrong length


def test_ego_subgraph_type():
    ego = ego_subgraph(cycle_graph(4), 1, 1)
    assert isinstance(ego, EgoSubgraph)
    assert set(ego.origin) == {0, 1, 2}
