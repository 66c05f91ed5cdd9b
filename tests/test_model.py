"""Network configs, structural masks, and the batched forward engine.

The engine must agree bitwise with the per-graph reference path; the
frozen kernel-response values back the triangle-discrimination claim.
"""

import copy
import gc
import weakref
from unittest import mock

import networkx as nx
import numpy as np
import pytest

import scipy.sparse._csr

import gkconv.experiment as ex
import gkconv.graphs as graphs_module
from gkconv import kernels, model
from gkconv.data import generate_triangle_cycle_dataset, split_holdout
from gkconv.drd import EditProbabilities, init_mask_bank
from gkconv.graphs import (LabelDictionary, LabeledGraph, complete_graph,
                           cycle_graph, disjoint_union, star_graph)
from gkconv.kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig,
                            WlColorTable, graphlet3_vector, kernel_matrix)
from gkconv.model import (CodebookStateError, ForwardEngine, LayerConfig,
                          ModelError, ModelParams, NetworkConfig,
                          StructuralMask, random_connected_graph)
from gkconv.graphs import ego_subgraph
from gkconv.quantizer import Codebook, assign, fit_update
from gkconv.rng import stream
from conftest import random_graph, to_nx
from oracle import gkc_forward, network_forward, path_graph

WL1 = KernelConfig(kind=WL_SUBTREE, wl_iterations=1, normalized=True)
WL2 = KernelConfig(kind=WL_SUBTREE, wl_iterations=2, normalized=True)
G3 = KernelConfig(kind=GRAPHLET3, wl_iterations=1, normalized=True)


def layer(num_masks=2, nodes=4, radius=1, kernel=WL1, dict_size=1):
    return LayerConfig(num_masks=num_masks, max_mask_nodes=nodes,
                       radius=radius, kernel=kernel,
                       input_dictionary=LabelDictionary(dict_size))


def make_params(net, rng):
    masks = [init_mask_bank(l, rng, 0.01) for l in net.layers]
    books = [None if k is None else Codebook(k) for k in net.quantizer_k]
    return ModelParams(masks=masks, codebooks=books, mlp=None)


def batch_egos(net, params, graphs, trace, l):
    """ego_subgraph of every node of a traced batch, under the labels
    layer l saw: the input labels, re-assigned at each quantizing
    junction below l from that layer's traced responses."""
    labels = np.fromiter((x for g in graphs for x in g.labels),
                         dtype=np.int64)
    for j in range(l):
        if net.quantizer_k[j] is not None:
            labels = assign(params.codebooks[j], trace.layers[j].before)
    radius = net.layers[l].radius
    ends = np.cumsum([g.num_nodes for g in graphs])
    return [ego_subgraph(g.with_labels(labels[b - g.num_nodes:b]), v,
                         radius).graph
            for g, b in zip(graphs, ends) for v in range(g.num_nodes)]


def test_layer_config_validation():
    with pytest.raises(ModelError):
        layer(num_masks=0)
    with pytest.raises(ModelError):
        layer(nodes=0)
    with pytest.raises(ModelError):
        layer(radius=0)


def test_network_config_junctions():
    l1 = layer(dict_size=1)
    l2 = layer(dict_size=4)
    net = NetworkConfig(layers=(l1, l2), quantizer_k=(4,))
    assert net.num_layers == 2 and net.feature_dim == 4
    with pytest.raises(ModelError):
        NetworkConfig(layers=(l1, l2), quantizer_k=())  # wrong count
    with pytest.raises(ModelError):
        NetworkConfig(layers=(l1, l2), quantizer_k=(3,))  # k != dict size
    with pytest.raises(ModelError):
        # passthrough junction needs matching dictionaries
        NetworkConfig(layers=(l1, l2), quantizer_k=(None,))
    same = NetworkConfig(layers=(l1, layer(dict_size=1)),
                         quantizer_k=(None,))
    assert same.quantizer_k == (None,)


def test_structural_mask_component_and_graph():
    # workspace = triangle {0,1,2} plus stray edge {3,4}
    ws = disjoint_union(complete_graph(3), complete_graph(2))
    mask = StructuralMask(workspace=ws,
                          edit_probs=EditProbabilities.zeros(5, 1))
    assert list(mask.component) == [0, 1, 2]
    assert mask.graph.num_nodes == 3 and mask.graph.num_edges == 3


def test_forward_rejects_a_mask_of_another_workspace_size():
    # the layer fixes a mask's workspace size, and every forward pass
    # checks it
    rng = np.random.default_rng(0)
    net = NetworkConfig(layers=(layer(num_masks=2, nodes=4, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    params.masks[0][1] = StructuralMask(random_connected_graph(5, 2, rng),
                                        params.masks[0][1].edit_probs)
    with pytest.raises(ModelError, match="workspace size"):
        ForwardEngine(net).forward_graphs(params, [cycle_graph(4)])


def test_random_connected_graph_properties():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        g = random_connected_graph(d, 3, rng)
        assert g.num_nodes == d
        assert nx.is_connected(to_nx(g))
        assert max(g.labels) < 3
    a = random_connected_graph(6, 2, np.random.default_rng(99))
    b = random_connected_graph(6, 2, np.random.default_rng(99))
    assert a.edges == b.edges and a.labels == b.labels


def k3_mask():
    return StructuralMask(workspace=complete_graph(3),
                          edit_probs=EditProbabilities.zeros(3, 1))


def test_gkc_forward_triangle_blind_spot_values():
    lay = layer(num_masks=1, nodes=3, radius=1, kernel=WL1)
    two_tri = disjoint_union(cycle_graph(3), cycle_graph(3))
    six = cycle_graph(6)
    z_tri = gkc_forward(lay, [k3_mask()], two_tri)
    z_six = gkc_forward(lay, [k3_mask()], six)
    assert np.allclose(z_tri, 1.0, atol=1e-12)
    want = 12.0 / np.sqrt(252.0)
    assert np.abs(z_six - want).max() < 1e-12


def test_gkc_forward_input_validation():
    lay = layer(num_masks=1, nodes=3, dict_size=1)
    net = NetworkConfig(layers=(lay,), quantizer_k=())
    g = random_graph(np.random.default_rng(4), dict_size=2)

    def forward(masks, graph):
        params = ModelParams(masks=[masks], codebooks=[], mlp=None)
        return ForwardEngine(net).forward_graphs(params, [graph])

    if max(g.labels) >= 1:
        with pytest.raises(ModelError):
            forward([k3_mask()], g)
    with pytest.raises(ModelError):
        forward([], cycle_graph(3))  # mask count mismatch


@pytest.mark.parametrize("kernel", [WL1, WL2, G3])
def test_engine_matches_reference_single_layer(kernel):
    rng = np.random.default_rng(5)
    net = NetworkConfig(layers=(layer(num_masks=3, nodes=4, radius=2,
                                      kernel=kernel, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=9, dict_size=2) for _ in range(8)]
    trace = ForwardEngine(net).forward_graphs(params, graphs)
    for g, feat in zip(graphs, trace.features):
        ref = network_forward(net, params, g)
        assert np.array_equal(feat, ref)


def test_engine_matches_reference_two_layers_with_quantizer():
    rng = np.random.default_rng(6)
    l1 = layer(num_masks=3, nodes=4, radius=1, kernel=WL2, dict_size=2)
    l2 = layer(num_masks=2, nodes=4, radius=2, kernel=WL2, dict_size=4)
    net = NetworkConfig(layers=(l1, l2), quantizer_k=(4,))
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=8, n_min=4, dict_size=2)
              for _ in range(10)]
    engine = ForwardEngine(net)
    # training mode fits the junction codebook on this batch
    fitted = engine.forward_graphs(params, graphs,
                                   fit_rng=np.random.default_rng(7))
    assert params.codebooks[0].initialized
    # eval mode and the per-graph reference must now agree bitwise
    trace = engine.forward_graphs(params, graphs)
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))
    assert all(f.shape[1] == net.feature_dim for f in fitted.features)


def test_engine_unfitted_codebook_raises_in_eval_mode():
    rng = np.random.default_rng(8)
    l1 = layer(dict_size=1)
    l2 = layer(dict_size=4)
    net = NetworkConfig(layers=(l1, l2), quantizer_k=(4,))
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=1) for _ in range(3)]
    with pytest.raises(CodebookStateError):
        ForwardEngine(net).forward_graphs(params, graphs)
    with pytest.raises(CodebookStateError):
        network_forward(net, params, graphs[0])


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["normalized", "raw"])
@pytest.mark.parametrize("l", [0, 1], ids=["layer0", "deep"])
@pytest.mark.parametrize("kind", [WL_SUBTREE, GRAPHLET3])
def test_engine_trace_responses_match_kernel_matrix(kind, l, normalized):
    # every kind's rows and mask statistic, at layer 0 and behind a
    # passthrough junction, through the one column
    rng = np.random.default_rng(9)
    kernel = KernelConfig(kind=kind, wl_iterations=2, normalized=normalized)
    net = NetworkConfig(layers=(layer(num_masks=2, nodes=4, radius=1,
                                      kernel=kernel, dict_size=2),) * (l + 1),
                        quantizer_k=(None,) * l)
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(5)]
    trace = ForwardEngine(net).forward_graphs(params, graphs)
    lt = trace.layers[l]
    egos = batch_egos(net, params, graphs, trace, l)
    masks = [mk.graph for mk in params.masks[l]]
    assert np.array_equal(lt.before, kernel_matrix(kernel, egos, masks))
    probe = random_connected_graph(4, 2, rng)
    want = kernel_matrix(kernel, egos, [probe])[:, 0]
    assert np.array_equal(lt.responses(probe), want)
    for i, g in enumerate(masks):
        assert np.array_equal(lt.before[:, i], lt.responses(g))


def test_engine_keeps_only_current_mask_histograms():
    rng = np.random.default_rng(17)
    net = NetworkConfig(layers=(layer(num_masks=2, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(4)]
    engine = ForwardEngine(net)
    first = engine.forward_graphs(params, graphs)
    old = params.masks[0][1]
    params.masks[0][1] = StructuralMask(random_connected_graph(4, 2, rng),
                                        old.edit_probs)
    second = engine.forward_graphs(params, graphs)
    current = tuple(mk.graph for mk in params.masks[0])
    assert tuple(engine._stats[0]) == current
    assert engine._memo[0][0] == current
    assert np.array_equal(first.features[0][:, 0], second.features[0][:, 0])


def test_engine_zero_cols_blanks_one_column():
    rng = np.random.default_rng(10)
    net = NetworkConfig(layers=(layer(num_masks=3, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(4)]
    plain = ForwardEngine(net).forward_graphs(params, graphs)
    zeroed = ForwardEngine(net).forward_graphs(params, graphs,
                                               zero_cols={(0, 1)})
    for a, b in zip(plain.features, zeroed.features):
        assert np.array_equal(b[:, 1], np.zeros(len(b)))
        assert np.array_equal(a[:, [0, 2]], b[:, [0, 2]])


def test_engine_empty_batch_raises():
    net = NetworkConfig(layers=(layer(),), quantizer_k=())
    params = make_params(net, np.random.default_rng(11))
    with pytest.raises(ModelError):
        ForwardEngine(net).forward_graphs(params, [])


def test_engine_checks_every_graph_of_a_batch():
    rng = np.random.default_rng(17)
    net = NetworkConfig(layers=(layer(num_masks=2, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(7)]
    graphs.append(cycle_graph(4, [0, 1, 2, 1]))  # label 2 of a 2-label dict
    engine = ForwardEngine(net)
    with pytest.raises(ModelError, match="graph label outside dictionary"):
        engine.forward_graphs(params, graphs)
    short = ModelParams(masks=[params.masks[0][:1]], codebooks=[])
    with pytest.raises(ModelError, match="layer wants 2 masks"):
        engine.forward_graphs(short, graphs[:7])
    wide = ModelParams(masks=[[fixed_mask(path_graph(4, [0, 1, 2, 0]))] * 2],
                       codebooks=[])
    with pytest.raises(ModelError, match="mask label outside"):
        engine.forward_graphs(wide, graphs[:7])


def test_engine_keeps_ego_balls_only_for_deep_wl_layers():
    rng = np.random.default_rng(18)
    graphs = [random_graph(rng, n_max=8, n_min=3, dict_size=2)
              for _ in range(8)]
    one = NetworkConfig(layers=(layer(num_masks=2, radius=2, dict_size=2),),
                        quantizer_k=())
    params = make_params(one, rng)
    engine = ForwardEngine(one)
    trace = engine.forward_graphs(params, graphs)
    assert engine._balls == {}
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(one, params, g))
    # layer 1 reads radius-2 balls on every batch; layer 0's radius-1
    # balls serve its row blocks once
    l0 = layer(num_masks=3, nodes=4, radius=1, kernel=WL2, dict_size=2)
    l1 = layer(num_masks=2, nodes=4, radius=2, kernel=WL2, dict_size=4)
    two = NetworkConfig(layers=(l0, l1), quantizer_k=(4,))
    params = make_params(two, rng)
    engine = ForwardEngine(two)
    engine.forward_graphs(params, graphs, fit_rng=np.random.default_rng(7))
    trace = engine.forward_graphs(params, graphs)
    assert {r for _, r in engine._balls} == {2}
    assert len(engine._balls) == len(graphs)
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(two, params, g))


def test_engine_is_stable_across_repeated_batches():
    rng = np.random.default_rng(12)
    net = NetworkConfig(layers=(layer(num_masks=2, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(6)]
    engine = ForwardEngine(net)
    first = engine.forward_graphs(params, graphs)
    second = engine.forward_graphs(params, graphs)
    for a, b in zip(first.features, second.features):
        assert np.array_equal(a, b)


def test_ego_subgraph_engine_consistency():
    # the engine's balls and graphlet rows must reproduce plain ego
    # extraction
    rng = np.random.default_rng(13)
    g = random_graph(rng, n_max=8, dict_size=2)
    lay = layer(num_masks=1, nodes=3, radius=2, kernel=G3, dict_size=2)
    net = NetworkConfig(layers=(lay,), quantizer_k=())
    params = ModelParams(masks=[[k3_mask()]], codebooks=[], mlp=None)
    engine = ForwardEngine(net)
    engine.forward_graphs(params, [g])
    indptr, nbrs, origin, sizes = engine._ego_balls([g], 2)
    rows = engine._graphlet_rows([g], 2)
    starts = np.concatenate(([0], np.cumsum(sizes))).tolist()
    for v in range(g.num_nodes):
        ref = ego_subgraph(g, v, 2).graph
        lo, hi = starts[v], starts[v + 1]
        edges = tuple((i - lo, int(j) - lo) for i in range(lo, hi)
                      for j in nbrs[indptr[i]:indptr[i + 1]] if j > i)
        assert edges == ref.edges
        assert tuple(g.labels[o] for o in origin[lo:hi]) == ref.labels
        assert np.array_equal(rows[v], graphlet3_vector(ref))


# -- layer 0: one array refinement per batch of new graphs -------------------

WL3 = KernelConfig(kind=WL_SUBTREE, wl_iterations=3, normalized=True)
WL3_RAW = KernelConfig(kind=WL_SUBTREE, wl_iterations=3, normalized=False)


def fixed_mask(g):
    return StructuralMask(workspace=g, edit_probs=EditProbabilities.zeros(
        g.num_nodes, max(g.labels) + 1))


def paw(labels):
    """A triangle 0-1-2 with node 3 hanging off node 2."""
    return LabeledGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], labels)


def layer0_net_and_masks():
    net = NetworkConfig(layers=(layer(num_masks=3, nodes=4, radius=2,
                                      kernel=WL3, dict_size=3),),
                        quantizer_k=())
    masks = [fixed_mask(path_graph(4, [0, 0, 0, 0])),
             fixed_mask(paw([1, 1, 1, 0])),
             fixed_mask(cycle_graph(4, [1, 2, 1, 2]))]
    return net, ModelParams(masks=[masks], codebooks=[], mlp=None)


def block_colors(engine, graphs):
    return set(np.concatenate([
        colors for _, colors, _, _ in engine._layer0_blocks(graphs)]).tolist())


def test_layer0_rows_stay_valid_when_a_later_batch_adds_colors():
    # batch one holds label-0 graphs only; batch two brings the label-1
    # paws and label-1/2 cycles that the masks were refined from at batch
    # one, so its egos must land on colors the table already holds
    rng = np.random.default_rng(18)
    net, params = layer0_net_and_masks()
    first = [random_graph(rng, n_max=8, dict_size=1) for _ in range(5)]
    first.append(star_graph(5))
    second = [paw([1, 1, 1, 0]), cycle_graph(4, [1, 2, 1, 2]),
              disjoint_union(paw([1, 1, 1, 1]), path_graph(3, [0, 1, 0]))]
    second += [random_graph(rng, n_max=8, dict_size=3) for _ in range(4)]
    engine = ForwardEngine(net)
    before = engine.forward_graphs(params, first).features
    mask_colors = set()
    for mk in params.masks[0]:
        (colors, _), _ = engine._stats[0][mk.graph]
        mask_colors |= set(colors.tolist())
    seen = block_colors(engine, first)
    trace = engine.forward_graphs(params, second)
    fresh = block_colors(engine, second) - seen
    assert (fresh & mask_colors) - {0, 1, 2}  # refined mask colors reused
    for g, feat in zip(second, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))
    lt = trace.layers[0]
    assert not hasattr(lt, "egos")  # the engine builds no ego graphs
    egos = batch_egos(net, params, second, trace, 0)
    probes = [paw([1, 1, 1, 0]), paw([2, 2, 2, 2]), LabeledGraph(1, [], [2]),
              star_graph(3, [1] * 4), cycle_graph(4, [2, 1, 2, 1])]
    for probe in probes:
        want = kernel_matrix(WL3, egos, [probe])[:, 0]
        assert np.array_equal(lt.responses(probe), want)
    # the rows hold no color of a node with more than 3 neighbors
    with pytest.raises(ModelError, match="degree 7"):
        lt.responses(star_graph(7, [1] * 8))
    # the first batch's rows are still valid under the grown table
    again = engine.forward_graphs(params, first + second[:1]).features
    for g, a, b in zip(first, before, again):
        assert np.array_equal(a, b)
        assert np.array_equal(b, network_forward(net, params, g))


def test_layer0_refines_each_graph_once(monkeypatch):
    rng = np.random.default_rng(19)
    net, params = layer0_net_and_masks()
    batch_a = [random_graph(rng, n_max=8, dict_size=3) for _ in range(4)]
    batch_b = [random_graph(rng, n_max=8, dict_size=3) for _ in range(3)]
    refined, table_refines = [], []
    real_union, real_refine = model.refine_union, WlColorTable.refine

    def count_union(indptr, indices, labels, sizes, iterations):
        refined.append(len(sizes))
        return real_union(indptr, indices, labels, sizes, iterations)

    def count_refine(table, g):
        table_refines.append(g)
        return real_refine(table, g)

    monkeypatch.setattr(model, "refine_union", count_union)
    monkeypatch.setattr(WlColorTable, "refine", count_refine)
    engine = ForwardEngine(net)
    engine.forward_graphs(params, batch_a + batch_a[:1])
    assert refined == [sum(g.num_nodes for g in batch_a)]
    engine.forward_graphs(params, batch_a[::-1])
    assert len(refined) == 1
    engine.forward_graphs(params, batch_a[:2] + batch_b)
    assert refined[1:] == [sum(g.num_nodes for g in batch_b)]
    # the color table refines mask graphs only, each once
    assert {id(g) for g in table_refines} == \
        {id(mk.graph) for mk in params.masks[0]}
    assert len(table_refines) == len(params.masks[0])


def reachable_colors(table, d):
    """Every color of table that a graph of at most d nodes can hold:
    the labels, and each refined color whose signature lists at most
    d - 1 neighbor colors, all of them reachable, as is its own."""
    out = set(range(table.num_labels))
    for sigs in table._tables:
        out |= {c for (own, nbrs), c in sigs.items()
                if len(nbrs) < d and own in out and out.issuperset(nbrs)}
    return out


@pytest.mark.parametrize("kernel", [WL3, WL3_RAW])
def test_layer0_rows_keep_the_colors_of_masks_at_the_bound(kernel):
    # masks at d = 5 nodes with nodes of degree d - 1 (a star, K_d) and
    # the longest path; a corpus with nodes of degree d - 1, d and d + 1
    d = 5
    net = NetworkConfig(layers=(layer(num_masks=3, nodes=d, radius=2,
                                      kernel=kernel, dict_size=2),),
                        quantizer_k=())
    masks = [star_graph(d - 1, [0, 1, 1, 0, 1]),
             complete_graph(d, [1] * d), path_graph(d, [0, 1, 0, 1, 1])]
    params = ModelParams(masks=[[fixed_mask(g) for g in masks]],
                         codebooks=[], mlp=None)
    rng = np.random.default_rng(36)
    graphs = [star_graph(d - 1, [0, 1, 1, 0, 1]), star_graph(d, [0] * 6),
              star_graph(d + 1, [0] + [1] * 6), complete_graph(d, [1] * 5),
              complete_graph(d + 1, [1] * 6), complete_graph(d + 2, [0] * 7),
              disjoint_union(complete_graph(d), masks[2])]
    graphs += [random_graph(rng, n_max=10, n_min=6, dict_size=2, p=0.5)
               for _ in range(5)]
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs)
    lt = trace.layers[0]
    egos = batch_egos(net, params, graphs, trace, 0)
    assert {d - 1, d, d + 1} <= {len(ns) for g in egos for ns in g.adj}
    assert np.array_equal(lt.before, kernel_matrix(kernel, egos, masks))
    probes = masks + [star_graph(d - 1, [1] * d), complete_graph(3),
                      cycle_graph(d, [0, 1, 1, 0, 0])]
    for probe in probes:
        want = kernel_matrix(kernel, egos, [probe])[:, 0]
        assert np.array_equal(lt.responses(probe), want)
    # each stored row is its ego's full histogram without the colors no
    # graph of at most d nodes holds, and leaves out some entries
    span, indices, counts, norms = map(
        np.concatenate, zip(*engine._layer0_blocks(graphs)))
    indptr = np.concatenate(([0], np.cumsum(span)))
    table = copy.deepcopy(engine._l0_table)
    keep = reachable_colors(engine._l0_table, d)
    assert set(indices.tolist()) <= keep
    full = [table.histogram(g) for g in egos]
    assert len(indices) < sum(map(len, full))
    for i, hist in enumerate(full):
        lo, hi = indptr[i], indptr[i + 1]
        row = dict(zip(indices[lo:hi].tolist(), counts[lo:hi].tolist()))
        assert row == {c: n for c, n in hist.items() if c in keep}
        assert norms[i] == np.sqrt(sum(n * n for n in hist.values()))
    with pytest.raises(ModelError, match=f"degree {d}, above the bound"):
        lt.responses(star_graph(d, [0] * (d + 1)))


# -- layer 0: mask columns over the stored rows ----------------------------

def assert_layer0_batch_exact(engine, net, params, graphs, probes,
                              zero_cols=frozenset()):
    """One traced batch: features equal the per-graph reference bitwise
    (zero_cols blanked), and the responses closure equals kernel_matrix
    over the batch's egos for the masks and every probe."""
    trace = engine.forward_graphs(params, graphs, zero_cols=zero_cols)
    for g, feat in zip(graphs, trace.features):
        if g.num_nodes == 0:
            assert feat.shape == (0, net.feature_dim)
            continue
        want = network_forward(net, params, g)
        for _, i in zero_cols:
            want[:, i] = 0.0
        assert np.array_equal(feat, want)
    lt = trace.layers[0]
    egos = batch_egos(net, params, graphs, trace, 0)
    kernel = net.layers[0].kernel
    for probe in probes + [mk.graph for mk in params.masks[0]]:
        want = kernel_matrix(kernel, egos, [probe])[:, 0]
        assert np.array_equal(lt.responses(probe), want)
    return trace


@pytest.mark.parametrize("kernel", [WL3, WL3_RAW])
def test_layer0_columns_follow_batches_and_mask_edits(kernel):
    rng = np.random.default_rng(22)
    net = NetworkConfig(layers=(layer(num_masks=3, nodes=4, radius=2,
                                      kernel=kernel, dict_size=3),),
                        quantizer_k=())
    params = make_params(net, rng)
    pool = [random_graph(rng, n_max=8, dict_size=3) for _ in range(9)]
    pool += [LabeledGraph(1, [], [2]), paw([1, 1, 1, 0]),
             LabeledGraph(0, [], [])]
    candidate = fixed_mask(cycle_graph(4, [1, 2, 1, 0]))
    probes = [paw([1, 1, 1, 0]), LabeledGraph(1, [], [2]),
              star_graph(3, [1] * 4), candidate.graph]
    engine = ForwardEngine(net)
    # new graphs and an empty one, every stored row in order, a column
    # blanked; the same batch again is served from the memo, which the
    # blanking must not have reached
    assert_layer0_batch_exact(engine, net, params, pool[:4] + pool[-1:],
                              probes, zero_cols={(0, 1)})
    assert_layer0_batch_exact(engine, net, params, pool[:4] + pool[-1:],
                              probes)
    # nor may blanking a batch served from a single kept block
    assert_layer0_batch_exact(engine, net, params, pool[1:2], probes,
                              zero_cols={(0, 0)})
    assert_layer0_batch_exact(engine, net, params, pool[1:2], probes)
    # stored and new graphs together, a repeat inside the batch
    assert_layer0_batch_exact(engine, net, params,
                              pool[6:9] + pool[:3] + pool[1:2], probes)
    # a mask replaced between batches, more new graphs among stored ones
    params.masks[0][1] = StructuralMask(
        random_connected_graph(4, 3, rng), params.masks[0][1].edit_probs)
    assert_layer0_batch_exact(engine, net, params,
                              pool[9:11] + pool[3:7] + pool[3:4], probes)
    # a mask replaced by a candidate the last batch scored, then only
    # stored graphs: the memo now holds this bank's block of every graph
    params.masks[0][2] = candidate
    trace = assert_layer0_batch_exact(engine, net, params, pool[::-1],
                                      probes)
    with pytest.raises(ModelError, match="degree 7"):
        trace.layers[0].responses(star_graph(7, [1] * 8))
    bank, memo = engine._memo[0]
    assert bank == tuple(mk.graph for mk in params.masks[0])
    assert set(memo) == set(pool)
    for g, feat in zip(pool[::-1], trace.features):
        assert memo[g][0].tolist() == list(g.labels)
        assert np.array_equal(memo[g][1], feat)
    for g, (span, colors, counts, norms) in zip(
            pool, engine._layer0_blocks(pool)):
        assert len(span) == len(norms) == g.num_nodes
        assert span.sum() == len(colors) == len(counts)


def test_layer0_warm_batch_is_a_row_gather(monkeypatch):
    # stored graphs under unchanged masks: no row matrix built, no kernel
    # product and no CSC conversion, only gathers from the kept columns
    rng = np.random.default_rng(23)
    net, params = layer0_net_and_masks()
    graphs = [random_graph(rng, n_max=8, dict_size=3) for _ in range(6)]
    engine = ForwardEngine(net)
    cold = engine.forward_graphs(params, graphs)

    def forbidden(*args, **kwargs):
        raise AssertionError("warm layer-0 batch recomputed a response")

    monkeypatch.setattr(model, "_row_matrix", forbidden)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "__matmul__", forbidden)
    monkeypatch.setattr(kernels, "csc_dot", forbidden)
    monkeypatch.setattr(scipy.sparse._csr, "csr_tocsc", forbidden)
    warm = engine.forward_graphs(params, graphs[3:] + graphs[:2])
    for a, b in zip(cold.features[3:] + cold.features[:2], warm.features):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("normalized", [True, False],
                         ids=["normalized", "raw"])
def test_layer0_bank_product_matches_per_mask_columns(normalized):
    # the bank's one row product, column by column, is each mask's
    # responses and kernel_matrix, bitwise. A candidate interned after
    # the rows were built has colors past the row matrix's last column;
    # scored again with itself among the batch's graphs, it holds the
    # last column's color. Also a batch of one-node graphs, whose rows
    # hold only isolated-node colors, and a batch with no rows at all.
    rng = np.random.default_rng(31)
    kernel = KernelConfig(kind=WL_SUBTREE, wl_iterations=2,
                          normalized=normalized)
    net = NetworkConfig(layers=(layer(num_masks=3, nodes=4, radius=1,
                                      kernel=kernel, dict_size=3),))
    params = make_params(net, rng)
    late = complete_graph(4, [2, 1, 0, 2])
    probes = [mk.graph for mk in params.masks[0]] + [late]

    def width_after(engine, graphs):
        trace = engine.forward_graphs(params, graphs)
        lt = trace.layers[0]
        block = lt.bank(probes)
        egos = batch_egos(net, params, graphs, trace, 0)
        assert np.array_equal(block, kernel_matrix(kernel, egos, probes))
        assert np.array_equal(block[:, :-1], lt.before)
        for i, g in enumerate(probes):
            assert np.array_equal(lt.responses(g), block[:, i])
        return model._row_matrix(
            engine._layer0_blocks(graphs))[0].shape[1]

    for graphs in ([random_graph(rng, n_max=8, dict_size=3)
                    for _ in range(5)],
                   [LabeledGraph(1, [], [l]) for l in (0, 2, 2)],
                   [LabeledGraph(0, [], [])]):
        engine = ForwardEngine(net)
        width = width_after(engine, graphs)
        last = max(engine._l0_table.histogram(late))
        assert last >= width
        assert width_after(engine, graphs + [copy.copy(late)]) == last + 1


def test_layer0_rows_die_with_their_batch(monkeypatch):
    # a batch's closures hold its row matrix without a reference cycle,
    # so dropping the trace frees the rows with no help from the collector
    rng = np.random.default_rng(32)
    net, params = layer0_net_and_masks()
    graphs = [random_graph(rng, n_max=8, dict_size=3) for _ in range(4)]
    engine = ForwardEngine(net)
    built = []
    row_matrix = model._row_matrix

    def kept_weakly(blocks):
        mat, norms = row_matrix(blocks)
        built.append(weakref.ref(mat))
        return mat, norms

    monkeypatch.setattr(model, "_row_matrix", kept_weakly)
    gc.disable()
    try:
        trace = engine.forward_graphs(params, graphs)
        trace.layers[0].responses(paw([1, 0, 2, 2]))
        assert len(built) == 1 and built[0]() is not None
        del trace
        assert built[0]() is None
    finally:
        gc.enable()


def test_layer0_store_keeps_only_the_current_bank():
    rng = np.random.default_rng(24)
    net, params = layer0_net_and_masks()
    graphs = [random_graph(rng, n_max=8, dict_size=3) for _ in range(5)]
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs)
    current = tuple(mk.graph for mk in params.masks[0])
    assert tuple(engine._stats[0]) == engine._memo[0][0] == current
    candidates = [fixed_mask(paw([1, 1, 1, 1])),
                  fixed_mask(cycle_graph(4, [2, 2, 1, 1]))]
    scored = [trace.layers[0].responses(c.graph) for c in candidates]
    # scoring candidates keeps their statistics for the batch's edits
    # and leaves the memo alone
    assert engine._memo[0][0] == current
    assert tuple(engine._stats[0]) == current + tuple(
        c.graph for c in candidates)
    # the first candidate is accepted: the batch's column is the one it
    # was scored with, and the replaced mask and the rejected candidate
    # are released
    old = params.masks[0][0].graph
    params.masks[0][0] = candidates[0]
    again = engine.forward_graphs(params, graphs)
    current = tuple(mk.graph for mk in params.masks[0])
    assert tuple(engine._stats[0]) == engine._memo[0][0] == current
    assert old not in engine._stats[0]
    assert set(engine._memo[0][1]) == set(graphs)
    assert np.array_equal(again.layers[0].before[:, 0], scored[0])
    assert np.array_equal(again.layers[0].responses(candidates[1].graph),
                          scored[1])


# -- deep layers: one array refinement per batch ----------------------------

def assert_deep_layer_exact(net, params, graphs, probes, fit=False):
    """Engine features equal the per-graph reference bitwise, and the
    layer-1 evaluator equals kernel_matrix over the batch's egos.

    With fit, the traced pass sees the labels and masks the fitting pass
    left, so it is served from the kept blocks without a refinement, and
    the evaluator refines the batch's union on its first call."""
    engine = ForwardEngine(net)
    if fit:
        engine.forward_graphs(params, graphs,
                              fit_rng=np.random.default_rng(0))
    with mock.patch.object(model, "refine_union",
                           wraps=model.refine_union) as spy:
        trace = engine.forward_graphs(params, graphs)
    assert spy.call_count == 0 or not fit
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))
    lt = trace.layers[1]
    assert not hasattr(lt, "egos")  # the engine builds no ego graphs
    egos = batch_egos(net, params, graphs, trace, 1)
    kernel = net.layers[1].kernel
    for probe in probes:
        want = kernel_matrix(kernel, egos, [probe])[:, 0]
        assert np.array_equal(lt.responses(probe), want)
    for i, mk in enumerate(params.masks[1]):
        assert np.array_equal(lt.before[:, i], lt.responses(mk.graph))


@pytest.mark.parametrize("kernel", [WL1, WL2, WL3_RAW])
def test_deep_layer_passthrough_and_unseen_mask_colors(kernel):
    # quantizer_k=(None,) feeds the input labels to a deep layer; the
    # batch uses labels 0-1 of 6, the masks and probes also use 2-5
    rng = np.random.default_rng(14)
    l0 = layer(num_masks=2, nodes=4, radius=1, kernel=kernel, dict_size=6)
    l1 = layer(num_masks=3, nodes=4, radius=2, kernel=kernel, dict_size=6)
    net = NetworkConfig(layers=(l0, l1), quantizer_k=(None,))
    params = make_params(net, rng)
    params.masks[1] = [
        fixed_mask(path_graph(4, [5, 4, 5, 3])),      # every label unseen
        fixed_mask(path_graph(4, [0, 1, 5, 1])),      # one unseen label
        fixed_mask(complete_graph(4, [1, 1, 1, 1])),  # unseen structure
    ]
    graphs = [random_graph(rng, n_max=8, dict_size=2) for _ in range(6)]
    graphs.append(star_graph(6, [0] + [1] * 6))  # degree above any mask
    assert max(max(g.labels) for g in graphs) == 1
    probes = [path_graph(3, [0, 2, 1]), path_graph(3, [1, 0, 1]),
              LabeledGraph(1, [], [0]), LabeledGraph(1, [], [5]),
              star_graph(9, [0] * 10),  # degree above any batch node
              complete_graph(3, [1, 1, 1]), cycle_graph(5, [0, 1, 0, 1, 1])]
    assert_deep_layer_exact(net, params, graphs, probes)


def test_deep_layer_quantized_labels_against_reference():
    rng = np.random.default_rng(15)
    l0 = layer(num_masks=3, nodes=4, radius=1, kernel=WL2, dict_size=2)
    l1 = layer(num_masks=3, nodes=5, radius=3, kernel=WL2, dict_size=4)
    net = NetworkConfig(layers=(l0, l1), quantizer_k=(4,))
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=9, n_min=3, dict_size=2)
              for _ in range(8)]
    probes = [random_connected_graph(d, 4, rng) for d in (1, 2, 3, 5, 6)]
    probes += [path_graph(2, [a, b]) for a in range(4) for b in range(4)]
    assert_deep_layer_exact(net, params, graphs, probes, fit=True)


def test_deep_layer_one_node_graphs():
    rng = np.random.default_rng(16)
    l0 = layer(num_masks=2, nodes=3, radius=1, kernel=WL2, dict_size=3)
    l1 = layer(num_masks=2, nodes=3, radius=1, kernel=WL2, dict_size=3)
    net = NetworkConfig(layers=(l0, l1), quantizer_k=(None,))
    params = make_params(net, rng)
    probes = [LabeledGraph(1, [], [0]), LabeledGraph(1, [], [2]),
              path_graph(2, [0, 0]), path_graph(3, [1, 0, 1])]
    # a one-node graph beside ordinary ones
    mixed = [LabeledGraph(1, [], [1]), random_graph(rng, dict_size=3),
             cycle_graph(4, [0, 1, 2, 0])]
    assert_deep_layer_exact(net, params, mixed, probes)
    # no neighbor anywhere in the batch
    lonely = [LabeledGraph(1, [], [l]) for l in (0, 1, 1)]
    assert_deep_layer_exact(net, params, lonely, probes)
    # no node at all: nothing to score, nothing to look up
    trace = ForwardEngine(net).forward_graphs(
        params, [LabeledGraph(0, [], [])])
    assert trace.features[0].shape == (0, net.feature_dim)
    assert trace.layers[1].responses(probes[2]).shape == (0,)


# -- deep layers: blocks kept under unchanged labels and masks -------------

def memo_net(kernel, k):
    """Two WL layers over a 2-label input; k quantizes the junction into
    k labels, None passes the input labels through."""
    l0 = layer(num_masks=3, nodes=4, radius=1, kernel=kernel, dict_size=2)
    l1 = layer(num_masks=3, nodes=4, radius=2, kernel=kernel,
               dict_size=2 if k is None else k)
    return NetworkConfig(layers=(l0, l1), quantizer_k=(k,))


def memo_setup(kernel, k, seed):
    """A net, params and 8 graphs, with an engine that has run them all
    once (fitting the junction codebook when there is one)."""
    rng = np.random.default_rng(seed)
    net = memo_net(kernel, k)
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=8, n_min=3, dict_size=2)
              for _ in range(8)]
    engine = ForwardEngine(net)
    fit = None if k is None else np.random.default_rng(seed)
    engine.forward_graphs(params, graphs, fit_rng=fit)
    return rng, net, params, graphs, engine


def count_refines(monkeypatch):
    """Patches model.refine_union to record the ball count of each call."""
    calls = []
    real = model.refine_union

    def counted(indptr, indices, labels, sizes, iterations):
        calls.append(len(sizes))
        return real(indptr, indices, labels, sizes, iterations)

    monkeypatch.setattr(model, "refine_union", counted)
    return calls


def assert_forward_exact(engine, net, params, graphs, zero_cols=frozenset()):
    """Engine features equal the per-graph reference bitwise, with the
    zero_cols columns blanked; blanking a column below the last layer
    also moves the layers above it, which the reference does not do."""
    feats = engine.forward_graphs(params, graphs,
                                  zero_cols=zero_cols).features
    for g, feat in zip(graphs, feats):
        want = network_forward(net, params, g)
        for l, i in zero_cols:
            want[:, sum(x.num_masks for x in net.layers[:l]) + i] = 0.0
        assert np.array_equal(feat, want)
    return feats


def junction_labels(net, params, graphs):
    """The layer-1 input labels of each graph under the current params."""
    if net.quantizer_k[0] is None:
        return [g.labels for g in graphs]
    return [tuple(assign(params.codebooks[0],
                         gkc_forward(net.layers[0], params.masks[0], g)))
            for g in graphs]


MEMO_CASES = [(WL2, 3), (WL3_RAW, 3), (WL2, None), (WL3_RAW, None)]
MEMO_IDS = ["quantized", "quantized_raw", "passthrough", "passthrough_raw"]


@pytest.mark.parametrize("kernel,k", MEMO_CASES, ids=MEMO_IDS)
def test_deep_layer_warm_batch_refines_nothing(monkeypatch, kernel, k):
    # every graph comes back with the labels and masks it was kept under:
    # stored at layer 0, kept at layer 1, so no refinement anywhere
    _, net, params, graphs, engine = memo_setup(kernel, k, 30)
    cold = engine.forward_graphs(params, graphs).features

    def forbidden(*args, **kwargs):
        raise AssertionError("warm batch refined a union")

    monkeypatch.setattr(model, "refine_union", forbidden)
    batch = graphs[3:] + graphs[:2] + graphs[4:5]
    warm = assert_forward_exact(engine, net, params, batch)
    for a, b in zip(cold[3:] + cold[:2] + cold[4:5], warm):
        assert np.array_equal(a, b)
    # a warm trace builds nothing until its evaluator is called
    trace = engine.forward_graphs(params, batch)
    with pytest.raises(AssertionError, match="refined a union"):
        trace.layers[1].responses(params.masks[1][0].graph)


@pytest.mark.parametrize("kernel,k", MEMO_CASES[:2], ids=MEMO_IDS[:2])
def test_warm_batch_keeps_its_junction_labels(monkeypatch, kernel, k):
    # the junction labels are kept with the layer-0 blocks, so a warm
    # batch under the same centroids assigns nothing; a refit in place, a
    # new layer-0 mask and a blanked layer-0 column each assign again
    rng, net, params, graphs, engine = memo_setup(kernel, k, 35)
    batch = graphs[3:] + graphs[:2] + graphs[4:5]
    real, calls = model.assign, []

    def forbidden(cb, X):
        raise AssertionError("warm batch assigned junction labels")

    def counted(cb, X):
        calls.append(len(X))
        return real(cb, X)

    def assert_warm():
        monkeypatch.setattr(model, "assign", forbidden)
        assert_forward_exact(engine, net, params, batch)
        monkeypatch.setattr(model, "assign", counted)

    def assert_assigns(zero_cols=frozenset()):
        # bitwise a fresh engine's features, after one assign call
        calls.clear()
        got = engine.forward_graphs(params, batch,
                                    zero_cols=zero_cols).features
        assert calls == [sum(g.num_nodes for g in batch)]
        want = ForwardEngine(net).forward_graphs(
            params, batch, zero_cols=zero_cols).features
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    assert_warm()
    # refit in place: the same array moves, and neither bank changes
    cb, banks = params.codebooks[0], [list(bank) for bank in params.masks]
    centroids, before = cb.centroids, cb.centroids.copy()
    fit_update(cb, rng.random((30, net.layers[0].num_masks)))
    assert cb.centroids is centroids
    assert not np.array_equal(cb.centroids, before)
    assert banks == params.masks
    assert_assigns()
    assert_warm()
    # a layer-0 mask replaced: its bank's blocks, and their labels, go
    params.masks[0][0] = StructuralMask(random_connected_graph(4, 2, rng),
                                        params.masks[0][0].edit_probs)
    assert_assigns()
    assert_warm()
    # a blanked layer-0 column: its labels are not kept, the old ones are
    assert_assigns(zero_cols={(0, 1)})
    assert_warm()


@pytest.mark.parametrize("kernel,k", MEMO_CASES, ids=MEMO_IDS)
def test_deep_layer_memo_follows_labels_and_masks(monkeypatch, kernel, k):
    rng, net, params, graphs, engine = memo_setup(kernel, k, 31)
    refines = count_refines(monkeypatch)
    batch = graphs[2:] + graphs[:1]
    assert_forward_exact(engine, net, params, batch)
    assert refines == []
    # one deep mask replaced: the bank changed, so the batch is refined
    params.masks[1][1] = StructuralMask(
        random_connected_graph(4, net.layers[1].input_dictionary.size, rng),
        params.masks[1][1].edit_probs)
    assert_forward_exact(engine, net, params, batch)
    assert len(refines) == 1
    assert_forward_exact(engine, net, params, batch[::-1])
    assert len(refines) == 1
    # one layer-0 mask replaced: a quantizing junction relabels some
    # graph, which misses; a passthrough junction keeps every label, so
    # the kept blocks still serve
    before = junction_labels(net, params, batch)
    old = params.masks[0][0]
    for _ in range(20):  # a replacement that moves some label
        params.masks[0][0] = StructuralMask(
            random_connected_graph(4, 2, rng), old.edit_probs)
        relabeled = junction_labels(net, params, batch) != before
        if relabeled or k is None:
            break
    assert relabeled == (k is not None)
    assert_forward_exact(engine, net, params, batch)
    assert len(refines) == 1 + relabeled
    assert_forward_exact(engine, net, params, batch)
    assert len(refines) == 1 + relabeled
    if k is None:
        return
    # the codebook refitted from scratch elsewhere (another engine, the
    # graphs in another order)
    before = junction_labels(net, params, batch)
    params.codebooks[0] = Codebook(k)
    ForwardEngine(net).forward_graphs(params, graphs[::-1],
                                      fit_rng=np.random.default_rng(5))
    assert junction_labels(net, params, batch) != before
    assert len(refines) == 4  # the other engine's layers 0 and 1
    assert_forward_exact(engine, net, params, batch)
    assert len(refines) == 5
    assert_forward_exact(engine, net, params, batch[1:])
    assert len(refines) == 5


@pytest.mark.parametrize("kernel,k", MEMO_CASES, ids=MEMO_IDS)
def test_deep_layer_zero_cols_never_reach_the_memo(monkeypatch, kernel, k):
    rng, net, params, graphs, engine = memo_setup(kernel, k, 32)
    refines = count_refines(monkeypatch)
    # blanked on a warm batch, which is served from the kept blocks
    assert_forward_exact(engine, net, params, graphs, zero_cols={(1, 0)})
    assert_forward_exact(engine, net, params, graphs)
    # blanked on the batch that refills the memo after a bank change
    params.masks[1][2] = StructuralMask(
        random_connected_graph(4, net.layers[1].input_dictionary.size, rng),
        params.masks[1][2].edit_probs)
    assert_forward_exact(engine, net, params, graphs[1:],
                         zero_cols={(1, 2), (1, 1)})
    assert_forward_exact(engine, net, params, graphs[1:])
    assert refines == [sum(g.num_nodes for g in graphs[1:])]
    # a blanked layer-0 column reaches the layer-1 labels, so a fresh
    # engine is the reference; the plain batch after it is exact too
    blanked = engine.forward_graphs(params, graphs[1:],
                                    zero_cols={(0, 1)}).features
    fresh = ForwardEngine(net).forward_graphs(params, graphs[1:],
                                              zero_cols={(0, 1)}).features
    for a, b in zip(blanked, fresh):
        assert np.array_equal(a, b)
    assert_forward_exact(engine, net, params, graphs[1:])


def test_deep_layer_memo_releases_replaced_masks():
    rng, net, params, graphs, engine = memo_setup(WL2, 3, 33)
    old = weakref.ref(params.masks[1][0].graph)
    params.masks[1][0] = StructuralMask(
        random_connected_graph(4, 3, rng), params.masks[1][0].edit_probs)
    assert_forward_exact(engine, net, params, graphs[:4])
    gc.collect()
    assert old() is None
    bank, memo = engine._memo[1]
    assert bank == tuple(mk.graph for mk in params.masks[1])
    assert set(memo) == set(graphs[:4])


@pytest.mark.parametrize("kinds,l", [
    ((WL2,), 0), ((WL2, WL2), 1), ((G3,), 0), ((WL2, G3), 1)],
    ids=["wl_layer0", "wl_deep", "graphlet3_layer0", "graphlet3_deep"])
def test_replaced_mask_graph_is_freed(kinds, l):
    # nothing the engine keeps, the memo or the mask statistics, pins a
    # mask graph once its layer's bank has moved on
    rng = np.random.default_rng(34)
    net = NetworkConfig(
        layers=tuple(layer(num_masks=2, nodes=4, radius=2, kernel=k,
                           dict_size=2) for k in kinds),
        quantizer_k=(None,) * (len(kinds) - 1))
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=8, n_min=3, dict_size=2)
              for _ in range(6)]
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs)
    trace.layers[l].responses(path_graph(3, [0, 1, 0]))
    del trace
    old = weakref.ref(params.masks[l][0].graph)
    params.masks[l][0] = StructuralMask(
        random_connected_graph(4, 2, rng), params.masks[l][0].edit_probs)
    for batch in (graphs[:4], graphs):
        assert_forward_exact(engine, net, params, batch)
    gc.collect()
    assert old() is None
    bank, memo = engine._memo[l]
    assert bank == tuple(engine._stats[l]) == tuple(
        mk.graph for mk in params.masks[l])
    assert set(memo) == set(graphs)


@pytest.mark.parametrize("kinds,l", [
    ((WL2,), 0), ((WL2, WL2), 1), ((WL3_RAW, WL3_RAW), 1), ((G3,), 0),
    ((WL2, G3), 1)],
    ids=["wl_layer0", "wl_deep", "wl_deep_raw", "graphlet3_layer0",
         "graphlet3_deep"])
def test_rejected_candidate_is_freed_after_the_next_batch(kinds, l):
    # a scored candidate's statistic is kept until the next batch, in
    # case it is accepted, and then released with the candidate
    rng = np.random.default_rng(35)
    net = NetworkConfig(
        layers=tuple(layer(num_masks=2, nodes=4, radius=2, kernel=k,
                           dict_size=2) for k in kinds),
        quantizer_k=(None,) * (len(kinds) - 1))
    params = make_params(net, rng)
    graphs = [random_graph(rng, n_max=8, n_min=3, dict_size=2)
              for _ in range(6)]
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs[:4])
    probe = path_graph(3, [0, 1, 0])
    trace.layers[l].responses(probe)
    assert probe in engine._stats[l]
    candidate = weakref.ref(probe)
    del probe
    trace = engine.forward_graphs(params, graphs[2:])
    gc.collect()
    assert candidate() is None
    assert tuple(engine._stats[l]) == tuple(
        mk.graph for mk in params.masks[l])


def test_train_keeps_blocks_of_the_current_bank_only(monkeypatch):
    # after several epochs of edits and a final evaluation under the best
    # epoch's masks, every layer's memo and mask statistics belong to the
    # returned masks, with one block per distinct graph at most
    engines = []

    class Recorded(ForwardEngine):
        def __init__(self, net):
            super().__init__(net)
            engines.append(self)

    monkeypatch.setattr(ex, "ForwardEngine", Recorded)
    ds = generate_triangle_cycle_dataset(24, np.random.default_rng(3))
    net = ex.build_network(ds.dictionary.size, num_masks=2, mask_nodes=4,
                           radius=1, num_layers=2, wl_iterations=2)
    cfg = ex.TrainConfig(epochs=4, batch_size=6, seed=2)
    params, report = ex.train(ds, split_holdout(ds, stream(2, "splits")),
                              net, cfg)
    assert len(report.rows) == cfg.epochs
    engine, = engines
    corpus = {id(g) for g in ds.graphs}
    for l, masks in enumerate(params.masks):
        bank, memo = engine._memo[l]
        assert bank == tuple(engine._stats[l]) == tuple(
            mk.graph for mk in masks)
        assert {id(g) for g in memo} <= corpus
        assert len(memo) <= len(corpus)
        for g, (labels, block, junction) in memo.items():
            assert len(labels) == g.num_nodes
            assert block.shape == (g.num_nodes, len(masks))
            assert junction is None or len(junction[1]) == g.num_nodes


# -- graphlet3: array counts per batch of new graphs ------------------------

def far_triangles():
    """Node 0 hangs off hub 1; the triangle 2-3-4 sits two hops from 0,
    and the triangle 4-5-6 has its 5-6 edge three hops out."""
    return LabeledGraph(7, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                            (3, 4), (4, 5), (4, 6), (5, 6)], [0] * 7)


def graphlet_corpus(rng):
    fixed = [LabeledGraph(1, [], [0]),
             LabeledGraph(5, [(1, 3)], [0, 1, 0, 1, 0]),  # isolated nodes
             disjoint_union(cycle_graph(3), path_graph(4)),
             complete_graph(4), complete_graph(5), far_triangles(),
             LabeledGraph(0, [], [])]
    return fixed + [random_graph(rng, n_max=9, dict_size=2)
                    for _ in range(8)]


def reference_rows(graphs, r):
    return np.array([graphlet3_vector(ego_subgraph(g, v, r).graph)
                     for g in graphs for v in range(g.num_nodes)]
                    ).reshape(-1, 2)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_graphlet_rows_match_ego_subgraph(r):
    # r = 4 reaches past the diameter of every graph of the corpus
    graphs = graphlet_corpus(np.random.default_rng(20))
    engine = ForwardEngine(NetworkConfig(layers=(layer(kernel=G3),),
                                         quantizer_k=()))
    assert np.array_equal(engine._graphlet_rows(graphs, r),
                          reference_rows(graphs, r))


# cache -> (kernel and radius per layer, the builder the cache calls and
# the nodes whose blocks one call builds; deep balls are those at radius 2)
COUNTED_CACHES = {
    "graphlet_counts": (((G3, 2),), "graphlet3_union",
                        lambda indptr, indices, sizes: len(sizes)),
    "layer0_rows": (((WL2, 2),), "refine_union",
                    lambda indptr, indices, labels, sizes, iters: len(sizes)),
    "deep_balls": (((WL2, 1), (WL2, 2)), "ego_balls",
                   lambda graphs, r: sum(g.num_nodes for g in graphs)
                   if r == 2 else None)}


def assert_cache_counts_each_graph_once(monkeypatch, cache):
    # a batch that mixes kept and new graphs builds the new graphs'
    # blocks only, in one call
    rng = np.random.default_rng(21)
    corpus = graphlet_corpus(rng)
    kinds, builder, nodes = COUNTED_CACHES[cache]
    net = NetworkConfig(
        layers=tuple(layer(num_masks=3, nodes=4, radius=r, kernel=k,
                           dict_size=2) for k, r in kinds),
        quantizer_k=(None,) * (len(kinds) - 1))
    params = make_params(net, rng)
    counted = []
    real_builder = getattr(model, builder)

    def count(*args):
        if (built := nodes(*args)) is not None:
            counted.append(built)
        return real_builder(*args)

    monkeypatch.setattr(model, builder, count)
    engine = ForwardEngine(net)
    engine.forward_graphs(params, corpus[:5])
    # seen and new graphs, a seen and a new one twice
    batch = corpus[2:] + corpus[3:4] + corpus[:1] + corpus[5:6]
    trace = engine.forward_graphs(params, batch)
    assert counted == [sum(g.num_nodes for g in corpus[:5]),
                       sum(g.num_nodes for g in corpus[5:])]
    if cache == "graphlet_counts":
        assert np.array_equal(engine._graphlet_rows(batch, 2),
                              reference_rows(batch, 2))
    for g, feat in zip(batch, trace.features):
        if g.num_nodes:
            assert np.array_equal(feat, network_forward(net, params, g))
        else:
            assert feat.shape == (0, net.feature_dim)


def test_graphlet_rows_count_each_graph_once(monkeypatch):
    assert_cache_counts_each_graph_once(monkeypatch, "graphlet_counts")


@pytest.mark.parametrize("cache", ["layer0_rows", "deep_balls"])
def test_wl_caches_count_each_graph_once(monkeypatch, cache):
    assert_cache_counts_each_graph_once(monkeypatch, cache)


@pytest.mark.parametrize("kinds", [(G3,), (WL2, G3)],
                         ids=["layer0", "deep"])
def test_graphlet_warm_batch_reads_no_rows(monkeypatch, kinds):
    # graphs kept under the current bank: the batch is served from the
    # memo, and only a call of its responses closure reads count rows
    rng = np.random.default_rng(26)
    net = NetworkConfig(
        layers=tuple(layer(num_masks=3, nodes=4, radius=2, kernel=k,
                           dict_size=2) for k in kinds),
        quantizer_k=(None,) * (len(kinds) - 1))
    params = make_params(net, rng)
    graphs = [g for g in graphlet_corpus(rng) if g.num_nodes]
    engine = ForwardEngine(net)
    cold = engine.forward_graphs(params, graphs).features

    def forbidden(*args, **kwargs):
        raise AssertionError("warm batch read graphlet rows")

    monkeypatch.setattr(ForwardEngine, "_graphlet_rows", forbidden)
    batch = graphs[5:] + graphs[:3] + graphs[6:7]
    warm = assert_forward_exact(engine, net, params, batch)
    for a, b in zip(cold[5:] + cold[:3] + cold[6:7], warm):
        assert np.array_equal(a, b)
    trace = engine.forward_graphs(params, batch)
    with pytest.raises(AssertionError, match="read graphlet rows"):
        trace.layers[-1].responses(params.masks[-1][0].graph)


def test_mask_counts_kept_for_the_current_bank_only(monkeypatch):
    # graphlet3 vectors at layer 0 and WL norms at a deep layer: each
    # current mask is counted once while it stays in the bank, a candidate
    # once per batch that scores it, and not again once it is accepted
    rng = np.random.default_rng(25)
    graphs = [random_graph(rng, n_max=8, dict_size=2) for _ in range(5)]
    l0 = layer(num_masks=2, nodes=4, radius=1, kernel=G3, dict_size=2)
    l1 = layer(num_masks=3, nodes=4, radius=2, kernel=WL2, dict_size=2)
    net = NetworkConfig(layers=(l0, l1), quantizer_k=(None,))
    params = make_params(net, rng)
    vectors, refined = [], []
    real_vector, real_refine = model.graphlet3_vector, WlColorTable.refine

    def count_vector(g):
        vectors.append(g)
        return real_vector(g)

    def count_refine(table, g):
        refined.append(g)
        return real_refine(table, g)

    monkeypatch.setattr(model, "graphlet3_vector", count_vector)
    monkeypatch.setattr(WlColorTable, "refine", count_refine)
    engine = ForwardEngine(net)
    engine.forward_graphs(params, graphs[:3])
    trace = engine.forward_graphs(params, graphs)
    assert vectors == [mk.graph for mk in params.masks[0]]
    assert refined == [mk.graph for mk in params.masks[1]]
    probe = path_graph(3, [0, 1, 1])
    accepted = fixed_mask(paw([1, 0, 0, 1]))
    for lt in trace.layers:
        for _ in range(2):
            lt.responses(probe)
            lt.responses(accepted.graph)
    assert vectors[2:] == refined[3:] == [probe, accepted.graph]
    old = params.masks[1][2].graph
    params.masks[1][2] = accepted
    trace = engine.forward_graphs(params, graphs)
    assert len(refined) == 5 and len(vectors) == 4
    assert list(engine._stats[1]) == [mk.graph for mk in params.masks[1]]
    assert old not in engine._stats[1]
    assert engine._memo[1][0] == tuple(engine._stats[1])
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))


@pytest.mark.parametrize("kinds", [(WL2, G3), (G3, WL2), (G3, G3)],
                         ids=["g3_above_wl", "wl_above_g3", "g3_twice"])
def test_graphlet_layers_against_reference(kinds):
    rng = np.random.default_rng(22)
    radius = 2 if kinds[0] is G3 else 1
    l0 = layer(num_masks=3, nodes=4, radius=radius, kernel=kinds[0],
               dict_size=2)
    l1 = layer(num_masks=3, nodes=4, radius=2, kernel=kinds[1], dict_size=3)
    net = NetworkConfig(layers=(l0, l1), quantizer_k=(3,))
    params = make_params(net, rng)
    # the reference path refuses a graph without nodes
    graphs = [g for g in graphlet_corpus(rng) if g.num_nodes]
    graphs += graphs[:2]
    probes = [random_connected_graph(d, 3, rng) for d in (1, 2, 3, 5)]
    probes += [complete_graph(3, [0, 1, 2]), path_graph(3, [2, 2, 2])]
    assert_deep_layer_exact(net, params, graphs, probes, fit=True)


def test_graphlet3_net_never_builds_ego_graphs(monkeypatch):
    def refuse(*args):
        raise AssertionError("ego_subgraph called")

    # the engine does not even bind ego_subgraph; the reference path
    # calls it through gkconv.graphs
    assert not hasattr(model, "ego_subgraph")
    monkeypatch.setattr(graphs_module, "ego_subgraph", refuse)
    ds = generate_triangle_cycle_dataset(40, stream(0, "synth"))
    net = ex.build_network(ds.dictionary.size, num_masks=3, mask_nodes=4,
                           radius=2, kernel_kind=GRAPHLET3, num_layers=2,
                           quantizer_k=3)
    cfg = ex.TrainConfig(epochs=2, batch_size=16, seed=0)
    params, report = ex.train(ds, split_holdout(ds, stream(0, "splits")),
                              net, cfg)
    assert len(report.rows) == 2
    trace = ForwardEngine(net).forward_graphs(params, ds.graphs)
    assert len(trace.features) == len(ds.graphs)
    with pytest.raises(AssertionError, match="ego_subgraph called"):
        network_forward(net, params, ds.graphs[0])  # the patch is live
