"""Network configs, structural masks, and the batched forward engine.

The engine must agree bitwise with the per-graph reference path; the
frozen kernel-response values back the triangle-discrimination claim.
"""

import networkx as nx
import numpy as np
import pytest

from gkconv import model
from gkconv.drd import EditProbabilities, init_mask_bank
from gkconv.graphs import (LabelDictionary, LabeledGraph, complete_graph,
                           cycle_graph, disjoint_union, path_graph,
                           star_graph)
from gkconv.kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig,
                            WlColorTable, kernel_matrix)
from gkconv.model import (CodebookStateError, ForwardEngine, LayerConfig,
                          ModelError, ModelParams, NetworkConfig,
                          StructuralMask, gkc_forward, network_forward,
                          random_connected_graph)
from gkconv.graphs import ego_subgraph
from gkconv.quantizer import Codebook
from conftest import random_graph, to_nx

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


def test_structural_mask_replaced_keeps_size():
    ws = random_connected_graph(4, 2, np.random.default_rng(0))
    mask = StructuralMask(workspace=ws,
                          edit_probs=EditProbabilities.zeros(4, 2))
    new_ws = random_connected_graph(4, 2, np.random.default_rng(1))
    swapped = mask.replaced(new_ws)
    assert swapped.workspace is new_ws
    assert swapped.edit_probs is mask.edit_probs
    with pytest.raises(ModelError):
        mask.replaced(random_connected_graph(5, 2, np.random.default_rng(2)))


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
    g = random_graph(np.random.default_rng(4), dict_size=2)
    if max(g.labels) >= 1:
        with pytest.raises(ModelError):
            gkc_forward(lay, [k3_mask()], g)
    with pytest.raises(ModelError):
        gkc_forward(lay, [], cycle_graph(3))  # mask count mismatch


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


def test_engine_trace_responses_match_kernel_matrix():
    rng = np.random.default_rng(9)
    for kernel in (WL2, G3):
        net = NetworkConfig(layers=(layer(num_masks=2, nodes=4, radius=1,
                                          kernel=kernel, dict_size=2),),
                            quantizer_k=())
        params = make_params(net, rng)
        graphs = [random_graph(rng, dict_size=2) for _ in range(5)]
        trace = ForwardEngine(net).forward_graphs(params, graphs,
                                                  want_trace=True)
        lt = trace.layers[0]
        probe = random_connected_graph(4, 2, rng)
        got = lt.responses(probe)
        want = kernel_matrix(kernel, lt.egos, [probe])[:, 0]
        assert np.array_equal(got, want)
        # before-matrix equals the per-mask responses too
        for i, mk in enumerate(params.masks[0]):
            assert np.array_equal(lt.before[:, i], lt.responses(mk.graph))


def test_engine_keeps_only_current_mask_histograms():
    rng = np.random.default_rng(17)
    net = NetworkConfig(layers=(layer(num_masks=2, dict_size=2),),
                        quantizer_k=())
    params = make_params(net, rng)
    graphs = [random_graph(rng, dict_size=2) for _ in range(4)]
    engine = ForwardEngine(net)
    first = engine.forward_graphs(params, graphs)
    old = params.masks[0][1]
    params.masks[0][1] = old.replaced(random_connected_graph(4, 2, rng))
    second = engine.forward_graphs(params, graphs)
    bank = engine._l0_cache._bank
    assert set(map(id, bank)) == {id(mk.graph) for mk in params.masks[0]}
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
    # engine ego templates must reproduce plain ego extraction
    rng = np.random.default_rng(13)
    g = random_graph(rng, n_max=8, dict_size=2)
    lay = layer(num_masks=1, nodes=3, radius=2, kernel=WL1, dict_size=2)
    net = NetworkConfig(layers=(lay,), quantizer_k=())
    params = ModelParams(masks=[[k3_mask()]], codebooks=[], mlp=None)
    trace = ForwardEngine(net).forward_graphs(params, [g], want_trace=True)
    egos = trace.layers[0].egos
    for v in range(g.num_nodes):
        ref = ego_subgraph(g, v, 2).graph
        assert egos[v].edges == ref.edges
        assert egos[v].labels == ref.labels


# -- layer 0: one array refinement per batch of new graphs -------------------

WL3 = KernelConfig(kind=WL_SUBTREE, wl_iterations=3, normalized=True)


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
    blocks = engine._l0_cache._blocks
    return set(np.concatenate([blocks[g][1] for g in graphs]).tolist())


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
        mask_colors |= set(engine._l0_cache.mask_counts(mk.graph)[0].tolist())
    seen = block_colors(engine, first)
    trace = engine.forward_graphs(params, second, want_trace=True)
    fresh = block_colors(engine, second) - seen
    assert (fresh & mask_colors) - {0, 1, 2}  # refined mask colors reused
    for g, feat in zip(second, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))
    lt = trace.layers[0]
    assert "egos" not in vars(lt)  # built on first read only
    probes = [paw([1, 1, 1, 0]), paw([2, 2, 2, 2]), LabeledGraph(1, [], [2]),
              star_graph(7, [1] * 8), cycle_graph(4, [2, 1, 2, 1])]
    for probe in probes:
        want = kernel_matrix(WL3, lt.egos, [probe])[:, 0]
        assert np.array_equal(lt.responses(probe), want)
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


# -- deep layers: one array refinement per batch ----------------------------

WL3_RAW = KernelConfig(kind=WL_SUBTREE, wl_iterations=3, normalized=False)


def assert_deep_layer_exact(net, params, graphs, probes, fit=False):
    """Engine features equal the per-graph reference bitwise, and the
    layer-1 evaluator equals kernel_matrix over the traced egos."""
    engine = ForwardEngine(net)
    if fit:
        engine.forward_graphs(params, graphs,
                              fit_rng=np.random.default_rng(0))
    trace = engine.forward_graphs(params, graphs, want_trace=True)
    for g, feat in zip(graphs, trace.features):
        assert np.array_equal(feat, network_forward(net, params, g))
    lt = trace.layers[1]
    assert "egos" not in vars(lt)  # built on first read only
    kernel = net.layers[1].kernel
    for probe in probes:
        want = kernel_matrix(kernel, lt.egos, [probe])[:, 0]
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
        params, [LabeledGraph(0, [], [])], want_trace=True)
    assert trace.features[0].shape == (0, net.feature_dim)
    assert trace.layers[1].responses(probes[2]).shape == (0,)
