"""Randomized descent over mask edits: proposals, estimates, updates.

An edit is its index k in the phase's weight vector (``_phase_weights``).
"""

import copy
import hashlib

import networkx as nx
import numpy as np
import pytest

import gkconv.experiment as ex
from gkconv.data import (MotifSpec, generate_motif_dataset,
                         generate_triangle_cycle_dataset, split_holdout)
from gkconv import graphs
from gkconv.drd import (DrdError, EditProbabilities, _phase_weights,
                        apply_edit, drd_step_batched, init_mask_bank,
                        init_structural_mask, sample_edit, update_probs)
from gkconv.graphs import (LabelDictionary, LabeledGraph, complete_graph,
                           induced_subgraph)
from gkconv.kernels import GRAPHLET3, WL_SUBTREE, KernelConfig, kernel_matrix
from gkconv import model
from gkconv.model import (ForwardEngine, LayerConfig, ModelParams,
                          NetworkConfig, StructuralMask)
from gkconv.rng import stream
from conftest import kernel_value, random_graph, to_nx

EDGE = "edge"
LABEL = "label"
WL = KernelConfig(kind=WL_SUBTREE, wl_iterations=2, normalized=True)


def pair_index(u, v, d):
    """Index of the pair u < v among d nodes' pairs in row-major order:
    the edge edit that toggles it."""
    return u * d - u * (u + 1) // 2 + (v - u - 1)


def label_index(mask, node, label):
    """The label edit that gives node the label, one of its others."""
    own = mask.workspace.labels[node]
    return node * (mask.edit_probs.label_logits.shape[1] - 1) + label - (
        label > own)


def edit_of(before, after):
    """What an edit changed, read off the two workspaces: ("add", u, v),
    ("remove", u, v) or ("relabel", node, label), one tuple per change."""
    a, b = before.workspace, after.workspace
    out = [("add", *e) for e in sorted(set(b.edges) - set(a.edges))]
    out += [("remove", *e) for e in sorted(set(a.edges) - set(b.edges))]
    out += [("relabel", v, y) for v, (x, y) in enumerate(zip(a.labels,
                                                             b.labels))
            if x != y]
    return out


def sees_change(before, after):
    """Whether an edit altered the mask the kernel actually sees."""
    return ((before.component, before.graph.edges, before.graph.labels)
            != (after.component, after.graph.edges, after.graph.labels))


def kernel_step(mask, egos, grads, phase, rng):
    """drd_step_batched with the engine's responses closure rebuilt on
    kernel_matrix."""
    def responses(mask_graph):
        return kernel_matrix(WL, egos, [mask_graph])[:, 0]
    return drd_step_batched(mask, phase, rng, responses,
                            responses(mask.graph),
                            np.asarray(grads, dtype=np.float64))


def layer(nodes=5, dict_size=2, num_masks=1):
    return LayerConfig(num_masks=num_masks, max_mask_nodes=nodes, radius=1,
                       kernel=WL, input_dictionary=LabelDictionary(dict_size))


def fresh_mask(nodes=5, dict_size=2, seed=0):
    return init_structural_mask(layer(nodes, dict_size),
                                np.random.default_rng(seed))


def absent_pair(ws):
    return next(((u, v) for u in range(ws.num_nodes)
                 for v in range(u + 1, ws.num_nodes)
                 if not ws.has_edge(u, v)), None)


def mask_with_absent_pair(nodes=4, dict_size=2):
    # random workspaces are occasionally complete; scan seeds for a gap
    for seed in range(50):
        mask = fresh_mask(nodes, dict_size, seed)
        if absent_pair(mask.workspace) is not None:
            return mask
    raise AssertionError("no workspace with a missing edge found")


def test_pair_index_enumeration_roundtrip():
    # edge edit k toggles the k-th pair u < v in row-major order
    for d in range(2, 9):
        mask = fresh_mask(d, seed=d)
        pairs = [(u, v) for u in range(d) for v in range(u + 1, d)]
        for pos, (u, v) in enumerate(pairs):
            assert pair_index(u, v, d) == pos
            kind = "remove" if mask.workspace.has_edge(u, v) else "add"
            assert edit_of(mask, apply_edit(mask, EDGE, pos)) == [
                (kind, u, v)]


def test_zeroed_probabilities_are_flat():
    ep = EditProbabilities.zeros(4, 3)
    assert np.allclose(ep.edge_probs(), 0.5)
    assert np.allclose(ep.label_probs(), 1.0 / 3.0)
    assert ep.label_probs().shape == (4, 3)


def test_edit_distribution_edge_phase():
    mask = fresh_mask(nodes=5)
    w = _phase_weights(mask, EDGE)
    assert len(w) == 10  # C(5,2), every pair proposable
    assert abs(w.sum() - 1.0) < 1e-12
    kinds = [edit_of(mask, apply_edit(mask, EDGE, k))[0][0]
             for k in range(len(w))]
    assert set(kinds) == {"add", "remove"}
    assert kinds.count("remove") == mask.workspace.num_edges


def test_edit_distribution_respects_logits():
    mask = mask_with_absent_pair(nodes=4)
    # crank one absent pair's logit way up; adding it should dominate
    absent = absent_pair(mask.workspace)
    mask.edit_probs.edge_logits[pair_index(*absent, 4)] = 50.0
    best = int(np.argmax(_phase_weights(mask, EDGE)))
    assert edit_of(mask, apply_edit(mask, EDGE, best)) == [("add", *absent)]


def test_edit_distribution_label_phase():
    mask = fresh_mask(nodes=4, dict_size=3)
    w = _phase_weights(mask, LABEL)
    assert len(w) == 4 * 2  # every node, every other label
    assert abs(w.sum() - 1.0) < 1e-12
    edits = [edit_of(mask, apply_edit(mask, LABEL, k)) for k in range(8)]
    assert edits == [[("relabel", node, label)] for node in range(4)
                     for label in range(3)
                     if label != mask.workspace.labels[node]]


def test_label_phase_without_alternatives_is_empty():
    mask = fresh_mask(nodes=4, dict_size=1)
    assert len(_phase_weights(mask, LABEL)) == 0
    assert sample_edit(mask, LABEL, np.random.default_rng(0)) is None


def loop_distribution(mask, phase):
    """Reference: every edit, as edit_of describes it, and its weight, one
    pair or label at a time."""
    ws, ep = mask.workspace, mask.edit_probs
    d = ws.num_nodes
    ops, weights = [], []
    if phase == EDGE:
        p = ep.edge_probs()
        for u in range(d):
            for v in range(u + 1, d):
                if ws.has_edge(u, v):
                    ops.append([("remove", u, v)])
                    weights.append(1.0 - p[pair_index(u, v, d)])
                else:
                    ops.append([("add", u, v)])
                    weights.append(p[pair_index(u, v, d)])
    else:
        s = ep.label_probs()
        for node in range(d):
            for c in range(s.shape[1]):
                if c != ws.labels[node]:
                    ops.append([("relabel", node, c)])
                    weights.append(s[node, c])
    if not ops:
        return [], np.zeros(0)
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0.0:
        return ops, np.full(len(ops), 1.0 / len(ops))
    return ops, w / total


def test_edit_distribution_matches_loop_reference_bitwise():
    rng = np.random.default_rng(30)
    # a complete workspace whose removals all weigh 0 takes the uniform
    # fallback
    full = StructuralMask(complete_graph(5),
                          EditProbabilities.zeros(5, 1))
    full.edit_probs.edge_logits[:] = 60.0
    masks = [full]
    for trial in range(60):
        nodes, dict_size = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        mask = fresh_mask(nodes, dict_size, seed=trial)
        ep = mask.edit_probs
        ep.edge_logits[:] = rng.normal(scale=4.0, size=ep.edge_logits.shape)
        ep.label_logits[:] = rng.normal(scale=4.0,
                                        size=ep.label_logits.shape)
        if trial % 10 == 0:  # saturated sigmoids: zero-weight removals
            ep.edge_logits[:] = np.where(
                [mask.workspace.has_edge(u, v) for u in range(nodes)
                 for v in range(u + 1, nodes)], 60.0, -60.0)
        masks.append(mask)
    for trial, mask in enumerate(masks):
        for phase in (EDGE, LABEL):
            want_ops, want_w = loop_distribution(mask, phase)
            w = _phase_weights(mask, phase)
            assert [edit_of(mask, apply_edit(mask, phase, k))
                    for k in range(len(w))] == want_ops
            assert w.tobytes() == want_w.tobytes()
            draw = sample_edit(mask, phase, np.random.default_rng(trial))
            if want_ops:
                pick = np.random.default_rng(trial).choice(len(want_ops),
                                                           p=want_w)
                assert draw == int(pick)
            else:
                assert draw is None


def test_unknown_phase_raises():
    with pytest.raises(DrdError):
        sample_edit(fresh_mask(), "swap", np.random.default_rng(0))


def test_drd_step_without_legal_edits_is_stateless_noop():
    mask = fresh_mask(nodes=4, dict_size=1)
    logits = mask.edit_probs.label_logits.copy()
    out, accepted, est = kernel_step(mask, [], [], LABEL,
                                     np.random.default_rng(1))
    assert out is mask and not accepted and est == 0.0
    assert np.array_equal(mask.edit_probs.label_logits, logits)


def test_apply_edit_add_remove_relabel():
    mask = mask_with_absent_pair(nodes=4, dict_size=2)
    ws = mask.workspace
    absent = absent_pair(ws)
    k = pair_index(*absent, 4)
    grown = apply_edit(mask, EDGE, k)
    assert grown.workspace.has_edge(*absent)
    # the same index toggles the pair back: add and remove are one edit
    back = apply_edit(grown, EDGE, k)
    assert back.workspace.edges == ws.edges
    relab = apply_edit(mask, LABEL, 0)  # node 0, its one other label
    assert relab.workspace.labels[0] == 1 - ws.labels[0]
    # the workspace object is replaced, never mutated
    assert mask.workspace is ws
    assert relab.edit_probs is grown.edit_probs is mask.edit_probs


def random_workspace_masks(rng, count):
    """Masks with random workspaces, complete and empty ones among them."""
    masks = []
    for trial in range(count):
        d, dict_size = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        p = (0.0, 1.0, rng.random())[trial % 3]
        ws = random_graph(rng, n_max=d, n_min=d, dict_size=dict_size, p=p)
        masks.append(StructuralMask(ws, EditProbabilities.zeros(d,
                                                                dict_size)))
    return masks


def test_every_index_edits_exactly_its_pair_or_label():
    # each index of either phase is a legal edit of the workspace, and
    # changes exactly the pair or the node label it names
    for mask in random_workspace_masks(np.random.default_rng(40), 90):
        ws = mask.workspace
        d, dict_size = ws.num_nodes, mask.edit_probs.label_logits.shape[1]
        pairs = [(u, v) for u in range(d) for v in range(u + 1, d)]
        others = [(v, y) for v in range(d) for y in range(dict_size)
                  if y != ws.labels[v]]
        assert len(_phase_weights(mask, EDGE)) == len(pairs)
        assert len(_phase_weights(mask, LABEL)) == len(others)
        for k, (u, v) in enumerate(pairs):
            after = apply_edit(mask, EDGE, k).workspace
            assert set(after.edges) ^ set(ws.edges) == {(u, v)}
            assert after.labels == ws.labels
            assert after.num_nodes == d
        for k, (v, y) in enumerate(others):
            after = apply_edit(mask, LABEL, k).workspace
            assert [i for i in range(d)
                    if after.labels[i] != ws.labels[i]] == [v]
            assert after.labels[v] == y
            assert after.edges == ws.edges
        assert mask.workspace is ws


def validating_edit(mask, phase, k):
    """Reference: edit k's workspace built by the validating constructor,
    and the mask StructuralMask derives from it."""
    ws = mask.workspace
    d = ws.num_nodes
    edges, labels = set(ws.edges), list(ws.labels)
    if phase == EDGE:
        edges ^= {[(u, v) for u in range(d) for v in range(u + 1, d)][k]}
    else:
        others = [(v, y) for v in range(d)
                  for y in range(mask.edit_probs.label_logits.shape[1])
                  if y != ws.labels[v]]
        node, label = others[k]
        labels[node] = label
    return StructuralMask(LabeledGraph(d, list(edges)[::-1], labels),
                          mask.edit_probs)


def same_graph(a, b):
    return ((a.num_nodes, a.edges, a.labels, a.adj)
            == (b.num_nodes, b.edges, b.labels, b.adj))


def present_of(ws):
    d = ws.num_nodes
    return [ws.has_edge(u, v) for u in range(d) for v in range(u + 1, d)]


def test_array_edit_equals_the_validating_path():
    rng = np.random.default_rng(41)
    for mask in random_workspace_masks(rng, 120):
        assert mask.present.tolist() == present_of(mask.workspace)
        for phase in (EDGE, LABEL):
            for k in range(len(_phase_weights(mask, phase))):
                after = apply_edit(mask, phase, k)
                want = validating_edit(mask, phase, k)
                assert same_graph(after.workspace, want.workspace)
                assert after.component == want.component
                assert same_graph(after.graph, want.graph)
                assert after.present.tolist() == present_of(want.workspace)
                assert (after.graph is mask.graph) == (
                    not sees_change(mask, want))
                assert after.edit_probs is mask.edit_probs
        # a chain of edits, each on the last one's arrays, then a state
        # roundtrip, keeps present on the workspace's edges
        lay = layer(nodes=mask.workspace.num_nodes,
                    dict_size=mask.edit_probs.label_logits.shape[1])
        for _ in range(12):
            phase = (EDGE, LABEL)[int(rng.integers(2))]
            n = len(_phase_weights(mask, phase))
            if n:
                mask = apply_edit(mask, phase, int(rng.integers(n)))
                assert mask.present.tolist() == present_of(mask.workspace)
        net = NetworkConfig(layers=(lay,), quantizer_k=())
        back = ModelParams.from_state(
            net, ModelParams(masks=[[mask]], codebooks=[]).state())
        loaded = back.masks[0][0]
        assert loaded.present.tolist() == mask.present.tolist()
        assert same_graph(loaded.graph, mask.graph)


def test_trusted_builder_equals_the_validating_constructor():
    rng = np.random.default_rng(42)
    for _ in range(200):
        g = random_graph(rng, n_max=9, dict_size=4, p=rng.random())
        shuffled = [(b, a) for a, b in rng.permutation(
            np.array(g.edges, dtype=int).reshape(-1, 2)).tolist()]
        want = LabeledGraph(g.num_nodes, shuffled, g.labels)
        assert same_graph(LabeledGraph.trusted(g.num_nodes, g.edges,
                                               g.labels), want)
        nodes = [v for v in range(g.num_nodes) if rng.random() < 0.6]
        local = {v: i for i, v in enumerate(nodes)}
        sub = LabeledGraph(len(nodes), [(local[a], local[b])
                                        for a, b in g.edges
                                        if a in local and b in local],
                           [g.labels[v] for v in nodes])
        assert same_graph(induced_subgraph(g, nodes[::-1]), sub)


def choice_cases(rng, count):
    """(mask, phase) pairs whose weights cover the draw's corners: zero
    weights, the uniform fallback and length 1."""
    full = StructuralMask(complete_graph(4), EditProbabilities.zeros(4, 2))
    one_pair = fresh_mask(nodes=2, dict_size=1)
    one_label = fresh_mask(nodes=1, dict_size=2)
    pool = [fresh_mask(int(rng.integers(2, 9)), int(rng.integers(2, 5)),
                       seed=s) for s in range(20)]
    for trial in range(count):
        corner = trial % 8
        if corner == 0:  # every removal weighs 0: uniform fallback
            full.edit_probs.edge_logits[:] = 60.0
            yield full, EDGE
        elif corner == 1:
            yield one_pair, EDGE
        elif corner == 2:
            yield one_label, LABEL
        else:
            mask = pool[trial % len(pool)]
            ep = mask.edit_probs
            ep.edge_logits[:] = rng.normal(scale=4.0,
                                           size=ep.edge_logits.shape)
            ep.label_logits[:] = rng.normal(scale=4.0,
                                            size=ep.label_logits.shape)
            if corner == 3:  # saturated: exact zero weights
                ep.edge_logits[:] = 60.0 * np.sign(ep.edge_logits)
                ep.label_logits[:] = 800.0 * np.sign(ep.label_logits)
            yield mask, (EDGE, LABEL)[trial % 2]


def test_inlined_draw_equals_generator_choice():
    rng = np.random.default_rng(43)
    zero_weights = uniform = single = 0
    for trial, (mask, phase) in enumerate(choice_cases(rng, 10_000)):
        w = _phase_weights(mask, phase)
        zero_weights += int((w == 0.0).any())
        uniform += int(len(w) > 1 and (w == 1.0 / len(w)).all())
        single += int(len(w) == 1)
        a, b, c = (np.random.default_rng(trial) for _ in range(3))
        assert sample_edit(mask, phase, a) == int(b.choice(len(w), p=w))
        c.random()  # one draw consumes exactly one random()
        assert a.bit_generator.state == b.bit_generator.state \
            == c.bit_generator.state
    assert zero_weights > 100 and uniform >= 1000 and single >= 2000


@pytest.mark.parametrize("phase", [EDGE, LABEL])
def test_nan_logits_raise_drd_error(phase):
    mask = fresh_mask(nodes=4, dict_size=3)
    mask.edit_probs.edge_logits[1] = np.nan
    mask.edit_probs.label_logits[2, 0] = np.nan
    with pytest.raises(DrdError, match="non-finite"):
        sample_edit(mask, phase, np.random.default_rng(0))


def spy_builds(monkeypatch):
    """Counts of validating constructions, of adjacency builds (the
    trusted builder every new graph structure goes through) and of label
    softmaxes, while the test runs."""
    calls = {"init": 0, "adjacency": 0, "softmax": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(LabeledGraph, "__init__",
                        counting("init", LabeledGraph.__init__))
    monkeypatch.setattr(graphs, "_adjacency",
                        counting("adjacency", graphs._adjacency))
    monkeypatch.setattr(EditProbabilities, "label_probs",
                        counting("softmax", EditProbabilities.label_probs))
    return calls


def unseen(mask_graph):
    raise AssertionError("this step needs no response column")


def test_one_label_phase_and_dead_edit_build_nothing(monkeypatch):
    ws = LabeledGraph(5, [(0, 1), (0, 2), (1, 2)], [0] * 5)
    mask = StructuralMask(ws, EditProbabilities.zeros(5, 1))
    logits = mask.edit_probs.edge_logits
    logits[:] = -60.0
    for u, v in ws.edges + ((3, 4),):  # draws the dead pair (3, 4)
        logits[pair_index(u, v, 5)] = 60.0
    calls = spy_builds(monkeypatch)
    out, accepted, est = drd_step_batched(
        mask, LABEL, np.random.default_rng(0), unseen, np.ones(3),
        np.ones(3))
    assert (out, accepted, est) == (mask, False, 0.0)
    out, accepted, est = drd_step_batched(
        mask, EDGE, np.random.default_rng(0), unseen, np.ones(3),
        np.ones(3))
    assert accepted and est == 0.0 and out.workspace.has_edge(3, 4)
    assert out.graph is mask.graph
    assert calls == {"init": 0, "adjacency": 0, "softmax": 0}


def test_effective_edits_build_one_trusted_graph(monkeypatch):
    # an effective edit builds its component graph once, through the
    # trusted builder, and validates nothing; its workspace shares or
    # patches the parent's adjacency rows. A component of every node is
    # the workspace itself, so it builds nothing.
    ws = LabeledGraph(5, [(0, 1), (1, 2), (2, 3)], [0, 1, 0, 1, 0])
    mask = StructuralMask(ws, EditProbabilities.zeros(5, 2))
    calls = spy_builds(monkeypatch)
    grown = apply_edit(mask, EDGE, pair_index(0, 2, 5))
    assert calls == {"init": 0, "adjacency": 1, "softmax": 0}
    relabeled = apply_edit(mask, LABEL, label_index(mask, 1, 0))
    assert calls == {"init": 0, "adjacency": 2, "softmax": 0}
    assert grown.graph.has_edge(0, 2) and relabeled.graph.labels[1] == 0
    assert relabeled.workspace.adj is ws.adj
    assert grown.workspace.adj[4] is ws.adj[4]
    whole = apply_edit(grown, EDGE, pair_index(3, 4, 5))
    again = apply_edit(whole, LABEL, label_index(whole, 4, 1))
    assert whole.graph is whole.workspace and again.graph is again.workspace
    assert again.graph.labels == (0, 1, 0, 1, 1)
    assert calls == {"init": 0, "adjacency": 2, "softmax": 0}


def test_effective_change_ignores_dead_component_edits():
    # triangle {0,1,2} dominates; edits inside {3,4} are invisible
    ws = LabeledGraph(5, [(0, 1), (0, 2), (1, 2)], [0] * 5)
    mask = StructuralMask(workspace=ws,
                          edit_probs=EditProbabilities.zeros(5, 1))
    grown = apply_edit(mask, EDGE, pair_index(3, 4, 5))
    assert not sees_change(mask, grown)
    # a step that draws this edit scores it 0 without a response column
    logits = mask.edit_probs.edge_logits
    logits[:] = -60.0
    for u, v in ws.edges + ((3, 4),):
        logits[pair_index(u, v, 5)] = 60.0

    def unseen(mask_graph):
        raise AssertionError("an ineffective edit needs no response")
    out, accepted, est = drd_step_batched(
        mask, EDGE, np.random.default_rng(0), unseen, np.ones(3),
        np.ones(3))
    assert est == 0.0 and accepted
    assert out.workspace.edges == grown.workspace.edges
    # but touching the main component is visible
    shrunk = apply_edit(mask, EDGE, pair_index(0, 1, 5))
    assert sees_change(mask, shrunk)


def test_accepted_noop_edit_keeps_the_mask_graph(monkeypatch):
    # an accepted edit the kernel cannot see keeps the mask graph object,
    # so an engine's kept responses under that bank still serve
    ws = LabeledGraph(5, [(0, 1), (0, 2), (1, 2)], [0] * 5)
    mask = StructuralMask(workspace=ws,
                          edit_probs=EditProbabilities.zeros(5, 1))
    lay = layer(nodes=5, dict_size=1)
    net = NetworkConfig(layers=(lay,), quantizer_k=())
    params = ModelParams(masks=[[mask]], codebooks=[])
    rng = np.random.default_rng(6)
    graphs = [random_graph(rng, n_max=7, dict_size=1) for _ in range(4)]
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs)
    logits = mask.edit_probs.edge_logits
    logits[:] = -60.0
    for u, v in ws.edges + ((3, 4),):
        logits[pair_index(u, v, 5)] = 60.0
    lb = trace.layers[0]
    out, accepted, est = drd_step_batched(
        mask, EDGE, np.random.default_rng(0), lb.responses, lb.before[:, 0],
        np.ones(len(lb.before)))
    assert accepted and est == 0.0
    assert out is not mask and out.workspace.has_edge(3, 4)
    assert out.graph is mask.graph
    params.masks[0][0] = out

    def forbidden(*args, **kwargs):
        raise AssertionError("a no-op edit recomputed a response")

    monkeypatch.setattr(model, "_row_matrix", forbidden)
    again = engine.forward_graphs(params, graphs)
    for a, b in zip(trace.features, again.features):
        assert np.array_equal(a, b)


def test_estimate_subgradient_matches_manual_sum():
    rng = np.random.default_rng(2)
    mask = fresh_mask(nodes=5, dict_size=2, seed=3)
    twin = copy.deepcopy(mask)
    k = sample_edit(mask, EDGE, rng)
    after = apply_edit(mask, EDGE, k)
    assert sees_change(mask, after)
    egos = [random_graph(rng, n_max=6, dict_size=2) for _ in range(8)]
    grads = rng.standard_normal(8)
    want = sum(g * (kernel_value(WL, e, after.graph)
                    - kernel_value(WL, e, mask.graph))
               for e, g in zip(egos, grads))
    # a generator in the same state draws the same edit
    out, accepted, got = kernel_step(mask, egos, grads, EDGE,
                                     np.random.default_rng(2))
    drawn = after if accepted else mask
    assert out.workspace.edges == drawn.workspace.edges
    assert abs(got - want) < 1e-12
    assert kernel_step(twin, [], [], EDGE, np.random.default_rng(2))[2] == 0.0


def test_update_probs_moves_toward_useful_edits():
    mask = mask_with_absent_pair(nodes=4)
    ws = mask.workspace
    absent = absent_pair(ws)
    idx = pair_index(*absent, 4)
    p0 = mask.edit_probs.edge_probs()[idx]
    update_probs(mask, EDGE, idx, est=-1.0)
    assert mask.edit_probs.edge_probs()[idx] > p0
    update_probs(mask, EDGE, idx, est=+1.0)

    present = ws.edges[0]
    jdx = pair_index(*present, 4)
    q0 = mask.edit_probs.edge_probs()[jdx]
    update_probs(mask, EDGE, jdx, est=-1.0)
    assert mask.edit_probs.edge_probs()[jdx] < q0


def test_update_probs_relabel_keeps_rows_normalized():
    mask = fresh_mask(nodes=4, dict_size=3)
    target = 1 if mask.workspace.labels[2] != 1 else 2
    s0 = mask.edit_probs.label_probs()[2, target]
    update_probs(mask, LABEL, label_index(mask, 2, target), est=-0.5)
    s = mask.edit_probs.label_probs()
    assert s[2, target] > s0
    assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9


def test_drd_step_accepts_exactly_nonpositive_estimates():
    rng = np.random.default_rng(4)
    mask = fresh_mask(nodes=5, dict_size=2, seed=5)
    kept = changed = 0
    for step in range(200):
        phase = EDGE if step % 2 == 0 else LABEL
        egos = [random_graph(rng, n_max=6, dict_size=2) for _ in range(4)]
        grads = rng.standard_normal(4)
        before = mask
        mask, accepted, est = kernel_step(mask, egos, grads, phase, rng)
        assert accepted == (est <= 0.0) or (not accepted and est > 0.0)
        if accepted:
            kept += 1
            assert est <= 0.0
        else:
            assert mask is before or est > 0.0
        if mask is not before:
            changed += 1
        # structural invariants hold after every step
        ws = mask.workspace
        assert ws.num_nodes == 5
        assert max(ws.labels) < 2
        g = mask.graph
        assert g.num_nodes <= 5
        assert nx.is_connected(to_nx(g)) or g.num_nodes == 1
    assert kept > 0 and changed > 0


def test_init_mask_bank():
    rng = np.random.default_rng(7)
    bank = init_mask_bank(layer(nodes=6, dict_size=3, num_masks=5), rng)
    assert len(bank) == 5
    for mask in bank:
        assert mask.workspace.num_nodes == 6
        assert nx.is_connected(to_nx(mask.workspace))
        assert max(mask.workspace.labels) < 3
        assert mask.graph.num_nodes == 6  # connected workspace = whole mask


PIN_CORPORA = {
    "ring6": lambda: generate_motif_dataset(MotifSpec("ring", 6), 40,
                                            np.random.default_rng(1)),
    "tricycle": lambda: generate_triangle_cycle_dataset(
        40, np.random.default_rng(1)),
}


@pytest.mark.parametrize("corpus,network,digest", [
    ("ring6", dict(num_masks=4, mask_nodes=5, radius=2, wl_iterations=2),
     "1d3332eb3921b207394ce3cdbfa7b1c0f660e235587fc93dd92562d1738d2b22"),
    ("ring6", dict(num_masks=3, mask_nodes=5, radius=1, wl_iterations=2,
                   num_layers=2, quantizer_k=3),
     "1fa07857234b43f5f5f18f063d0b0f52d2da4085fb9a774e3660325d9c376594"),
    ("tricycle", dict(num_masks=4, mask_nodes=5, radius=1,
                      kernel_kind=GRAPHLET3),
     "d2b13794c578bae2dcaf37be1bd42e6196c310aefb156937d04fc4dcafe595d3"),
], ids=["wl_1layer", "wl_2layer_junction", "graphlet3"])
def test_seeded_drd_trajectory_is_pinned(corpus, network, digest):
    # the final mask workspaces and every epoch's accept rate of a tiny
    # seeded run, frozen: draws, edits, estimates and logit updates must
    # reproduce step for step
    ds = PIN_CORPORA[corpus]()
    net = ex.build_network(ds.dictionary.size, **network)
    cfg = ex.TrainConfig(epochs=12, batch_size=4, seed=3)
    params, report = ex.train(
        ds, split_holdout(ds, stream(cfg.seed, "splits")), net, cfg)
    state = [[(m.workspace.edges, m.workspace.labels) for m in bank]
             for bank in params.masks]
    rates = [r.edit_accept_rate for r in report.rows]
    assert hashlib.sha256(repr((state, rates)).encode()).hexdigest() == \
        digest
