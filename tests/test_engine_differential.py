"""A differential guard for the forward engine's caches.

One long-lived ForwardEngine runs a seeded random interleaving of
training forwards (junction refits included), real DRD steps, candidate
scoring, column ablations, in-place refits of one junction's codebook
and batches that repeat graphs. After every
operation each feature row, and each candidate column a DRD step scored,
must equal bit for bit what a fresh engine computes under masks rebuilt
from their workspaces. A cache that serves a block or a mask statistic
it should have dropped, junction labels kept past a change of their
layer's responses or centroids, or an edit judged invisible to the
kernel that was not, shows up as a difference.
"""

from unittest import mock

import numpy as np
import pytest

from gkconv import model
from gkconv.drd import (EDGE_PHASE, LABEL_PHASE, EditProbabilities,
                        drd_step_batched, init_mask_bank)
from gkconv.graphs import LabelDictionary, LabeledGraph
from gkconv.kernels import GRAPHLET3, WL_SUBTREE, KernelConfig
from gkconv.model import (ForwardEngine, LayerConfig, ModelParams,
                          NetworkConfig, StructuralMask,
                          random_connected_graph)
from gkconv.quantizer import Codebook, fit_update
from conftest import random_graph

WL2 = KernelConfig(kind=WL_SUBTREE, wl_iterations=2, normalized=True)
G3 = KernelConfig(kind=GRAPHLET3, wl_iterations=1, normalized=True)
NODES = 5

# (layer kernels, junctions): None passes labels through, k quantizes
CASES = {
    "wl_1layer": ((WL2,), ()),
    "wl_2layer_quantized": ((WL2, WL2), (3,)),
    "wl_3layer_quantized": ((WL2, WL2, WL2), (3, 3)),
    "wl_passthrough": ((WL2, WL2), (None,)),
    "graphlet3_2layer": ((G3, G3), (3,)),
    "wl_then_graphlet3": ((WL2, G3), (None,)),
}


def make_net(kernels, junctions):
    sizes = [2] + [2 if k is None else k for k in junctions]
    return NetworkConfig(
        layers=tuple(LayerConfig(num_masks=3, max_mask_nodes=NODES,
                                 radius=1 + l, kernel=kernel,
                                 input_dictionary=LabelDictionary(size))
                     for l, (kernel, size) in enumerate(zip(kernels,
                                                            sizes))),
        quantizer_k=junctions)


def make_params(net, rng):
    """Random masks plus one whose workspace holds two stray nodes, so
    that edits the kernel cannot see come up often."""
    masks = []
    for layer in net.layers:
        size = layer.input_dictionary.size
        bank = init_mask_bank(layer, rng)
        bank[0] = StructuralMask(
            LabeledGraph(NODES, [(0, 1), (1, 2)],
                         rng.integers(0, size, NODES).tolist()),
            EditProbabilities.zeros(NODES, size))
        masks.append(bank)
    return ModelParams(masks=masks, codebooks=[
        None if k is None else Codebook(k) for k in net.quantizer_k])


def reference(net, params, graphs, zero_cols=frozenset()):
    """A fresh engine's trace under masks rebuilt from their workspaces."""
    rebuilt = [[StructuralMask(m.workspace, m.edit_probs) for m in bank]
               for bank in params.masks]
    return ForwardEngine(net).forward_graphs(
        ModelParams(masks=rebuilt, codebooks=params.codebooks), graphs,
        zero_cols=zero_cols)


def assert_same(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", list(CASES))
def test_engine_matches_a_fresh_engine_over_random_interleavings(case):
    net = make_net(*CASES[case])
    rng = np.random.default_rng(sorted(CASES).index(case))
    params = make_params(net, rng)
    pool = [random_graph(rng, n_max=8, dict_size=2) for _ in range(10)]
    engine = ForwardEngine(net)
    fit_rng = np.random.default_rng(7)
    counts = {"accepted": 0, "noop": 0, "rejected": 0, "scored": 0}
    junctions = [j for j, k in enumerate(net.quantizer_k) if k is not None]
    kept_labels = 0  # junction passes of the engine that assigned nothing
    step = 0
    for op in ["train"] + rng.choice(["train", "eval", "ablate", "refit"],
                                     size=60).tolist():
        # repeats within a batch, and graphs of earlier batches
        batch = [pool[i] for i in rng.integers(0, len(pool),
                                               int(rng.integers(1, 7)))]
        zero_cols = frozenset()
        if op == "ablate":
            zero_cols = frozenset(
                (l, int(rng.integers(layer.num_masks)))
                for l, layer in enumerate(net.layers) if rng.random() < 0.7)
        if op == "refit" and junctions:
            # the centroids move in place and no mask bank changes; after
            # junction 0, the batch blanks a column of layer 1, whose
            # blocks it refills under new labels, then comes back plain
            j = junctions[int(rng.integers(len(junctions)))]
            fit_update(params.codebooks[j],
                       rng.random((8, net.layers[j].num_masks)))
            if j == 0:
                zero_cols = frozenset(
                    {(1, int(rng.integers(net.layers[1].num_masks)))})
        # an eval or refit batch comes back warm
        passes = [zero_cols] + [frozenset()] * (op in ("eval", "refit"))
        for zero_cols in passes:
            with mock.patch.object(model, "assign",
                                   wraps=model.assign) as spy:
                trace = engine.forward_graphs(
                    params, batch, fit_rng=fit_rng if op == "train" else None,
                    zero_cols=zero_cols)
            kept_labels += len(junctions) - spy.call_count
            want = reference(net, params, batch, zero_cols)
            for a, b in zip(trace.features, want.features):
                assert_same(a, b)
        if op != "train":
            continue
        phase = EDGE_PHASE if step % 2 == 0 else LABEL_PHASE
        step += 1
        for l, layer in enumerate(net.layers):
            lb, ref = trace.layers[l], want.layers[l]

            def responses(g):
                col = lb.responses(g)
                assert_same(col, ref.responses(g))
                counts["scored"] += 1
                return col

            # an unrelated candidate, scored and dropped
            responses(random_connected_graph(
                int(rng.integers(1, NODES + 1)),
                layer.input_dictionary.size, rng))
            for i in range(layer.num_masks):
                old = params.masks[l][i]
                grads = rng.standard_normal(len(lb.before))
                new, ok, est = drd_step_batched(old, phase, rng, responses,
                                                lb.before[:, i], grads)
                params.masks[l][i] = new
                key = ("noop" if new.graph is old.graph else "accepted") \
                    if ok else "rejected"
                counts[key] += 1
    # the run exercised every kind of step the caches must survive
    assert min(counts.values()) > 0, counts
    assert (kept_labels > 0) == bool(junctions)
