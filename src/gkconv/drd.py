"""Discrete randomized descent for the structural masks.

Masks cannot be trained by backprop, so each training step samples one
discrete edit per mask (edge toggle or node relabel, alternating by
step parity), scores it by the induced first-order change of the batch
loss, keeps it when that estimate is non-positive, and nudges the edit
sampling distribution in the direction of useful edits. Edits act on the
mask's fixed-size workspace graph; the kernel only ever sees the largest
connected component, so toggling bridges can shrink a mask and later
edits can grow it back.

An edit is its index k in the phase's weight vector. Edge edit k toggles
the k-th node pair u < v in row-major order: it adds the edge when the
pair is absent and removes it when present. Label edit k gives node
k // (L - 1) the (k % (L - 1))-th of its L - 1 other labels, L being the
layer's dictionary size. Every index names a legal edit.

``StructuralMask.present`` marks the pairs that are edges, for the
weights and the update. An edit derives the next mask from the parent's
parts; one the kernel cannot see keeps its graph object (a no-op:
``after.graph is mask.graph``). A one-label label phase is empty. The
draw is Generator.choice(len(w), p=w) inlined, one random() per draw.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .graphs import LabeledGraph, induced_subgraph, max_component_nodes
from .model import (EditProbabilities, LayerConfig, StructuralMask, _pairs,
                    random_connected_graph)

EDGE_PHASE = "edge"
LABEL_PHASE = "label"


class DrdError(ValueError):
    pass


def _relabel(mask: StructuralMask, k: int):
    """(node, new label) of label edit k; each node has L - 1 edits."""
    node, j = divmod(k, mask.edit_probs.label_logits.shape[1] - 1)
    return node, j + (j >= mask.workspace.labels[node])


def _phase_weights(mask: StructuralMask, phase: str) -> np.ndarray:
    """Normalized weights of the phase's edits, edit k at w[k]: one per
    node pair (removal weight for a present edge, add weight for an
    absent one), or one per node and other label, node by node."""
    ep, ws = mask.edit_probs, mask.workspace
    if phase == EDGE_PHASE:
        p = ep.edge_probs()
        w = np.where(mask.present, 1.0 - p, p)
    elif phase == LABEL_PHASE:
        if ep.label_logits.shape[1] == 1:  # no node has another label
            return np.empty(0)
        s = ep.label_probs()
        w = s[np.arange(s.shape[1]) != np.array(ws.labels)[:, None]]
    else:
        raise DrdError(f"unknown phase {phase!r}")
    total = w.sum()
    if total <= 0.0:  # every edit weighs 0, or there is none
        return np.full(len(w), 1.0) / max(len(w), 1)
    return w / total


def sample_edit(mask: StructuralMask, phase: str,
                rng: np.random.Generator):
    """Index of one edit drawn from the phase distribution (the draw of
    the module docstring); None if the phase has no edits."""
    w = _phase_weights(mask, phase)
    if not len(w):
        return None
    cdf = w.cumsum()
    if not np.isfinite(cdf[-1]):
        raise DrdError(f"non-finite {phase} edit weights")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def apply_edit(mask: StructuralMask, phase: str, k: int) -> StructuralMask:
    """The mask after edit k of the phase, with the same edit state, its
    parts derived from mask's unchecked: an edit the kernel cannot see
    keeps mask.graph itself; only an effective one builds a graph."""
    ws, comp = mask.workspace, mask.component
    out = object.__new__(StructuralMask)
    out.edit_probs, out.component, out.graph, out.present = (
        mask.edit_probs, comp, mask.graph, mask.present)
    if phase == EDGE_PHASE:
        pairs = _pairs(ws.num_nodes)
        u, v = pairs[k]
        out.present = present = mask.present.copy()
        present[k] = not present[k]
        adj = list(ws.adj)
        adj[u], adj[v] = (tuple(sorted(set(adj[a]) ^ {b}))
                          for a, b in ((u, v), (v, u)))
        out.workspace = ws = LabeledGraph.trusted(ws.num_nodes, tuple(
            compress(pairs, present.tolist())), ws.labels, tuple(adj))
        new = tuple(max_component_nodes(ws))
        if new != comp or u in comp:  # a kept component holds both or none
            out.component, out.graph = new, induced_subgraph(ws, new)
    else:
        node, label = _relabel(mask, k)
        labels = ws.labels[:node] + (label,) + ws.labels[node + 1:]
        out.workspace = ws = LabeledGraph.trusted(ws.num_nodes, ws.edges,
                                                  labels, ws.adj)
        if node in comp:
            out.graph = induced_subgraph(ws, comp)
    return out


def update_probs(mask: StructuralMask, phase: str, k: int,
                 est: float) -> None:
    """Adam step on the logits once edit k of the phase, drawn from
    mask, is scored. The surrogate objective is est times the edit's
    weight, so edits that looked useful (est < 0) become more likely
    and harmful ones less likely, whether or not the edit was kept."""
    ep = mask.edit_probs
    if phase == EDGE_PHASE:
        p = ep.edge_probs()[k]
        sign = -1.0 if mask.present[k] else 1.0
        g = np.zeros_like(ep.edge_logits)
        g[k] = est * sign * p * (1.0 - p)
        ep.edge_opt.step({"edge": ep.edge_logits}, {"edge": g})
    else:
        node, label = _relabel(mask, k)
        s = ep.label_probs()[node]
        g = np.zeros_like(ep.label_logits)
        g[node] = -est * s[label] * s
        g[node, label] += est * s[label]
        ep.label_opt.step({"label": ep.label_logits}, {"label": g})


def drd_step_batched(mask: StructuralMask, phase: str,
                     rng: np.random.Generator, responses, before_col,
                     grads):
    """One propose / score / decide cycle for one mask.

    responses maps a candidate mask graph to its response column over the
    egos of every node of the batch, before_col is that column for the
    current mask and grads is d loss / d response per node; the estimate
    of the loss change is grads . (responses(after) - before_col), and 0
    for an edit the kernel cannot see (its mask graph object is kept, so
    the engine keeps its responses). Returns (mask after the step,
    accepted, estimate). The edit is kept exactly when the estimate is
    <= 0; the sampling distribution is updated either way. A phase with
    no edits returns (mask, False, 0.0) and touches no state.
    """
    k = sample_edit(mask, phase, rng)
    if k is None:
        return mask, False, 0.0
    after = apply_edit(mask, phase, k)
    est = 0.0 if after.graph is mask.graph else float(
        grads @ (responses(after.graph) - before_col))
    update_probs(mask, phase, k, est)
    if est <= 0.0:
        return after, True, est
    return mask, False, est


def init_structural_mask(layer: LayerConfig, rng: np.random.Generator,
                         prob_lr: float = 0.01) -> StructuralMask:
    """Fresh mask: random connected workspace plus flat edit logits."""
    d, size = layer.max_mask_nodes, layer.input_dictionary.size
    return StructuralMask(random_connected_graph(d, size, rng),
                          EditProbabilities.zeros(d, size, prob_lr))


def init_mask_bank(layer: LayerConfig, rng: np.random.Generator,
                   prob_lr: float = 0.01):
    return [init_structural_mask(layer, rng, prob_lr)
            for _ in range(layer.num_masks)]
