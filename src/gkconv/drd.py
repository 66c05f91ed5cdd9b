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
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .graphs import LabeledGraph
from .model import (EditProbabilities, LayerConfig, StructuralMask,
                    random_connected_graph)

EDGE_PHASE = "edge"
LABEL_PHASE = "label"


class DrdError(ValueError):
    pass


@cache
def _pairs(d: int) -> tuple:
    """Node pairs u < v of d nodes, row-major: edge edit k toggles the k-th."""
    return tuple(combinations(range(d), 2))


def _relabel(mask: StructuralMask, k: int):
    """(node, new label) of label edit k; each node has L - 1 edits."""
    node, j = divmod(k, mask.edit_probs.label_logits.shape[1] - 1)
    return node, j + (j >= mask.workspace.labels[node])


def _phase_weights(mask: StructuralMask, phase: str) -> np.ndarray:
    """Normalized weights of the phase's edits, edit k at w[k]: one per
    node pair (removal weight for a present edge, add weight for an
    absent one), or one per node and other label, node by node."""
    ws = mask.workspace
    if phase == EDGE_PHASE:
        p = mask.edit_probs.edge_probs()
        edges = set(ws.edges)
        present = np.fromiter((e in edges for e in _pairs(ws.num_nodes)),
                              dtype=bool, count=len(p))
        w = np.where(present, 1.0 - p, p)
    elif phase == LABEL_PHASE:
        s = mask.edit_probs.label_probs()
        w = s[np.arange(s.shape[1]) != np.array(ws.labels)[:, None]]
    else:
        raise DrdError(f"unknown phase {phase!r}")
    if not len(w):
        return w
    total = w.sum()
    if total <= 0.0:
        return np.full(len(w), 1.0 / len(w))
    return w / total


def sample_edit(mask: StructuralMask, phase: str,
                rng: np.random.Generator):
    """Index of one edit drawn from the phase distribution; None if the
    phase has no edits."""
    w = _phase_weights(mask, phase)
    return int(rng.choice(len(w), p=w)) if len(w) else None


def apply_edit(mask: StructuralMask, phase: str, k: int) -> StructuralMask:
    """The mask after edit k of the phase: a new workspace, its effective
    component rebuilt, the same edit state."""
    ws = mask.workspace
    if phase == EDGE_PHASE:
        pair = _pairs(ws.num_nodes)[k]
        new = LabeledGraph(ws.num_nodes, set(ws.edges) ^ {pair}, ws.labels)
    else:
        node, label = _relabel(mask, k)
        labels = list(ws.labels)
        labels[node] = label
        new = ws.with_labels(labels)
    return StructuralMask(new, mask.edit_probs)


def update_probs(mask: StructuralMask, phase: str, k: int,
                 est: float) -> None:
    """Adam step on the logits once edit k of the phase, drawn from
    mask, is scored. The surrogate objective is est times the edit's
    weight, so edits that looked useful (est < 0) become more likely
    and harmful ones less likely, whether or not the edit was kept."""
    ep = mask.edit_probs
    if phase == EDGE_PHASE:
        p = ep.edge_probs()[k]
        ws = mask.workspace
        sign = -1.0 if ws.has_edge(*_pairs(ws.num_nodes)[k]) else 1.0
        g = np.zeros_like(ep.edge_logits)
        g[k] = est * sign * p * (1.0 - p)
        ep.edge_opt.step({"edge": ep.edge_logits}, {"edge": g})
    else:
        node, label = _relabel(mask, k)
        s = ep.label_probs()[node]
        row = -est * s[label] * s
        row[label] += est * s[label]
        g = np.zeros_like(ep.label_logits)
        g[node] = row
        ep.label_opt.step({"label": ep.label_logits}, {"label": g})


def drd_step_batched(mask: StructuralMask, phase: str,
                     rng: np.random.Generator, responses, before_col,
                     grads):
    """One propose / score / decide cycle for one mask.

    responses maps a candidate mask graph to its response column over the
    egos of every node of the batch, before_col is that column for the
    current mask and grads is d loss / d response per node; the estimate
    of the loss change is grads . (responses(after) - before_col), and 0
    for an edit the kernel cannot see. Returns (mask after the step,
    accepted, estimate). The edit is kept exactly when the estimate is
    <= 0; the sampling distribution is updated either way. A phase with
    no edits returns (mask, False, 0.0) and touches no state.
    """
    k = sample_edit(mask, phase, rng)
    if k is None:
        return mask, False, 0.0
    after = apply_edit(mask, phase, k)
    if ((after.component, after.graph.edges, after.graph.labels)
            == (mask.component, mask.graph.edges, mask.graph.labels)):
        est = 0.0
        # the same effective mask, so the same graph object: a new one
        # would read as a changed bank and drop the engine's kept responses
        after.graph = mask.graph
    else:
        est = float(grads @ (responses(after.graph) - before_col))
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
