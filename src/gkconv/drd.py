"""Discrete randomized descent for the structural masks.

Masks cannot be trained by backprop, so each training step samples one
discrete edit per mask (edge toggle or node relabel, alternating by
step parity), scores it by the induced first-order change of the batch
loss, keeps it when that estimate is non-positive, and nudges the edit
sampling distribution in the direction of useful edits. Edits act on the
mask's fixed-size workspace graph; the kernel only ever sees the largest
connected component, so toggling bridges can shrink a mask and later
edits can grow it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .graphs import LabeledGraph
from .model import LayerConfig, StructuralMask, random_connected_graph
from .optim import Adam

EDGE_PHASE = "edge"
LABEL_PHASE = "label"

ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"
RELABEL = "relabel"


class DrdError(ValueError):
    pass


@dataclass(frozen=True)
class EditOperation:
    """One candidate edit of a mask workspace."""

    kind: str
    u: int = -1
    v: int = -1
    node: int = -1
    new_label: int = -1

    @classmethod
    def add(cls, u, v):
        return cls(kind=ADD_EDGE, u=min(u, v), v=max(u, v))

    @classmethod
    def remove(cls, u, v):
        return cls(kind=REMOVE_EDGE, u=min(u, v), v=max(u, v))

    @classmethod
    def relabel(cls, node, new_label):
        return cls(kind=RELABEL, node=node, new_label=new_label)


def pair_index(u: int, v: int, d: int) -> int:
    """Index of unordered pair (u, v) in the sorted i<j enumeration."""
    if u > v:
        u, v = v, u
    if not (0 <= u < v < d):
        raise DrdError(f"bad pair ({u},{v}) for {d} nodes")
    return u * d - u * (u + 1) // 2 + (v - u - 1)


class EditProbabilities:
    """Edit sampling distribution, parameterized by free logits.

    Edge logits (one per node pair) pass through a sigmoid: the sigmoid
    is the add weight of an absent pair and its complement the removal
    weight of a present pair. Label logits (one row per node) pass
    through a row softmax. Candidate weights are renormalized over the
    legal edits of the current workspace, so both phases always sample a
    proper distribution. Each phase owns its Adam state and is only
    stepped by edits of that phase.
    """

    __slots__ = ("edge_logits", "label_logits", "edge_opt", "label_opt")

    def __init__(self, edge_logits, label_logits, edge_opt, label_opt):
        self.edge_logits = edge_logits
        self.label_logits = label_logits
        self.edge_opt = edge_opt
        self.label_opt = label_opt

    @classmethod
    def zeros(cls, d: int, dict_size: int, lr: float = 0.01):
        """Flat initialization: every edit starts equally likely."""
        return cls(edge_logits=np.zeros(d * (d - 1) // 2),
                   label_logits=np.zeros((d, dict_size)),
                   edge_opt=Adam(lr), label_opt=Adam(lr))

    def edge_probs(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.edge_logits))

    def label_probs(self) -> np.ndarray:
        z = self.label_logits - self.label_logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)


def _phase_weights(mask: StructuralMask, phase: str) -> np.ndarray:
    """Normalized weights of the phase's legal edits, in the order
    edit_distribution lists them: node pairs u < v in pair_index order
    (removal weight for a present edge, add weight for an absent one), or
    every node's other labels, node by node."""
    ws = mask.workspace
    if phase == EDGE_PHASE:
        p = mask.edit_probs.edge_probs()
        present = np.zeros(len(p), dtype=bool)
        present[[pair_index(u, v, ws.num_nodes) for u, v in ws.edges]] = True
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


def _edit_at(mask: StructuralMask, phase: str, k: int) -> EditOperation:
    """The k-th legal edit of the phase, in _phase_weights order."""
    ws = mask.workspace
    if phase == EDGE_PHASE:
        u, v = next(islice(combinations(range(ws.num_nodes), 2), k, None))
        make = EditOperation.remove if ws.has_edge(u, v) else EditOperation.add
        return make(u, v)
    node, j = divmod(k, mask.edit_probs.label_logits.shape[1] - 1)
    return EditOperation.relabel(node, j + (j >= ws.labels[node]))


def edit_distribution(mask: StructuralMask, phase: str):
    """Legal edits of the workspace and their normalized weights."""
    w = _phase_weights(mask, phase)
    return [_edit_at(mask, phase, k) for k in range(len(w))], w


def sample_edit(mask: StructuralMask, phase: str,
                rng: np.random.Generator):
    """One edit drawn from the phase distribution; None if none exist."""
    w = _phase_weights(mask, phase)
    if not len(w):
        return None
    return _edit_at(mask, phase, int(rng.choice(len(w), p=w)))


def apply_edit(mask: StructuralMask, op: EditOperation) -> StructuralMask:
    """Edit the workspace and rebuild the effective mask component."""
    ws = mask.workspace
    if op.kind == ADD_EDGE:
        if ws.has_edge(op.u, op.v):
            raise DrdError(f"edge ({op.u},{op.v}) already present")
        new = LabeledGraph(ws.num_nodes, list(ws.edges) + [(op.u, op.v)],
                           ws.labels)
    elif op.kind == REMOVE_EDGE:
        if not ws.has_edge(op.u, op.v):
            raise DrdError(f"edge ({op.u},{op.v}) not present")
        drop = (min(op.u, op.v), max(op.u, op.v))
        new = LabeledGraph(ws.num_nodes,
                           [e for e in ws.edges if e != drop], ws.labels)
    elif op.kind == RELABEL:
        if not 0 <= op.node < ws.num_nodes:
            raise DrdError(f"node {op.node} out of range")
        if ws.labels[op.node] == op.new_label:
            raise DrdError("relabel must change the label")
        labels = list(ws.labels)
        labels[op.node] = op.new_label
        new = ws.with_labels(labels)
    else:
        raise DrdError(f"unknown edit kind {op.kind!r}")
    return mask.replaced(new)


def effective_change(before: StructuralMask, after: StructuralMask) -> bool:
    """Whether an edit altered the mask the kernel actually sees."""
    return (before.component != after.component
            or before.graph.edges != after.graph.edges
            or before.graph.labels != after.graph.labels)


def update_probs(mask: StructuralMask, op: EditOperation, est: float) -> None:
    """Adam step on the sampling logits after a proposal is scored.

    The surrogate objective is est times the proposal weight, so edits
    that looked useful (est < 0) become more likely and harmful ones
    less likely, whether or not the edit was kept.
    """
    ep = mask.edit_probs
    d = mask.workspace.num_nodes
    if op.kind in (ADD_EDGE, REMOVE_EDGE):
        idx = pair_index(op.u, op.v, d)
        p = ep.edge_probs()[idx]
        sign = 1.0 if op.kind == ADD_EDGE else -1.0
        g = np.zeros_like(ep.edge_logits)
        g[idx] = est * sign * p * (1.0 - p)
        ep.edge_opt.step({"edge": ep.edge_logits}, {"edge": g})
    elif op.kind == RELABEL:
        s = ep.label_probs()[op.node]
        row = -est * s[op.new_label] * s
        row[op.new_label] += est * s[op.new_label]
        g = np.zeros_like(ep.label_logits)
        g[op.node] = row
        ep.label_opt.step({"label": ep.label_logits}, {"label": g})
    else:
        raise DrdError(f"unknown edit kind {op.kind!r}")


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
    no legal edits is a no-op that returns (mask, False, 0.0) without
    touching any state.
    """
    op = sample_edit(mask, phase, rng)
    if op is None:
        return mask, False, 0.0
    after = apply_edit(mask, op)
    if not effective_change(mask, after):
        est = 0.0
        # the same effective mask, so the same graph object: a new one
        # would read as a changed bank and drop the engine's kept responses
        after.graph = mask.graph
    else:
        est = float(grads @ (responses(after.graph) - before_col))
    update_probs(mask, op, est)
    if est <= 0.0:
        return after, True, est
    return mask, False, est


def init_structural_mask(layer: LayerConfig, rng: np.random.Generator,
                         prob_lr: float = 0.01) -> StructuralMask:
    """Fresh mask: random connected workspace plus flat edit logits."""
    ws = random_connected_graph(layer.max_mask_nodes,
                                layer.input_dictionary.size, rng)
    ep = EditProbabilities.zeros(layer.max_mask_nodes,
                                 layer.input_dictionary.size, prob_lr)
    return StructuralMask(ws, ep)


def init_mask_bank(layer: LayerConfig, rng: np.random.Generator,
                   prob_lr: float = 0.01):
    return [init_structural_mask(layer, rng, prob_lr)
            for _ in range(layer.num_masks)]
