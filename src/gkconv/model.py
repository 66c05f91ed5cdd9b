"""Graph kernel convolution layers.

A layer holds m small learnable "mask" graphs. The feature of node v under
mask i is the kernel similarity between the mask and the r-hop ego
subgraph around v, giving an (n, m) feature matrix per input graph.
Between layers those features are vector-quantized back into discrete
node labels so the next layer can run the same kernel machinery; a
junction may also pass the previous labels through unchanged, which
stacks two mask banks over one labeling. Features of all layers are
concatenated for the readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .graphs import (EgoBalls, GraphError, LabeledGraph, LabelDictionary,
                     ego_balls, ego_subgraph, induced_subgraph,
                     max_component_nodes)
from .kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig, WlColorTable,
                      csc_dot, graphlet3_vector, kernel_matrix, refine_union,
                      safe_divide)
from .quantizer import Codebook, CodebookStateError, assign, fit_update


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class LayerConfig:
    """One convolution layer: mask bank size and kernel settings.

    max_mask_nodes bounds the edit workspace of each mask; the effective
    mask graph can use up to that many nodes. input_dictionary is the
    label alphabet this layer's inputs (and masks) are drawn from.
    """

    num_masks: int
    max_mask_nodes: int
    radius: int
    kernel: KernelConfig
    input_dictionary: LabelDictionary

    def __post_init__(self):
        if self.num_masks < 1:
            raise ModelError(f"need >= 1 mask, got {self.num_masks}")
        if self.max_mask_nodes < 1:
            raise ModelError(
                f"need >= 1 mask node, got {self.max_mask_nodes}")
        if self.radius < 1:
            raise ModelError(f"need radius >= 1, got {self.radius}")


@dataclass(frozen=True)
class NetworkConfig:
    """Layer stack plus the quantizer size at each junction.

    quantizer_k has one entry per junction (len(layers) - 1). An entry of
    None passes the incoming labels through unchanged, so the next layer
    acts as a second mask bank over the same labeling; an integer k
    quantizes the previous layer's features into k fresh labels, which
    must match the next layer's dictionary size.
    """

    layers: tuple
    quantizer_k: tuple = ()

    def __post_init__(self):
        if not self.layers:
            raise ModelError("need at least one layer")
        if len(self.quantizer_k) != len(self.layers) - 1:
            raise ModelError(
                f"need {len(self.layers) - 1} junction entries, "
                f"got {len(self.quantizer_k)}")
        for i, k in enumerate(self.quantizer_k):
            nxt = self.layers[i + 1].input_dictionary.size
            if k is None:
                cur = self.layers[i].input_dictionary.size
                if nxt != cur:
                    raise ModelError(
                        f"passthrough junction {i} needs matching "
                        f"dictionaries, got {cur} then {nxt}")
            else:
                if k < 1:
                    raise ModelError(f"junction {i}: k must be >= 1")
                if nxt != k:
                    raise ModelError(
                        f"junction {i} quantizes into {k} labels but layer "
                        f"{i + 1} expects {nxt}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def feature_dim(self) -> int:
        return sum(l.num_masks for l in self.layers)


class StructuralMask:
    """A learnable mask graph plus its edit state.

    The mask lives inside a fixed workspace of max_mask_nodes nodes whose
    edge set and labels get edited during training; the effective mask
    scored by the kernel is the workspace's largest connected component.
    Keeping the workspace at fixed size gives the edit logits a stable
    index space and lets masks grow back after shrinking.
    """

    __slots__ = ("workspace", "edit_probs", "component", "graph")

    def __init__(self, workspace: LabeledGraph, edit_probs):
        self.workspace = workspace
        self.edit_probs = edit_probs
        self.component = tuple(max_component_nodes(workspace))
        self.graph = induced_subgraph(workspace, self.component)

    def replaced(self, workspace: LabeledGraph) -> "StructuralMask":
        """New mask with the same edit state over an edited workspace."""
        if workspace.num_nodes != self.workspace.num_nodes:
            raise ModelError("workspace size is fixed per mask")
        return StructuralMask(workspace, self.edit_probs)

    def __repr__(self):
        return (f"StructuralMask(d={self.workspace.num_nodes}, "
                f"p={self.graph.num_nodes})")


def _prufer_tree_edges(d: int, rng: np.random.Generator):
    if d <= 1:
        return []
    if d == 2:
        return [(0, 1)]
    seq = [int(x) for x in rng.integers(0, d, size=d - 2)]
    degree = [1] * d
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        for leaf in range(d):
            if degree[leaf] == 1:
                edges.append((leaf, s))
                degree[leaf] -= 1
                degree[s] -= 1
                break
    last = [v for v in range(d) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def random_connected_graph(d: int, dict_size: int,
                           rng: np.random.Generator) -> LabeledGraph:
    """Random labeled connected graph on exactly d nodes.

    Uniform spanning tree via Pruefer decoding, then each remaining node
    pair is added independently with probability 0.3, then uniform labels.
    """
    if d < 1:
        raise ModelError("need >= 1 node")
    edges = set(tuple(sorted(e)) for e in _prufer_tree_edges(d, rng))
    for u in range(d):
        for v in range(u + 1, d):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    labels = [int(x) for x in rng.integers(0, dict_size, size=d)]
    return LabeledGraph(d, sorted(edges), labels)


def _check_layer_input(layer: LayerConfig, g: LabeledGraph, masks):
    if len(masks) != layer.num_masks:
        raise ModelError(
            f"layer wants {layer.num_masks} masks, got {len(masks)}")
    size = layer.input_dictionary.size
    if g.num_nodes and max(g.labels) >= size:
        raise ModelError(
            f"graph label outside dictionary of size {size}")
    for mk in masks:
        if mk.workspace.num_nodes != layer.max_mask_nodes:
            raise ModelError("mask workspace size does not match layer")
        if max(mk.workspace.labels) >= size:
            raise ModelError("mask label outside layer dictionary")


def gkc_forward(layer: LayerConfig, masks, g: LabeledGraph) -> np.ndarray:
    """Feature matrix (n, num_masks) for one graph under one mask bank."""
    _check_layer_input(layer, g, masks)
    egos = [ego_subgraph(g, v, layer.radius).graph for v in range(g.num_nodes)]
    return kernel_matrix(layer.kernel, egos, [mk.graph for mk in masks])


@dataclass
class ModelParams:
    """Everything the network learns.

    masks[l] is layer l's mask bank; codebooks[j] belongs to junction j
    (None for passthrough junctions); mlp is the readout classifier
    (opaque to this module).
    """

    masks: list
    codebooks: list
    mlp: object = None


def network_forward(net: NetworkConfig, params: ModelParams,
                    g: LabeledGraph) -> np.ndarray:
    """Reference forward pass for one graph: (n, sum of mask counts).

    Junction codebooks must already be fitted; training uses the batched
    engine below, which fits them on the fly.
    """
    if g.num_nodes == 0:
        raise ModelError("cannot run the network on an empty graph")
    cur = g
    blocks = []
    for l, layer in enumerate(net.layers):
        z = gkc_forward(layer, params.masks[l], cur)
        blocks.append(z)
        if l < net.num_layers - 1:
            if net.quantizer_k[l] is not None:
                cb = params.codebooks[l]
                if cb is None or not cb.initialized:
                    raise CodebookStateError(
                        f"junction {l} codebook has not been fitted")
                cur = cur.with_labels(assign(cb, z))
    return np.hstack(blocks)


@dataclass
class LayerBatch:
    """Per-layer trace of one batched forward pass, consumed by the mask
    edit search: the response matrix under the current masks, per-graph
    row slices, and an evaluator that scores a candidate mask graph
    against the batch egos. The flat ego list (batch order) is built
    from make_egos on first read only; the subtree-kernel engine never
    needs ego graphs."""

    before: np.ndarray
    slices: list
    responses: object  # callable: mask LabeledGraph -> (n_total,) ndarray
    make_egos: object  # callable: () -> list of ego LabeledGraphs

    @cached_property
    def egos(self) -> list:
        return self.make_egos()


@dataclass
class BatchTrace:
    features: list  # per graph, (n_g, feature_dim)
    layers: list    # LayerBatch per layer


class _WlRowCache:
    """Layer-0 subtree-kernel rows, one sparse block per input graph.

    Layer-0 labels never change, so a graph's ego balls are refined once:
    the first batch that brings the graph refines them together with the
    balls of every other new graph of the batch (``refine_union``). The
    union's classes are mapped to the colors of one persistent
    WlColorTable, which also refines the mask graphs, and a color id is
    its column. Stored blocks stay valid as new colors extend the table,
    since existing ids never move.
    """

    def __init__(self, table: WlColorTable):
        self.table = table
        self._blocks = {}  # graph -> (row pointers, columns, counts, norms)
        self._bank = {}    # current mask graph -> (columns, counts, norm)

    def _add(self, graphs, balls):
        """Refine the balls (one EgoBalls per graph) of graphs and store
        each graph's block of ego rows."""
        indptr, nbrs, origin, sizes = _concat_balls(balls)
        labels = np.fromiter(chain.from_iterable(g.labels for g in graphs),
                             dtype=np.int64, count=len(sizes))
        union = refine_union(indptr, nbrs, labels[origin], sizes,
                             self.table.iterations)
        color = self.table.union_colors(union, indptr, nbrs)
        order = np.argsort(union.part, kind="stable")
        cols = np.repeat(color, np.diff(union.col_ptr))[order]
        counts = union.count[order]
        row_ptr = np.searchsorted(union.part[order],
                                  np.arange(len(sizes) + 1))
        first = 0
        for g in graphs:
            last = first + g.num_nodes
            lo, hi = row_ptr[first], row_ptr[last]
            self._blocks[g] = (row_ptr[first:last + 1] - lo, cols[lo:hi],
                               counts[lo:hi], union.norms[first:last])
            first = last

    def matrix(self, graphs, balls_of):
        """CSC matrix of the graphs' ego rows plus their norms; balls_of maps
        the graphs without a stored block to their EgoBalls."""
        new = [g for g in dict.fromkeys(graphs) if g not in self._blocks]
        if new:
            self._add(new, balls_of(new))
        blocks = [self._blocks[g] for g in graphs]
        nnz = np.cumsum([0] + [len(b[1]) for b in blocks])
        indptr = np.concatenate(
            [[0]] + [b[0][1:] + o for b, o in zip(blocks, nnz.tolist())])
        indices = np.concatenate([b[1] for b in blocks])
        mat = sp.csr_matrix(
            (np.concatenate([b[2] for b in blocks]), indices, indptr),
            shape=(len(indptr) - 1, int(indices.max(initial=0)) + 1))
        return mat.tocsc(), np.concatenate([b[3] for b in blocks])

    def _counts(self, g: LabeledGraph):
        hist = self.table.histogram(g)
        counts = np.fromiter(hist.values(), dtype=np.float64,
                             count=len(hist))
        return (np.fromiter(hist.keys(), dtype=np.int64, count=len(hist)),
                counts, float(np.sqrt(counts @ counts)))

    def set_bank(self, mask_graphs):
        """Keep the histograms of the current mask graphs only: a mask
        unchanged since the last batch is not refined again, and a
        replaced one is released."""
        bank = self._bank
        self._bank = {g: bank[g] if g in bank else self._counts(g)
                      for g in mask_graphs}

    def mask_counts(self, g: LabeledGraph):
        """g's colors and their counts, plus g's histogram norm."""
        out = self._bank.get(g)
        return self._counts(g) if out is None else out


def _concat_balls(parts):
    """The disjoint union of several graphs' EgoBalls as CSR arrays
    (indptr, neighbors), plus the node each union node copies, in the
    graphs' end-to-end ids, and the ball sizes."""
    node_off = np.cumsum([0] + [len(p.degree) for p in parts[:-1]])
    label_off = np.cumsum([0] + [len(p.sizes) for p in parts[:-1]])
    degree = np.concatenate([p.degree for p in parts])
    return (np.concatenate(([0], np.cumsum(degree, dtype=np.int64))),
            np.concatenate([p.nbrs + o for p, o in zip(parts, node_off)]),
            np.concatenate([p.origin + o for p, o in zip(parts, label_off)]),
            np.concatenate([p.sizes for p in parts]))


class ForwardEngine:
    """Batched forward passes with structural caching for one run.

    Ego-ball structure depends only on adjacency, never on labels, so the
    engine builds each graph's balls once per radius, as a block-diagonal
    CSR union (``graphs.ego_balls``, run once over all the graphs a batch
    brings for the first time), and relabels them per batch. First-layer
    inputs keep their labels for the whole run: the balls of a batch's
    new graphs are refined in one array pass (``kernels.refine_union``),
    their classes are mapped once to the colors of a persistent color
    table, and each graph keeps one sparse block of ego rows, so a batch
    matrix stacks one block per graph. Deeper layers get their labels
    from the junctions, which change them on every batch: every batch
    refines the union of its graphs' balls, and mask graphs are looked
    up in that batch's compression tables. Mask columns gather only the
    mask's colors from the batch's CSC matrix. Graphlet counts ignore
    labels entirely and are cached per ego graph, built with
    ``ego_subgraph``. Kernel values are bit-for-bit identical to the
    plain per-graph path: all histogram dot products are sums of small
    integers, exact in float64 in any order.
    """

    def __init__(self, net: NetworkConfig):
        self.net = net
        self._egos = {}      # (base graph, radius) -> list[EgoSubgraph]
        self._balls = {}     # (base graph, radius) -> EgoBalls
        self._l0_cache = None  # _WlRowCache when layer 0 uses wl_subtree
        self._g3 = {}        # ego graph -> graphlet count vector

    def _ego_templates(self, base: LabeledGraph, radius: int):
        key = (base, radius)
        out = self._egos.get(key)
        if out is None:
            out = [ego_subgraph(base, v, radius) for v in range(base.num_nodes)]
            self._egos[key] = out
        return out

    def _ego_balls(self, graphs, radius: int) -> list:
        """Each graph's EgoBalls; the graphs without them are built in one
        ego_balls pass."""
        new = [g for g in dict.fromkeys(graphs)
               if (g, radius) not in self._balls]
        if new:
            union = ego_balls(new, radius)
            first = np.cumsum([0] + [g.num_nodes for g in new])
            node_at = np.concatenate(
                ([0], np.cumsum(union.sizes, dtype=np.int64)))[first]
            edge_at = np.concatenate(
                ([0], np.cumsum(union.degree, dtype=np.int64)))[node_at]
            first, node_at, edge_at = (first.tolist(), node_at.tolist(),
                                       edge_at.tolist())
            for i, g in enumerate(new):
                u0, u1 = node_at[i], node_at[i + 1]
                self._balls[(g, radius)] = EgoBalls(
                    degree=union.degree[u0:u1],
                    nbrs=union.nbrs[edge_at[i]:edge_at[i + 1]] - u0,
                    origin=union.origin[u0:u1] - first[i],
                    sizes=union.sizes[first[i]:first[i + 1]])
        return [self._balls[(g, radius)] for g in graphs]

    def _layer0_cache(self, layer: LayerConfig) -> "_WlRowCache":
        if self._l0_cache is None:
            table = WlColorTable(layer.input_dictionary.size,
                                 layer.kernel.wl_iterations)
            self._l0_cache = _WlRowCache(table)
        return self._l0_cache

    def _g3_vector(self, g: LabeledGraph) -> np.ndarray:
        v = self._g3.get(g)
        if v is None:
            v = graphlet3_vector(g)
            self._g3[g] = v
        return v

    def _wl_first_layer(self, layer: LayerConfig, graphs, mask_graphs):
        """Responses via the cached layer-0 rows; returns (z, responses
        closure)."""
        cache = self._layer0_cache(layer)
        mat, ego_norms = cache.matrix(
            graphs, lambda new: self._ego_balls(new, layer.radius))
        cache.set_bank(mask_graphs)
        normalized = layer.kernel.normalized

        def column(mask_graph):
            cols, counts, mnorm = cache.mask_counts(mask_graph)
            col = csc_dot(mat.indptr, mat.indices, mat.data, cols, counts,
                          mat.shape[0])
            if normalized:
                safe_divide(col, ego_norms * mnorm)
            return col

        z = np.column_stack([column(g) for g in mask_graphs])
        return z, column

    def _wl_deep_layer(self, layer: LayerConfig, graphs, labels,
                       mask_graphs):
        """Responses of a layer whose labels change per batch: one
        refinement of the union of the batch's ego balls; labels is the
        flat node labeling of the batch. Returns (z, responses closure)."""
        indptr, nbrs, origin, sizes = _concat_balls(
            self._ego_balls(graphs, layer.radius))
        union = refine_union(indptr, nbrs, labels[origin], sizes,
                             layer.kernel.wl_iterations)
        num_labels = layer.input_dictionary.size
        iterations = layer.kernel.wl_iterations
        normalized = layer.kernel.normalized

        def column(mask_graph):
            col = union.dot(mask_graph)
            if normalized:
                hist = WlColorTable(num_labels, iterations).histogram(
                    mask_graph)
                mnorm = float(np.sqrt(sum(c * c for c in hist.values())))
                safe_divide(col, union.norms * mnorm)
            return col

        z = np.column_stack([column(g) for g in mask_graphs])
        return z, column

    def _graphlet_layer(self, layer: LayerConfig, egos, mask_graphs):
        lv = np.stack([self._g3_vector(g) for g in egos])
        normalized = layer.kernel.normalized
        ln = np.sqrt((lv * lv).sum(axis=1))

        def column(mask_graph):
            rv = graphlet3_vector(mask_graph)
            col = lv @ rv
            if normalized:
                safe_divide(col, ln * float(np.sqrt(rv @ rv)))
            return col

        z = np.column_stack([column(g) for g in mask_graphs])
        return z, column

    def _relabeled_egos(self, graphs, cur, radius: int):
        """Ego graphs of every node of the batch under cur's labels."""
        out = []
        for base, g in zip(graphs, cur):
            temps = self._ego_templates(base, radius)
            if g is base:
                out.extend(t.graph for t in temps)
            else:
                lab = g.labels
                out.extend(t.graph.with_labels([lab[o] for o in t.origin])
                           for t in temps)
        return out

    def forward_graphs(self, params: ModelParams, graphs,
                       fit_rng: np.random.Generator = None,
                       zero_cols=frozenset(), want_trace: bool = False) -> BatchTrace:
        """Forward a batch; fit_rng switches junction codebooks to
        fit-then-assign on this batch (training mode). zero_cols is a set
        of (layer, mask_index) whose response column is forced to zero
        network wide (ablation support)."""
        graphs = list(graphs)
        if not graphs:
            raise ModelError("empty batch")
        net = self.net
        cur = graphs
        labels_flat = None  # cur's labels in batch order, built when needed
        per_graph_blocks = [[] for _ in graphs]
        layer_traces = []
        for l, layer in enumerate(net.layers):
            for g in cur:
                _check_layer_input(layer, g, params.masks[l])
            slices = []
            start = 0
            for g in cur:
                slices.append((start, start + g.num_nodes))
                start += g.num_nodes
            mask_graphs = [mk.graph for mk in params.masks[l]]
            if layer.kernel.kind == GRAPHLET3:
                # graphlet counting ignores labels, so the structural
                # templates serve at any depth
                z_flat, responses = self._graphlet_layer(
                    layer, self._relabeled_egos(graphs, graphs, layer.radius),
                    mask_graphs)
            elif l == 0:
                z_flat, responses = self._wl_first_layer(layer, graphs,
                                                         mask_graphs)
            else:
                if labels_flat is None:
                    labels_flat = np.fromiter(
                        chain.from_iterable(g.labels for g in cur),
                        dtype=np.int64, count=start)
                z_flat, responses = self._wl_deep_layer(
                    layer, graphs, labels_flat, mask_graphs)
            make_egos = (lambda cur=cur, r=layer.radius:
                         self._relabeled_egos(graphs, cur, r))
            for (zl, zi) in zero_cols:
                if zl == l:
                    z_flat[:, zi] = 0.0
            for (a, b), blocks in zip(slices, per_graph_blocks):
                blocks.append(z_flat[a:b])
            if want_trace:
                layer_traces.append(LayerBatch(
                    before=z_flat, slices=slices, responses=responses,
                    make_egos=make_egos))
            if l < net.num_layers - 1:
                if net.quantizer_k[l] is None:
                    continue
                cb = params.codebooks[l]
                if fit_rng is not None:
                    fit_update(cb, z_flat, rng=fit_rng)
                elif cb is None or not cb.initialized:
                    raise CodebookStateError(
                        f"junction {l} codebook has not been fitted")
                labels_flat = assign(cb, z_flat)
                cur = [g.with_labels(labels_flat[a:b])
                       for g, (a, b) in zip(cur, slices)]
        features = [np.hstack(blocks) for blocks in per_graph_blocks]
        return BatchTrace(features=features, layers=layer_traces)
