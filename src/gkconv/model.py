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

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain, combinations

import numpy as np
import scipy.sparse as sp

from .graphs import (EgoBalls, LabeledGraph, LabelDictionary, _ranges,
                     ego_balls, induced_subgraph, max_component_nodes)
from .head import MlpParams
from .kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig, WlColorTable,
                      graphlet3_union, graphlet3_vector, refine_union,
                      safe_norms)
from .optim import Adam
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


@dataclass(eq=False)
class EditProbabilities:
    """Edit sampling distribution, parameterized by free logits.

    Edge logits (one per node pair) pass through a sigmoid: the sigmoid
    is the add weight of an absent pair and its complement the removal
    weight of a present pair. Label logits (one row per node) pass
    through a row softmax. Candidate weights are renormalized over the
    edits of the current workspace, so both phases always sample a
    proper distribution. Each phase owns its Adam state and is only
    stepped by edits of that phase.
    """

    edge_logits: np.ndarray   # (pairs,)
    label_logits: np.ndarray  # (d, dict_size)
    edge_opt: Adam
    label_opt: Adam

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


@cache
def _pairs(d: int) -> tuple:
    """Node pairs u < v of d nodes, row-major: edge edit k toggles the k-th."""
    return tuple(combinations(range(d), 2))


class StructuralMask:
    """A learnable mask graph plus its edit state.

    The mask lives inside a fixed workspace of max_mask_nodes nodes whose
    edge set and labels get edited during training; the effective mask
    scored by the kernel is the workspace's largest connected component.
    Keeping the workspace at fixed size gives the edit logits a stable
    index space and lets masks grow back after shrinking. present[k]: is
    the k-th pair of ``_pairs`` an edge of the workspace.
    """

    __slots__ = ("workspace", "edit_probs", "component", "graph", "present")

    def __init__(self, workspace: LabeledGraph, edit_probs):
        self.workspace = workspace
        self.edit_probs = edit_probs
        self.component = tuple(max_component_nodes(workspace))
        self.graph = induced_subgraph(workspace, self.component)
        self.present = np.array([workspace.has_edge(*e) for e in _pairs(
            workspace.num_nodes)], dtype=bool)


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


def _check_layer_input(layer: LayerConfig, labels: np.ndarray, masks):
    """Check a mask bank and the node labels of the graphs it will score
    (all of them flat in one array) against the layer."""
    if len(masks) != layer.num_masks:
        raise ModelError(
            f"layer wants {layer.num_masks} masks, got {len(masks)}")
    size = layer.input_dictionary.size
    if labels.max(initial=-1) >= size:
        raise ModelError(
            f"graph label outside dictionary of size {size}")
    for mk in masks:
        if mk.workspace.num_nodes != layer.max_mask_nodes:
            raise ModelError("mask workspace size does not match layer")
        if max(mk.workspace.labels) >= size:
            raise ModelError("mask label outside layer dictionary")


def _check_mask_state(layer: LayerConfig, state: dict, pre: str) -> None:
    """Raise a ModelError naming the first array of the mask state under
    pre whose shape, or node or label range, misfits the layer."""
    d, size = layer.max_mask_nodes, layer.input_dictionary.size
    want = {"edges": (np.shape(state[pre + "edges"])[:1] + (2,), d),
            "labels": ((d,), size)}
    for kind, shape in ("edge", (d * (d - 1) // 2,)), ("label", (d, size)):
        for name in ("_logits", f"_opt.m.{kind}", f"_opt.v.{kind}"):
            want[kind + name] = shape, 0  # logits and their Adam moments
    for key, (shape, top) in want.items():  # absent: no Adam step yet
        arr = np.asarray(state.get(pre + key, np.zeros(shape)))
        if arr.shape != shape:
            raise ModelError(
                f"{pre}{key}: expected shape {shape}, found {arr.shape}")
        if top and arr.size and not (arr.min() >= 0 and arr.max() < top):
            raise ModelError(f"{pre}{key}: expected values in [0, {top}), "
                             f"found {arr.min()}..{arr.max()}")


def _put(out: dict, prefix: str, values: dict) -> None:
    """values into out under prefix, an optimizer's state one level down."""
    for key, val in values.items():
        if isinstance(val, Adam):
            _put(out, f"{prefix}{key}.", val.state())
        else:
            out[prefix + key] = val


@dataclass
class ModelParams:
    """Everything the network learns.

    masks[l] is layer l's mask bank; codebooks[j] belongs to junction j
    (None for passthrough junctions); mlp is the readout classifier.
    """

    masks: list
    codebooks: list
    mlp: MlpParams = None

    def state(self) -> dict:
        """Everything learned in one flat dict under its checkpoint names
        (masks.l.i.edges, codebooks.j.centroids, mlp.opt.t, ...): arrays,
        live as Adam.state() gives them, and JSON values."""
        out = {"codebooks": [None if cb is None else {
            key: val for key, val in vars(cb).items() if key != "centroids"}
            for cb in self.codebooks], "has_mlp": self.mlp is not None}
        for l, bank in enumerate(self.masks):
            for i, mask in enumerate(bank):
                ws = mask.workspace
                _put(out, f"masks.{l}.{i}.", {
                    "edges": np.array(ws.edges, dtype=np.int64).reshape(-1, 2),
                    "labels": np.array(ws.labels, dtype=np.int64),
                    **vars(mask.edit_probs)})
        for j, cb in enumerate(self.codebooks):
            if cb is not None and cb.initialized:
                out[f"codebooks.{j}.centroids"] = cb.centroids
        if self.mlp is not None:
            _put(out, "mlp.", vars(self.mlp))
        return out

    @classmethod
    def from_state(cls, net: NetworkConfig, state: dict) -> "ModelParams":
        """The params a state() dict describes, on copies of its arrays;
        a missing or bad value raises KeyError, TypeError or ValueError."""
        keys = sorted(state)  # a prefix's keys: adjacent, below prefix + "~"
        for l, layer in enumerate(net.layers):
            for i in range(layer.num_masks):
                _check_mask_state(layer, state, f"masks.{l}.{i}.")

        def adam(prefix):
            opt = Adam(float(state[prefix + "lr"]))
            opt.load_state({key[len(prefix):]: state[key] for key in keys[
                bisect_left(keys, prefix):bisect_left(keys, prefix + "~")]})
            return opt

        def take(kind, prefix):  # a dataclass that _put wrote
            return kind(**{f.name: np.array(state[prefix + f.name], float)
                           if prefix + f.name in state
                           else adam(f"{prefix}{f.name}.")
                           for f in fields(kind)})

        masks = [[StructuralMask(
            LabeledGraph(layer.max_mask_nodes, state[pre + "edges"],
                         state[pre + "labels"]),
            take(EditProbabilities, pre))
            for pre in (f"masks.{l}.{i}." for i in range(layer.num_masks))]
            for l, layer in enumerate(net.layers)]
        codebooks = [None if cm is None else Codebook(
            k=int(cm["k"]), initialized=bool(cm["initialized"]),
            degenerate=bool(cm["degenerate"]),
            last_displacement=float(cm["last_displacement"]),
            centroids=np.array(state[f"codebooks.{j}.centroids"], float)
            if cm["initialized"] else None)
            for j, cm in enumerate(state["codebooks"])]
        mlp = take(MlpParams, "mlp.") if state.get("has_mlp") else None
        return cls(masks=masks, codebooks=codebooks, mlp=mlp)


@dataclass
class LayerBatch:
    """Per-layer trace of one batched forward pass for the mask edit
    search: the responses to the current masks and the closure that
    scores any mask graphs against the same egos, in batch node order."""

    before: np.ndarray
    bank: object  # callable: k mask LabeledGraphs -> (n_total, k) ndarray

    def responses(self, g) -> np.ndarray:  # one mask graph's column
        return self.bank([g])[:, 0]


@dataclass
class BatchTrace:
    features: list  # per graph, (n_g, feature_dim)
    layers: list    # LayerBatch per layer


class _WlRowStore:
    """Layer-0 subtree-kernel rows of every graph the engine has seen, in
    one append-only CSR matrix over the colors of one persistent
    WlColorTable.

    Layer-0 labels never change, so a graph's ego balls are refined once:
    the first batch that reads a graph's rows refines its balls together
    with the balls of every other new graph of the batch
    (``refine_union``), maps the union's classes to the colors of the
    table, which also refines the mask graphs, and appends one row per
    ball; a color id is its column. A row keeps only the colors a graph
    of at most d = ``max_mask_nodes`` nodes can hold (``union_colors``):
    no mask or candidate holds another, so the entries left out add 0 to
    every dot product. ``indptr``/``indices``/``counts`` are the rows,
    ``norms`` their full histogram norms and ``rows`` each graph's row
    range. Stored rows stay valid as new colors extend the table, since
    existing ids never move.
    """

    def __init__(self, table: WlColorTable, d: int):
        self.table = table
        self.d = d
        # colors and counts as int32 halve the rows: a color id is below
        # the table's entry count and a count below a ball's size; batch
        # casts the counts it gathers to float64, which is exact
        self.indptr = np.zeros(1, dtype=np.int64)
        self.indices = np.empty(0, dtype=np.int32)
        self.counts = np.empty(0, dtype=np.int32)
        self.norms = np.empty(0)
        self.rows = {}      # graph -> (first row, end row)

    def batch(self, graphs, balls_of):
        """The rows of graphs, in batch order, as one float64 CSR matrix
        over the colors up to the largest they hold, plus their norms. New
        graphs are stored first; balls_of gives the union of their balls."""
        new = [g for g in dict.fromkeys(graphs) if g not in self.rows]
        if new:
            self._add(new, *balls_of(new))
        first, end = np.array([self.rows[g] for g in graphs],
                              dtype=np.int64).reshape(-1, 2).T
        rows = _ranges(first, end - first)
        lo = self.indptr[rows]
        span = self.indptr[rows + 1] - lo
        at = _ranges(lo, span)
        indices = self.indices[at]
        mat = sp.csr_matrix((self.counts[at].astype(np.float64), indices,
                             np.concatenate(([0], np.cumsum(span)))),
                            shape=(len(rows), int(indices.max(initial=0)) + 1))
        return mat, self.norms[rows]

    def _add(self, graphs, indptr, nbrs, origin, sizes):
        """Refine the balls of graphs (their union, as ``_concat_balls``
        gives it) and append one row per ball."""
        labels = np.fromiter(chain.from_iterable(g.labels for g in graphs),
                             dtype=np.int64, count=len(sizes))
        union = refine_union(indptr, nbrs, labels[origin], sizes,
                             self.table.iterations)
        color = np.repeat(self.table.union_colors(union, indptr, nbrs, self.d),
                          np.diff(union.col_ptr))
        at = np.flatnonzero(color >= 0)
        at = at[np.argsort(union.part[at], kind="stable")]  # row by row
        row_ptr = np.searchsorted(union.part[at], np.arange(len(sizes) + 1))
        first = len(self.norms)
        ends = np.cumsum([first] + [g.num_nodes for g in graphs]).tolist()
        self.rows.update(zip(graphs, zip(ends, ends[1:])))
        self.indptr = np.concatenate((self.indptr,
                                      row_ptr[1:] + self.indptr[-1]))
        self.indices = np.concatenate(
            (self.indices, color[at].astype(np.int32)))
        self.counts = np.concatenate(
            (self.counts, union.count[at].astype(np.int32)))
        self.norms = np.concatenate((self.norms, union.norms))


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
    brings for the first time), and keeps them only at radii that a WL
    layer above the first reads on every batch.

    Every layer kind plugs into one responses closure (``_column``),
    which scores mask graphs against the ego of every node of the batch,
    one (n, k) block for k masks. A kind supplies the batch's rows, built
    on the first call, and a mask's statistic: layer 0 gathers its rows
    from ``_WlRowStore`` as one float CSR matrix and takes a mask's
    histogram over the store's colors, so a bank is one product of the
    rows with a dense (colors, k) matrix of counts; a WL layer above the
    first refines the union of the batch's balls under its junction's
    labels and takes a mask's norm; a graphlet3 layer reads one (n, 2)
    block of counts per graph and radius, each counted once
    (``kernels.graphlet3_union``), and a mask's counts.

    One memo serves every layer (``_responses``): each graph's input
    labels and (n, m) response block, kept until the layer's mask bank
    changes, and below a quantizing junction the labels it gave the
    block (``_junction``), so a batch scored under fixed parameters
    concatenates kept blocks and labels and builds nothing. A kept block
    is bitwise what a fresh pass gives, since a ball's histogram, and
    the lookup of a mask's colors, do not depend on the other balls of
    the batch; and kernel values are bit-for-bit those of the plain
    per-graph path: all histogram dot products are sums of small
    integers, exact in float64 in any order.
    """

    def __init__(self, net: NetworkConfig):
        self.net = net
        self._balls = {}     # (base graph, radius) -> EgoBalls
        self._deep_wl_radii = {layer.radius for layer in net.layers[1:]
                               if layer.kernel.kind == WL_SUBTREE}
        first = net.layers[0]
        self._l0_store = _WlRowStore(WlColorTable(
            first.input_dictionary.size, first.kernel.wl_iterations),
            first.max_mask_nodes) if first.kernel.kind == WL_SUBTREE else None
        self._g3_rows = {}   # (base graph, radius) -> (n, 2) graphlet counts
        self._stats = {}     # layer -> {mask graph: (vector, norm)}, for the
        #                      bank and the candidates its batch scored
        self._memo = {}      # layer -> (mask bank, {graph: (input labels,
        #                      (n, m) responses, junction labels or None)})

    def _responses(self, l: int, graphs, slices, labels, mask_graphs,
                   bank):
        """Layer l's (n, m) responses to the batch, its graphs at row
        slices of the flat input labels, from the responses closure bank;
        and the batch's memo entries when every graph was a hit, else None.

        When every graph of the batch is kept in the memo under these
        labels and this mask bank, the kept blocks are concatenated into
        a new array. Otherwise bank gives every mask's responses, kept
        until the bank changes as per-graph views into one copy of the
        batch's labels and responses (zero_cols writes into z), with no
        junction labels yet."""
        masks = tuple(mask_graphs)
        # LabeledGraph has no __eq__, so the banks compare by identity
        if self._memo.get(l, (None,))[0] != masks:
            self._memo[l] = (masks, {})  # releases the old bank's masks
        memo = self._memo[l][1]
        kept = [memo.get(g) for g in graphs]
        if None not in kept and np.array_equal(
                np.concatenate([k[0] for k in kept]), labels):
            return np.concatenate([k[1] for k in kept]), kept
        z = bank(mask_graphs)
        kept_labels, kept_z = labels.copy(), z.copy()
        for g, (a, b) in zip(graphs, slices):
            memo[g] = (kept_labels[a:b], kept_z[a:b], None)
        return z, None

    def _junction(self, l: int, cb: Codebook, z, graphs, slices, hits,
                  blanked) -> np.ndarray:
        """Junction l's labels of the batch: the nearest centroid of cb to
        every row of layer l's responses z.

        Layer l's memo entry of a graph keeps its labels with a copy of
        the centroids they were assigned under, so they go with its
        block. They serve when every graph was a hit (hits, the entries
        ``_responses`` gave), no column of z was blanked and every copy
        equals cb's centroids by value, as fit_update moves them in
        place. Otherwise assign runs, and its labels are kept unless a
        column was blanked."""
        if hits is not None and not blanked:
            kept = [h[2] for h in hits]
            if None not in kept:
                # the graphs of one batch share one copy
                stamps = {id(stamp): stamp for stamp, _ in kept}
                if all(np.array_equal(stamp, cb.centroids)
                       for stamp in stamps.values()):
                    return np.concatenate([out for _, out in kept])
        out = assign(cb, z)
        if not blanked:
            memo, stamp = self._memo[l][1], cb.centroids.copy()
            for g, (a, b) in zip(graphs, slices):
                memo[g] = memo[g][:2] + ((stamp, out[a:b]),)
        return out

    def _ego_balls(self, graphs, radius: int):
        """The balls of every node of graphs as one union, in
        ``_concat_balls`` form. Each graph's EgoBalls are kept only at a
        radius that a WL layer above the first reads on every batch, and
        the graphs without them are built in one ego_balls pass. At any
        other radius a graph's balls are read once, to build its rows, so
        the union is built whole and kept by no one."""
        if radius not in self._deep_wl_radii:
            return _concat_balls([ego_balls(graphs, radius)])
        kept = self._balls
        new = [g for g in dict.fromkeys(graphs) if (g, radius) not in kept]
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
                kept[(g, radius)] = EgoBalls(
                    degree=union.degree[u0:u1],
                    nbrs=union.nbrs[edge_at[i]:edge_at[i + 1]] - u0,
                    origin=union.origin[u0:u1] - first[i],
                    sizes=union.sizes[first[i]:first[i + 1]])
        return _concat_balls([kept[(g, radius)] for g in graphs])

    def _graphlet_rows(self, graphs, radius: int) -> np.ndarray:
        """graphlet3 counts of the radius-balls of every node of graphs, in
        batch order; the graphs without a stored block are counted in one
        pass."""
        rows = self._g3_rows
        new = [g for g in dict.fromkeys(graphs) if (g, radius) not in rows]
        if new:
            indptr, nbrs, _, sizes = self._ego_balls(new, radius)
            counts = graphlet3_union(indptr, nbrs, sizes)
            first = np.cumsum([0] + [g.num_nodes for g in new]).tolist()
            for g, a, b in zip(new, first, first[1:]):
                rows[(g, radius)] = counts[a:b]
        return np.concatenate([rows[(g, radius)] for g in graphs])

    def _column(self, l: int, layer: LayerConfig, graphs, labels,
                mask_graphs):
        """Layer l's responses closure over the batch, whose flat input
        labeling is labels: k mask graphs -> their (n, k) responses. rows()
        gives the batch side, a dot function of k mask vectors and the
        egos' norms; stat(g) a mask's vector (a deep WL mask's is the graph)
        and norm; a norm of 0 divides as 1 (``safe_norms``). The stats of
        the bank and of every candidate the batch scores are kept until the
        next batch, which keeps its bank's only."""
        kernel, radius = layer.kernel, layer.radius
        if kernel.kind == GRAPHLET3:
            def rows():
                lv = self._graphlet_rows(graphs, radius)
                return (lambda vecs: lv @ np.array(vecs).T,
                        safe_norms(np.sqrt((lv * lv).sum(axis=1))))

            def stat(g):
                rv = graphlet3_vector(g)
                return rv, float(np.sqrt(rv @ rv))
        elif l == 0:
            store = self._l0_store

            def rows():
                mat, norms = store.batch(
                    graphs, lambda new: self._ego_balls(new, radius))
                def dot(hists):  # a color past the last column is in no row
                    counts = np.zeros((mat.shape[1], len(hists)))
                    for j, (colors, c) in enumerate(hists):
                        keep = colors < len(counts)
                        counts[colors[keep], j] = c[keep]
                    return mat @ counts
                return dot, safe_norms(norms)

            def stat(g):
                deg = max(map(len, g.adj), default=0)
                if deg >= store.d:  # the rows hold no color of such a node
                    raise ModelError(f"layer-0 probe has a node of degree "
                                     f"{deg}, above the bound {store.d - 1}")
                # interns the mask's colors into the store's table
                hist = store.table.histogram(g)
                colors, counts = np.array(list(hist.items()),
                                          dtype=np.int64).reshape(-1, 2).T
                return (colors, counts), float(np.sqrt(counts @ counts))
        else:
            def rows():
                indptr, nbrs, origin, sizes = self._ego_balls(graphs, radius)
                union = refine_union(indptr, nbrs, labels[origin], sizes,
                                     kernel.wl_iterations)
                return union.dot, safe_norms(union.norms)

            def stat(g):
                if not kernel.normalized:
                    return g, None
                hist = WlColorTable(layer.input_dictionary.size,
                                    kernel.wl_iterations).histogram(g)
                return g, float(np.sqrt(sum(c * c for c in hist.values())))

        rows = cache(rows)
        kept = self._stats.get(l, {})
        stats = self._stats[l] = {g: kept[g] if g in kept else stat(g)
                                  for g in mask_graphs}

        def bank(gs):
            dot, norms = rows()
            for g in gs:
                if g not in stats:
                    stats[g] = stat(g)
            vecs, mask_norms = zip(*map(stats.__getitem__, gs))
            z = dot(vecs)
            if kernel.normalized:
                z /= np.multiply.outer(norms, [n or 1.0 for n in mask_norms])
            return z

        return bank

    def forward_graphs(self, params: ModelParams, graphs,
                       fit_rng: np.random.Generator = None,
                       zero_cols=frozenset()) -> BatchTrace:
        """Forward a batch: per-graph features and, per layer, the batch's
        responses and its responses closure. fit_rng switches junction
        codebooks to fit-then-assign on this batch (training mode).
        zero_cols is a set of (layer, mask_index) whose response column is
        forced to zero network wide (ablation support)."""
        graphs = list(graphs)
        if not graphs:
            raise ModelError("empty batch")
        net = self.net
        ends = np.cumsum([g.num_nodes for g in graphs]).tolist()
        slices = list(zip([0] + ends[:-1], ends))
        # the current layer's input labels in batch order
        labels_flat = np.fromiter(
            chain.from_iterable(g.labels for g in graphs), dtype=np.int64,
            count=ends[-1])
        layer_traces = []
        for l, layer in enumerate(net.layers):
            _check_layer_input(layer, labels_flat, params.masks[l])
            mask_graphs = [mk.graph for mk in params.masks[l]]
            bank = self._column(l, layer, graphs, labels_flat, mask_graphs)
            z_flat, hits = self._responses(l, graphs, slices, labels_flat,
                                           mask_graphs, bank)
            blanked = [zi for zl, zi in zero_cols if zl == l]
            if blanked:
                z_flat[:, blanked] = 0.0
            layer_traces.append(LayerBatch(before=z_flat, bank=bank))
            if l < net.num_layers - 1:
                if net.quantizer_k[l] is None:
                    continue
                cb = params.codebooks[l]
                if fit_rng is not None:
                    fit_update(cb, z_flat, rng=fit_rng)
                elif cb is None or not cb.initialized:
                    raise CodebookStateError(
                        f"junction {l} codebook has not been fitted")
                labels_flat = self._junction(l, cb, z_flat, graphs, slices,
                                             hits, blanked)
        # per-graph features are row views of one matrix; nothing
        # downstream writes into them
        z_all = np.hstack([lt.before for lt in layer_traces]) \
            if len(layer_traces) > 1 else layer_traces[0].before
        return BatchTrace(features=[z_all[a:b] for a, b in slices],
                          layers=layer_traces)
