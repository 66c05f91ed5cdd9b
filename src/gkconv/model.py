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

from .graphs import (LabeledGraph, LabelDictionary, concat_balls,
                     ego_balls, induced_subgraph, max_component_nodes,
                     split_balls)
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


def _check_state(net: NetworkConfig, state: dict) -> None:
    """Raise a ModelError naming the first value of a params state that
    misfits net: a flag that is not a boolean, a codebook entry of the
    wrong junction kind or k, or an array whose shape, or node or label
    range, misfits its layer, its junction or the MLP."""
    cbs, want = state["codebooks"], {}  # key -> (shape, bound or 0)
    flags = {"has_mlp": state.get("has_mlp", False)}
    if not isinstance(cbs, list) or len(cbs) != len(net.quantizer_k):
        raise ModelError(f"codebooks: expected one entry per junction "
                         f"({len(net.quantizer_k)}), found {cbs!r}")
    for j, (k, cm) in enumerate(zip(net.quantizer_k, cbs)):
        if (cm is None) != (k is None) or cm is not None and cm["k"] != k:
            raise ModelError(f"codebooks.{j}: expected k={k}, found {cm!r}")
        if cm is not None:
            flags.update((f"codebooks.{j}.{key}", cm[key])
                         for key in ("initialized", "degenerate"))
            if cm["initialized"]:
                want[f"codebooks.{j}.centroids"] = (
                    k, net.layers[j].num_masks), 0
    for key, val in flags.items():
        if not isinstance(val, bool):
            raise ModelError(f"{key}: expected a boolean, found {val!r}")
    for l, layer in enumerate(net.layers):
        d, size = layer.max_mask_nodes, layer.input_dictionary.size
        for pre in (f"masks.{l}.{i}." for i in range(layer.num_masks)):
            want[pre + "edges"] = np.shape(state[pre + "edges"])[:1] + (2,), d
            want[pre + "labels"] = (d,), size
            for kind, shape in (("edge", (d * (d - 1) // 2,)),
                                ("label", (d, size))):
                for name in ("_logits", f"_opt.m.{kind}", f"_opt.v.{kind}"):
                    want[pre + kind + name] = shape, 0  # and Adam moments
    if flags["has_mlp"]:  # hidden and class counts read off W1 and W2
        h, c = (np.shape(state[f"mlp.{w}"])[-1:] for w in ("W1", "W2"))
        for name, shape in (("W1", (net.feature_dim,) + h), ("b1", h),
                            ("W2", h + c), ("b2", c)):
            for key in (name, f"opt.m.{name}", f"opt.v.{name}"):
                want["mlp." + key] = shape, 0
    for key, (shape, top) in want.items():  # absent: no Adam step yet
        arr = np.asarray(state.get(key, np.zeros(shape)))
        if arr.shape != shape:
            raise ModelError(
                f"{key}: expected shape {shape}, found {arr.shape}")
        if top and arr.size and not (arr.min() >= 0 and arr.max() < top):
            raise ModelError(f"{key}: expected values in [0, {top}), "
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
        _check_state(net, state)
        keys = sorted(state)  # a prefix's keys: adjacent, below prefix + "~"

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
            k=int(cm["k"]), initialized=cm["initialized"],
            degenerate=cm["degenerate"],
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


def _kept_blocks(kept: dict, graphs, radius: int, build) -> list:
    """Every graph's block at radius, in batch order, from kept, a dict
    {(graph, radius): block}. build(new) gives the blocks of the graphs
    not kept yet, each once, in one pass; they are kept."""
    new = [g for g in dict.fromkeys(graphs) if (g, radius) not in kept]
    if new:
        kept.update(zip([(g, radius) for g in new], build(new)))
    return [kept[(g, radius)] for g in graphs]


def _wl_blocks(table: WlColorTable, d: int, graphs, balls) -> list:
    """Each graph's layer-0 subtree-kernel rows, refined from balls, the
    union of their balls in ``concat_balls`` form: per graph, the number
    of entries of each row, their int32 colors and counts end to end,
    and the rows' norms. A color is one of table, which also refines the
    mask graphs, so ids never move as the table grows. A row keeps only
    the colors a graph of at most d nodes can hold (``union_colors``):
    no mask holds another, so the entries left out add 0 to every dot
    product; the norms count them."""
    indptr, nbrs, origin, sizes = balls
    labels = np.fromiter(chain.from_iterable(g.labels for g in graphs),
                         dtype=np.int64, count=len(sizes))
    union = refine_union(indptr, nbrs, labels[origin], sizes,
                         table.iterations)
    color = np.repeat(table.union_colors(union, indptr, nbrs, d),
                      np.diff(union.col_ptr))
    at = np.flatnonzero(color >= 0)
    at = at[np.argsort(union.part[at], kind="stable")]  # row by row
    row_ptr = np.searchsorted(union.part[at], np.arange(len(sizes) + 1))
    colors = color[at].astype(np.int32)
    counts = union.count[at].astype(np.int32)
    first = np.cumsum([0] + [g.num_nodes for g in graphs]).tolist()
    entry = row_ptr[first].tolist()
    span = np.diff(row_ptr)
    return [(span[a:b], colors[e:f], counts[e:f], union.norms[a:b])
            for a, b, e, f in zip(first, first[1:], entry, entry[1:])]


def _row_matrix(blocks) -> tuple:
    """Layer-0 blocks of a batch as one float64 CSR matrix over the
    colors up to the largest they hold, plus the rows' norms."""
    span, colors, counts, norms = map(np.concatenate, zip(*blocks))
    mat = sp.csr_matrix((counts.astype(np.float64), colors,
                         np.concatenate(([0], np.cumsum(span)))),
                        shape=(len(span), int(colors.max(initial=0)) + 1))
    return mat, norms


class ForwardEngine:
    """Batched forward passes with structural caching for one run.

    A graph's ego balls, layer-0 WL rows and graphlet3 counts depend on
    neither the masks nor the labels above layer 0, so the engine keeps
    each as one block per graph and radius (``_kept_blocks``), building
    the blocks of all the graphs a batch brings for the first time in one
    pass; balls only at radii that a WL layer above the first reads on
    every batch (``graphs.ego_balls``, a block-diagonal CSR union).

    Every layer kind plugs into one responses closure (``_column``),
    which scores mask graphs against the ego of every node of the batch,
    one (n, k) block for k masks. A kind supplies the batch's rows, built
    on the first call, and a mask's statistic: layer 0 concatenates its
    graphs' kept row blocks (``_wl_blocks``) into one float CSR matrix
    and takes a mask's histogram over the colors of the one table the
    blocks share, so a bank is one product of the rows with a dense
    (colors, k) matrix of counts; a WL layer above the
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
        self._l0_table = WlColorTable(
            first.input_dictionary.size, first.kernel.wl_iterations) \
            if first.kernel.kind == WL_SUBTREE else None
        self._l0_rows = {}   # (base graph, radius) -> _wl_blocks block
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
        ``concat_balls`` form. Each graph's EgoBalls are kept only at a
        radius that a WL layer above the first reads on every batch. At
        any other radius a graph's balls are read once, to build its
        rows, so the union is built whole and kept by no one."""
        if radius not in self._deep_wl_radii:
            return concat_balls([ego_balls(graphs, radius)])
        return concat_balls(_kept_blocks(
            self._balls, graphs, radius,
            lambda new: split_balls(ego_balls(new, radius), new)))

    def _graphlet_rows(self, graphs, radius: int) -> np.ndarray:
        """graphlet3 counts of the radius-balls of every node of graphs, in
        batch order; each graph is counted once."""
        def count(new):
            indptr, nbrs, _, sizes = self._ego_balls(new, radius)
            counts = graphlet3_union(indptr, nbrs, sizes)
            first = np.cumsum([0] + [g.num_nodes for g in new]).tolist()
            return [counts[a:b] for a, b in zip(first, first[1:])]
        return np.concatenate(_kept_blocks(self._g3_rows, graphs, radius,
                                           count))

    def _layer0_blocks(self, graphs) -> list:
        """The kept layer-0 WL row blocks of graphs, in batch order; each
        graph's balls are refined once."""
        layer = self.net.layers[0]
        return _kept_blocks(
            self._l0_rows, graphs, layer.radius,
            lambda new: _wl_blocks(self._l0_table, layer.max_mask_nodes, new,
                                   self._ego_balls(new, layer.radius)))

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
            table, d = self._l0_table, layer.max_mask_nodes

            def rows():
                mat, norms = _row_matrix(self._layer0_blocks(graphs))
                def dot(hists):  # a color past the last column is in no row
                    counts = np.zeros((mat.shape[1], len(hists)))
                    for j, (colors, c) in enumerate(hists):
                        keep = colors < len(counts)
                        counts[colors[keep], j] = c[keep]
                    return mat @ counts
                return dot, safe_norms(norms)

            def stat(g):
                deg = max(map(len, g.adj), default=0)
                if deg >= d:  # the rows hold no color of such a node
                    raise ModelError(f"layer-0 probe has a node of degree "
                                     f"{deg}, above the bound {d - 1}")
                # interns the mask's colors into the rows' table
                hist = table.histogram(g)
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
