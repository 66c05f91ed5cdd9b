"""Graph kernels over labeled graphs.

Two kernels are provided behind one config type:

* ``wl_subtree`` counts matching rooted subtree patterns via iterative
  color refinement. A signature (own color, sorted multiset of neighbor
  colors) is mapped to a compressed color id through a shared table; the
  kernel is the dot product of the combined color histograms over
  refinement rounds 0..h. Kernel values do not depend on how the color
  table is shared between calls, only on which graphs are compared.
* ``graphlet3`` counts induced connected 3-node subgraphs (triangles and
  paths) and takes the dot product of the two count vectors. Node labels
  are ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import GraphError, LabeledGraph, _ranges

WL_SUBTREE = "wl_subtree"
GRAPHLET3 = "graphlet3"
KERNEL_KINDS = (WL_SUBTREE, GRAPHLET3)


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelConfig:
    """Which kernel to evaluate and how.

    wl_iterations is the number of refinement rounds h (histograms from
    rounds 0..h all contribute). normalized divides by the geometric mean
    of the self-similarities so values land in [0, 1].
    """

    kind: str = WL_SUBTREE
    wl_iterations: int = 3
    normalized: bool = True

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind == WL_SUBTREE and self.wl_iterations < 1:
            raise KernelError(
                f"wl_subtree needs wl_iterations >= 1, got {self.wl_iterations}")


@dataclass
class WlColoring:
    """Per-iteration node colors from refinement rounds 0..h."""

    colors: list  # colors[t][v] = color of node v after round t

    @property
    def iterations(self) -> int:
        return len(self.colors) - 1


class WlColorTable:
    """Shared signature -> color mapping for a fixed iteration count.

    Round-0 colors are the raw node labels; refined colors draw fresh ids
    from a counter that starts past the label alphabet, so ids never
    collide across rounds. Sharing one table across many graphs keeps
    their histograms directly comparable.
    """

    def __init__(self, num_labels: int, iterations: int):
        if num_labels < 1:
            raise KernelError("need num_labels >= 1")
        if iterations < 0:
            raise KernelError("negative iteration count")
        self.num_labels = num_labels
        self.iterations = iterations
        self._tables = [dict() for _ in range(iterations)]
        self._next = num_labels

    def refine(self, g: LabeledGraph):
        """All per-round colorings plus the combined histogram."""
        if any(l >= self.num_labels for l in g.labels):
            raise KernelError(
                f"node label outside dictionary of size {self.num_labels}")
        colors = list(g.labels)
        per_round = [colors]
        combined = Counter(colors)
        for t in range(self.iterations):
            colors = self.intern(t, [
                (colors[v], tuple(sorted(colors[u] for u in g.adj[v])))
                for v in range(g.num_nodes)])
            per_round.append(colors)
            combined.update(colors)
        return per_round, combined

    def intern(self, t: int, signatures) -> list:
        """Round-(t + 1) colors of the given (own color, sorted neighbor
        colors) signatures, drawing fresh ids for unseen ones."""
        table, nxt, out = self._tables[t], self._next, []
        for sig in signatures:
            c = table.setdefault(sig, nxt)
            if c == nxt:
                nxt += 1
            out.append(c)
        self._next = nxt
        return out

    def union_colors(self, union: "WlUnion", indptr, indices) -> np.ndarray:
        """This table's color of every column of a refined union, given
        the union's CSR adjacency. Each class's signature is read off one
        of its nodes and interned once, so union histograms and this
        table's histograms share color ids."""
        if len(union.labels) and union.labels[-1] >= self.num_labels:
            raise KernelError(
                f"node label outside dictionary of size {self.num_labels}")
        if len(union.rounds) - 1 != self.iterations:
            raise KernelError("union iteration count does not match table")
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        colors = [union.labels]
        node_color = union.labels[union.rounds[0]]
        for t, cls in enumerate(union.rounds[1:]):
            rep = np.empty(int(union.offsets[t + 2] - union.offsets[t + 1]),
                           dtype=np.int64)
            rep[cls] = np.arange(len(cls))  # any node of a class will do
            lo, deg = indptr[rep], indptr[rep + 1] - indptr[rep]
            nb = node_color[indices[_ranges(lo, deg)]]
            nb = nb[np.lexsort((nb, np.repeat(np.arange(len(rep)), deg)))]
            flat, ends = nb.tolist(), np.cumsum(deg).tolist()
            col = np.array(self.intern(t, [
                (own, tuple(flat[a:b])) for own, a, b in
                zip(node_color[rep].tolist(), [0] + ends[:-1], ends)]),
                dtype=np.int64)
            colors.append(col)
            node_color = col[cls]
        return np.concatenate(colors)

    def histogram(self, g: LabeledGraph) -> Counter:
        """Combined color histogram over rounds 0..h."""
        return self.refine(g)[1]


def wl_refine(g: LabeledGraph, iterations: int) -> WlColoring:
    """Standalone color refinement of one graph (fresh table)."""
    base = max(g.labels, default=0) + 1
    table = WlColorTable(base, iterations)
    per_round, _ = table.refine(g)
    return WlColoring(colors=per_round)


def _hist_dot(h1: Counter, h2: Counter) -> float:
    if len(h2) < len(h1):
        h1, h2 = h2, h1
    return float(sum(v * h2.get(k, 0) for k, v in h1.items()))


def _label_base(graphs) -> int:
    base = 1
    for g in graphs:
        if g.num_nodes:
            base = max(base, max(g.labels) + 1)
    return base


def wl_subtree_kernel(g1: LabeledGraph, g2: LabeledGraph,
                      iterations: int = 3, table: WlColorTable = None) -> float:
    """Unnormalized subtree kernel: dot of combined color histograms."""
    if table is None:
        table = WlColorTable(_label_base((g1, g2)), iterations)
    elif table.iterations != iterations:
        raise KernelError("table iteration count does not match request")
    return _hist_dot(table.histogram(g1), table.histogram(g2))


def graphlet3_vector(g: LabeledGraph) -> np.ndarray:
    """Counts of induced connected 3-node subgraphs: [triangles, paths]."""
    tri = 0
    nbr = [set(ns) for ns in g.adj]
    for a, b in g.edges:
        # every triangle is counted once per edge, i.e. three times total
        tri += len(nbr[a] & nbr[b])
    tri //= 3
    wedges = sum(d * (d - 1) // 2 for d in map(g.degree, range(g.num_nodes)))
    return np.array([tri, wedges - 3 * tri], dtype=np.float64)


def graphlet3_kernel(g1: LabeledGraph, g2: LabeledGraph) -> float:
    return float(graphlet3_vector(g1) @ graphlet3_vector(g2))


def _raw_kernel(cfg: KernelConfig, g1, g2, table=None) -> float:
    if cfg.kind == WL_SUBTREE:
        return wl_subtree_kernel(g1, g2, cfg.wl_iterations, table)
    return graphlet3_kernel(g1, g2)


def kernel_eval(cfg: KernelConfig, g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Kernel value under cfg; normalized form is k12 / sqrt(k11 k22)."""
    if not cfg.normalized:
        return _raw_kernel(cfg, g1, g2)
    if cfg.kind == WL_SUBTREE:
        table = WlColorTable(_label_base((g1, g2)), cfg.wl_iterations)
        h1, h2 = table.histogram(g1), table.histogram(g2)
        k12 = _hist_dot(h1, h2)
        k11 = _hist_dot(h1, h1)
        k22 = _hist_dot(h2, h2)
    else:
        v1, v2 = graphlet3_vector(g1), graphlet3_vector(g2)
        k12 = float(v1 @ v2)
        k11 = float(v1 @ v1)
        k22 = float(v2 @ v2)
    if k11 <= 0.0 or k22 <= 0.0:
        return 0.0
    # same op order as the matrix path so both give bitwise-equal values
    return k12 / (np.sqrt(k11) * np.sqrt(k22))


def _csr_from_hists(hists, vocab) -> sp.csr_matrix:
    indptr = [0]
    indices = []
    data = []
    for h in hists:
        for key, cnt in h.items():
            col = vocab.get(key)
            if col is None:
                col = len(vocab)
                vocab[key] = col
            indices.append(col)
            data.append(cnt)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(hists), max(len(vocab), 1)))


def safe_divide(out: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """out / denom in place where denom > 0, zero where it is not.

    Normalized kernels use it so that an empty histogram (norm 0) scores
    0 against everything instead of NaN.
    """
    np.divide(out, denom, out=out, where=denom > 0)
    out[denom <= 0] = 0.0
    return out


def kernel_matrix(cfg: KernelConfig, left, right,
                  table: WlColorTable = None) -> np.ndarray:
    """All-pairs kernel values, shape (len(left), len(right)).

    For wl_subtree one shared color table covers every comparison; pass a
    persistent table (matching iteration count and label base) to reuse
    colors across calls.
    """
    left, right = list(left), list(right)
    if not left or not right:
        return np.zeros((len(left), len(right)), dtype=np.float64)
    if cfg.kind == WL_SUBTREE:
        if table is None:
            table = WlColorTable(_label_base(left + right), cfg.wl_iterations)
        elif table.iterations != cfg.wl_iterations:
            raise KernelError("table iteration count does not match config")
        lh = [table.histogram(g) for g in left]
        rh = [table.histogram(g) for g in right]
        vocab = {}
        lm = _csr_from_hists(lh, vocab)
        rm = _csr_from_hists(rh, vocab)
        if lm.shape[1] < len(vocab):
            lm.resize((lm.shape[0], len(vocab)))
        if rm.shape[1] < len(vocab):
            rm.resize((rm.shape[0], len(vocab)))
        out = (lm @ rm.T).toarray()
        if cfg.normalized:
            ln = np.sqrt([_hist_dot(h, h) for h in lh])
            rn = np.sqrt([_hist_dot(h, h) for h in rh])
            safe_divide(out, np.outer(ln, rn))
    else:
        lv = np.stack([graphlet3_vector(g) for g in left])
        rv = np.stack([graphlet3_vector(g) for g in right])
        out = lv @ rv.T
        if cfg.normalized:
            ln = np.sqrt((lv * lv).sum(axis=1))
            rn = np.sqrt((rv * rv).sum(axis=1))
            safe_divide(out, np.outer(ln, rn))
    return out


_KEY_MAX = int(np.iinfo(np.int64).max)


def _key_span(n_ranks: int, base: int, digits: int) -> int:
    """How many base-`base` digits one int64 key can append to a rank
    below n_ranks: the largest k <= digits with n_ranks * base**k - 1
    inside int64. Raises KernelError when not even one digit fits."""
    cap = (_KEY_MAX + 1) // max(n_ranks, 1)
    k, span = 0, 1
    while k < digits and span * base <= cap:
        span *= base
        k += 1
    if k == 0:
        raise KernelError(
            f"packing {n_ranks} ranks with base {base} overflows int64 keys")
    return k


def _packed(rank: np.ndarray, digits, base: int) -> np.ndarray:
    """rank * base**k + the k digits (rows of `digits`, most significant
    first), one int64 key per column."""
    key = np.array(rank, dtype=np.int64)
    for d in digits:
        key *= base
        key += d
    return key


class _Adjacency:
    """CSR adjacency plus, per entry, its owning node (row) and its cell
    in a (width, n) digit array (slot in the neighbor list, node)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.n = len(indptr) - 1
        self.deg = np.diff(indptr)
        self.indices = indices
        self.row = np.repeat(np.arange(self.n), self.deg)
        # position of each entry in a C-order (width, n) digit array
        self.cell = (np.arange(len(indices)) - indptr[self.row]) * self.n \
            + self.row
        self.width = int(self.deg.max()) if self.n else 0

    def digits(self, colors: np.ndarray, n_colors: int,
               width: int) -> np.ndarray:
        """(width, n) digits: row i holds every node's i-th smallest
        neighbor color plus one, and 0 past the node's degree. Every
        color is in [0, n_colors) and width is at least self.width."""
        _key_span(self.n, n_colors, 1)  # row * n_colors + color fits
        shift = self.row * n_colors
        key = np.sort(shift + colors[self.indices])
        out = np.zeros((width, self.n), dtype=np.int64)
        out.reshape(-1)[self.cell] = key - shift + 1
        return out


def _adjacency_of(g: LabeledGraph) -> _Adjacency:
    deg = np.fromiter(map(len, g.adj), dtype=np.int64, count=g.num_nodes)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    return _Adjacency(indptr, np.fromiter(
        (u for ns in g.adj for u in ns), dtype=np.int64,
        count=int(indptr[-1])))


def csc_dot(col_ptr, row, val, cols, weights, n_rows: int) -> np.ndarray:
    """Sum over j of weights[j] times column cols[j] of the CSC matrix
    (col_ptr, row, val) with n_rows rows. A column id past the matrix's
    last column is an empty column."""
    keep = cols < len(col_ptr) - 1
    cols, weights = cols[keep], weights[keep]
    lo = col_ptr[cols]
    span = col_ptr[cols + 1] - lo
    at = _ranges(lo, span)
    # bincount yields int64 when nothing matches, float64 otherwise
    return np.bincount(row[at], weights=val[at] * np.repeat(weights, span),
                       minlength=n_rows).astype(np.float64, copy=False)


def _lookup(keys: np.ndarray, key: np.ndarray):
    """Positions of key in the sorted array keys, and which were found."""
    if not len(keys):  # a union of empty graphs
        return np.zeros(len(key), dtype=np.int64), np.zeros(len(key), bool)
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    return pos, keys[pos] == key


class WlUnion:
    """Subtree-kernel histograms of the parts of one refined disjoint union.

    Built by ``refine_union``. Colors are dense class ranks per round,
    and the classes of all rounds are laid end to end as columns, round t
    taking columns offsets[t] to offsets[t + 1]. ``labels`` is the sorted
    set of round-0 labels, ``rounds[t]`` every node's class after round
    t, ``steps[t]`` the sorted key set of each compression step of round
    t + 1 and ``width`` the union's largest degree. ``col_ptr``/``part``/
    ``count`` hold the (column, part) counts in CSC form and ``norms`` the
    parts' histogram norms.
    """

    def __init__(self, labels, rounds, steps, offsets, width, col_ptr, part,
                 count, norms):
        self.labels = labels
        self.rounds = rounds
        self.steps = steps
        self.offsets = offsets
        self.width = width
        self.col_ptr = col_ptr
        self.part = part
        self.count = count
        self.norms = norms

    def columns(self, g: LabeledGraph):
        """g's color histogram on the union's columns: (column ids,
        counts). g is refined against the union's compression tables; a
        color the union never produced matches no column and is left out,
        along with every color refined from it."""
        adj = _adjacency_of(g)
        cls, found = _lookup(self.labels, np.asarray(g.labels, np.int64))
        cls[~found] = -1
        rounds = [cls]
        width = max(self.width, adj.width)
        for t, steps in enumerate(self.steps):
            size = int(self.offsets[t + 1] - self.offsets[t])
            lost = (cls < 0) | (adj.deg > self.width)
            lost[adj.row[cls[adj.indices] < 0]] = True
            digits = adj.digits(np.maximum(cls, 0), size, width)
            rank, n_ranks, i = np.maximum(cls, 0), size, 0
            for keys in steps:
                k = _key_span(n_ranks, size + 1, self.width - i)
                rank, found = _lookup(
                    keys, _packed(rank, digits[i:i + k], size + 1))
                lost |= ~found
                n_ranks, i = len(keys), i + k
            cls = np.where(lost, -1, rank)
            rounds.append(cls)
        cols = np.concatenate([c[c >= 0] + o
                               for c, o in zip(rounds, self.offsets)])
        return np.unique(cols, return_counts=True)

    def dot(self, g: LabeledGraph) -> np.ndarray:
        """Unnormalized kernel of every part against g."""
        return csc_dot(self.col_ptr, self.part, self.count, *self.columns(g),
                       len(self.norms))


def refine_union(indptr, indices, labels, sizes, iterations: int) -> WlUnion:
    """Color refinement of a disjoint union of graphs, all parts at once.

    The union is given in CSR form (indptr, indices over its nodes) with
    round-0 labels per node; sizes[p] is the node count of part p, parts
    being consecutive node ranges. Each round compresses every node's
    (own color, sorted neighbor colors) signature exactly, with sorts
    instead of a signature table: the color is extended by as many
    neighbor digits (color + 1, or 0 past the node's degree) as fit in an
    int64 key, and that key is replaced by its rank among the step's
    distinct keys, until every neighbor is consumed. This is the sorted-
    multiset relabeling of Shervashidze et al., "Weisfeiler-Lehman Graph
    Kernels" (JMLR 2011). Nodes get the same class exactly when
    WlColorTable would give them the same color, so each part's histogram
    equals WlColorTable's up to column order.
    """
    adj = _Adjacency(np.asarray(indptr, dtype=np.int64),
                     np.asarray(indices, dtype=np.int64))
    width = adj.width
    uniq_labels, cls = np.unique(np.asarray(labels, dtype=np.int64),
                                 return_inverse=True)
    n_classes = [len(uniq_labels)]
    rounds = [cls]
    all_steps = []
    for _ in range(iterations):
        size = n_classes[-1]
        digits = adj.digits(cls, size, width)
        rank, n_ranks, steps, i = cls, size, [], 0
        while i < width:
            k = _key_span(n_ranks, size + 1, width - i)
            keys, rank = np.unique(
                _packed(rank, digits[i:i + k], size + 1), return_inverse=True)
            steps.append(keys)
            n_ranks, i = len(keys), i + k
        cls = rank
        all_steps.append(steps)
        n_classes.append(n_ranks)
        rounds.append(cls)
    # (column, part) counts in CSC order, from column-major packed keys
    n_parts = len(sizes)
    offsets = np.cumsum([0] + n_classes)
    _key_span(int(offsets[-1]), n_parts, 1)
    part_of = np.repeat(np.arange(n_parts), sizes)
    keys, count = np.unique(
        np.concatenate([(c + o) * n_parts + part_of
                        for c, o in zip(rounds, offsets)]),
        return_counts=True)
    col = keys // n_parts
    part = keys - col * n_parts
    count = count.astype(np.float64)
    norms = np.sqrt(np.bincount(part, weights=count * count,
                                minlength=n_parts))
    return WlUnion(uniq_labels, rounds, all_steps, offsets, width,
                   np.searchsorted(col, np.arange(offsets[-1] + 1)), part,
                   count, norms)


def wl_indistinguishable(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True if color refinement can never separate the two graphs.

    Runs joint refinement until the color partition stabilizes and
    compares the color histograms. Once the histograms agree at the
    stable partition they agree at every later round as well.
    """
    base = _label_base((g1, g2))
    c1, c2 = list(g1.labels), list(g2.labels)
    nxt = base
    seen_colors = -1
    while True:
        if Counter(c1) != Counter(c2):
            return False
        distinct = len(set(c1) | set(c2))
        if distinct == seen_colors:
            return True
        seen_colors = distinct
        table = {}
        fresh = []
        for g, cols in ((g1, c1), (g2, c2)):
            new = []
            for v in range(g.num_nodes):
                sig = (cols[v], tuple(sorted(cols[u] for u in g.adj[v])))
                c = table.get(sig)
                if c is None:
                    c = nxt
                    nxt += 1
                    table[sig] = c
                new.append(c)
            fresh.append(new)
        c1, c2 = fresh
