"""Graph kernels over labeled graphs.

Two kernels are provided behind one config type, and ``kernel_matrix``
is the one evaluator of both for lists of graphs; the value of one pair
is ``kernel_matrix(cfg, [g1], [g2])[0, 0]``.

* ``wl_subtree`` counts matching rooted subtree patterns via iterative
  color refinement. A signature (own color, sorted multiset of neighbor
  colors) is mapped to a compressed color id through a WlColorTable; the
  kernel is the dot product of the combined color histograms over
  refinement rounds 0..h. ``kernel_matrix`` refines all its graphs with
  one table. ``refine_union`` refines a whole disjoint union of graphs
  in array passes instead, which is how the forward engine scores ego
  balls in batches.
* ``graphlet3`` counts induced connected 3-node subgraphs (triangles and
  paths) and takes the dot product of the two count vectors. Node labels
  are ignored. ``graphlet3_union`` counts every part of a disjoint union
  at once from degrees and (A A) o A, the array counting of Shervashidze
  et al., "Efficient graphlet kernels for large graph comparison"
  (AISTATS 2009).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .graphs import LabeledGraph, _ranges

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

    def union_colors(self, union: "WlUnion", indptr, indices,
                     d: int) -> np.ndarray:
        """This table's color of every column of a refined union, given
        the union's CSR adjacency, or -1 for a color no graph of at most
        d nodes can hold. A class's signature is read off one of its
        nodes and interned once, so union histograms and this table's
        histograms share color ids. It is interned only if its degree is
        below d and its own and neighbor colors were; labels always are."""
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
            col = np.full(len(rep), -1, dtype=np.int64)
            deg = indptr[rep + 1] - indptr[rep]
            live = np.flatnonzero((deg < d) & (node_color[rep] >= 0))
            nb = node_color[indices[_ranges(indptr[rep[live]], deg[live])]]
            owner = np.repeat(np.arange(len(live)), deg[live])
            nb = nb[np.lexsort((nb, owner))]  # owner stays in order
            ok = np.bincount(owner[nb < 0], minlength=len(live)) == 0
            live, nb = live[ok], nb[ok[owner]]
            flat, ends = nb.tolist(), np.cumsum(deg[live]).tolist()
            col[live] = self.intern(t, [
                (own, tuple(flat[a:b])) for own, a, b in
                zip(node_color[rep[live]].tolist(), [0] + ends[:-1], ends)])
            colors.append(col)
            node_color = col[cls]
        return np.concatenate(colors)

    def histogram(self, g: LabeledGraph) -> Counter:
        """Combined color histogram over rounds 0..h."""
        return self.refine(g)[1]


def _label_base(graphs) -> int:
    base = 1
    for g in graphs:
        if g.num_nodes:
            base = max(base, max(g.labels) + 1)
    return base


def graphlet3_vector(g: LabeledGraph) -> np.ndarray:
    """Counts of induced connected 3-node subgraphs: [triangles, paths]."""
    tri = 0
    nbr = [set(ns) for ns in g.adj]
    for a, b in g.edges:
        # every triangle is counted once per edge, i.e. three times total
        tri += len(nbr[a] & nbr[b])
    tri //= 3
    wedges = sum(d * (d - 1) // 2 for d in map(len, g.adj))
    return np.array([tri, wedges - 3 * tri], dtype=np.float64)


def graphlet3_union(indptr, indices, sizes) -> np.ndarray:
    """``graphlet3_vector`` of every part of a disjoint union given as in
    ``refine_union``, (parts, 2). A node centres d(d - 1)/2 wedges, and
    its row of (A A) o A sums to twice its triangles; per part, triangles
    are the row-sum total over 6 and induced paths are wedges minus 3
    triangles. The float64 sums hold exact integers."""
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    adj = sp.csr_matrix((np.ones(indptr[-1], dtype=np.int64), indices,
                         indptr), shape=(n, n))
    closed = adj.multiply(adj @ adj).tocsr()
    deg = np.diff(indptr)
    part = np.repeat(np.arange(len(sizes)), sizes)
    tri = np.bincount(np.repeat(part, np.diff(closed.indptr)), closed.data,
                      len(sizes)) // 6
    wedges = np.bincount(part, deg * (deg - 1) // 2, len(sizes))
    return np.column_stack((tri, wedges - 3 * tri))


def safe_norms(norms) -> np.ndarray:
    """norms to divide the kernel's dot products by, 0 read as 1: a zero
    count vector's dot products are +0.0 already, so an empty histogram
    scores 0 against everything instead of NaN."""
    return np.where(norms > 0, norms, 1.0)


def kernel_matrix(cfg: KernelConfig, left, right) -> np.ndarray:
    """All-pairs kernel values, shape (len(left), len(right)).

    Every graph of left + right becomes one row of a feature matrix: for
    wl_subtree its combined color histogram under one WlColorTable that
    refines them all, as a CSR row whose columns are the color ids; for
    graphlet3 its count vector. The kernel is the left rows times the
    right rows, normalized by the rows' Euclidean norms. When right is
    left, the Gram matrix, each graph gets one row that serves both sides.
    """
    gram = right is left
    left = list(left)
    right = left if gram else list(right)
    n = len(left)
    if not left or not right:
        return np.zeros((n, len(right)), dtype=np.float64)
    graphs = left if gram else left + right
    k = 0 if gram else n  # the first row of right
    if cfg.kind == WL_SUBTREE:
        table = WlColorTable(_label_base(graphs), cfg.wl_iterations)
        hists = [table.histogram(g) for g in graphs]
        sizes = [len(h) for h in hists]
        counts = np.fromiter(chain.from_iterable(h.values() for h in hists),
                             dtype=np.float64, count=sum(sizes))
        rows = sp.csr_matrix(
            (counts, np.fromiter(chain.from_iterable(hists), dtype=np.int64,
                                 count=len(counts)), np.cumsum([0] + sizes)),
            shape=(len(graphs), table._next))
        sq = np.bincount(np.repeat(np.arange(len(graphs)), sizes),
                         counts * counts, len(graphs))
        out = (rows[:n] @ rows[k:].T).toarray()
    else:
        rows = np.stack([graphlet3_vector(g) for g in graphs])
        sq = (rows * rows).sum(axis=1)
        out = rows[:n] @ rows[k:].T
    if cfg.normalized:
        norms = safe_norms(np.sqrt(sq))
        out /= np.outer(norms[:n], norms[k:])
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


def _packed(rank: np.ndarray, digits, base: int, k: int) -> np.ndarray:
    """rank * base**k + k digits, one int64 key per column: the rows of
    `digits`, most significant first, then zeros up to k."""
    key = np.array(rank, dtype=np.int64)
    for d in digits:
        key *= base
        key += d
    if len(digits) < k:
        key *= base ** (k - len(digits))
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

    def digits(self, colors: np.ndarray, n_colors: int) -> np.ndarray:
        """(width, n) digits: row i holds every node's i-th smallest
        neighbor color plus one, and 0 past the node's degree. Every
        color is in [0, n_colors)."""
        _key_span(self.n, n_colors, 1)  # row * n_colors + color fits
        shift = self.row * n_colors
        key = np.sort(shift + colors[self.indices])
        out = np.zeros((self.width, self.n), dtype=np.int64)
        out.reshape(-1)[self.cell] = key - shift + 1
        return out


def _adjacency_of(graphs) -> _Adjacency:
    """The adjacency of the graphs' disjoint union, graph after graph."""
    adj = list(chain.from_iterable(g.adj for g in graphs))
    deg = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
    indptr = np.concatenate(([0], np.cumsum(deg)))
    node_off = np.cumsum([0] + [g.num_nodes for g in graphs])[:-1]
    return _Adjacency(indptr, np.repeat(
        node_off, [2 * g.num_edges for g in graphs]) + np.fromiter(
        chain.from_iterable(adj), dtype=np.int64, count=int(indptr[-1])))


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
    pos = np.minimum(keys.searchsorted(key), len(keys) - 1)
    return pos, keys[pos] == key


class WlUnion:
    """Subtree-kernel histograms of the parts of one refined disjoint union.

    Built by ``refine_union``. Colors are dense class ranks per round,
    and the classes of all rounds are laid end to end as columns, round t
    taking columns offsets[t] to offsets[t + 1]. ``labels`` is the sorted
    set of round-0 labels, ``rounds[t]`` every node's class after round
    t, ``steps[t]`` the (neighbor digits taken, sorted key set) of each
    compression step of round t + 1 and ``width`` the union's largest
    degree. ``col_ptr``/``part``/``count`` hold the (column, part) counts
    in CSC form and ``norms`` the parts' histogram norms.
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

    def columns(self, graphs) -> list:
        """Each graph's color histogram on the union's columns: (column
        ids, counts) per graph. The graphs are refined as one disjoint
        union against the union's compression tables; a node's class
        depends on its own neighborhood only, so each graph gets the
        histogram it would get alone. A color the union never produced
        matches no column and is left out, along with every color
        refined from it."""
        graphs = list(graphs)
        adj = _adjacency_of(graphs)
        cls, found = _lookup(self.labels, np.fromiter(
            chain.from_iterable(g.labels for g in graphs), dtype=np.int64,
            count=adj.n))
        cls[~found] = -1
        rounds = [cls]
        wide = adj.deg > self.width
        for t, steps in enumerate(self.steps):
            size = int(self.offsets[t + 1] - self.offsets[t])
            lost = (cls < 0) | wide
            lost[adj.row[cls[adj.indices] < 0]] = True
            rank = np.maximum(cls, 0)
            # the digits past the graphs' own largest degree are zeros
            digits, i = adj.digits(rank, size), 0
            for k, keys in steps:
                rank, found = _lookup(
                    keys, _packed(rank, digits[i:i + k], size + 1, k))
                lost |= ~found
                i += k
            cls = np.where(lost, -1, rank)
            rounds.append(cls)
        # (graph, column) keys, graph-major, so each graph's run is sorted
        n_cols = max(int(self.offsets[-1]), 1)
        _key_span(len(graphs), n_cols, 1)
        graph_key = np.repeat(np.arange(len(graphs)) * n_cols,
                              [g.num_nodes for g in graphs])
        keys, counts = np.unique(np.concatenate(
            [(c + o + graph_key)[c >= 0]
             for c, o in zip(rounds, self.offsets)]), return_counts=True)
        ends = keys.searchsorted(
            np.arange(len(graphs) + 1) * n_cols).tolist()
        cols = keys % n_cols
        return [(cols[a:b], counts[a:b]) for a, b in zip(ends, ends[1:])]

    def dot(self, graphs) -> np.ndarray:
        """Unnormalized kernel of every part against each graph, (parts,
        graphs)."""
        return np.column_stack(
            [csc_dot(self.col_ptr, self.part, self.count, cols, counts,
                     len(self.norms))
             for cols, counts in self.columns(graphs)])


def refine_union(indptr, indices, labels, sizes, iterations: int) -> WlUnion:
    """Color refinement of a disjoint union of graphs, all parts at once.

    The union is given in CSR form (indptr, indices over its nodes) with
    round-0 labels per node; sizes[p] is the node count of part p, parts
    being consecutive node ranges. Each round compresses every node's
    (own color, sorted neighbor colors) signature exactly, with sorts
    instead of a signature table: the color is extended by as many
    neighbor digits (color + 1, or 0 past the node's degree) as fit in an
    int64 key, and that key gives way to its rank among the step's
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
        digits = adj.digits(cls, size)
        rank, n_ranks, steps, i = cls, size, [], 0
        while i < width:
            k = _key_span(n_ranks, size + 1, width - i)
            keys, rank = np.unique(
                _packed(rank, digits[i:i + k], size + 1, k),
                return_inverse=True)
            steps.append((k, keys))
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

    Refines both graphs with one shared color table for n1 + n2 rounds
    and compares the color histograms of every round. The joint color
    partition gains a class in every round until it is stable, so it is
    stable by then, and histograms that agree at the stable partition
    agree at every later round as well.
    """
    table = WlColorTable(_label_base((g1, g2)),
                         g1.num_nodes + g2.num_nodes)
    rounds1, rounds2 = table.refine(g1)[0], table.refine(g2)[0]
    return all(Counter(c1) == Counter(c2)
               for c1, c2 in zip(rounds1, rounds2))
