"""Labeled undirected graphs and neighborhood utilities.

Graphs are stored as immutable adjacency lists over nodes 0..n-1 with one
integer label per node. Everything downstream (kernels, masks, ego
subgraphs) builds on this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, permutations
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    """Raised for structurally invalid graph inputs."""


class UnsupportedSizeError(GraphError):
    """Raised when an exact algorithm is asked for a graph above its size cap."""


@dataclass(frozen=True)
class LabelDictionary:
    """Finite alphabet of node labels 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise GraphError(f"label dictionary needs size >= 1, got {self.size}")

    def valid(self, label: int) -> bool:
        return 0 <= label < self.size


class LabeledGraph:
    """Undirected graph with integer node labels.

    Nodes are 0..num_nodes-1. Edges are deduplicated unordered pairs; self
    loops are rejected. Neighbor lists are kept sorted so that every
    traversal downstream is order-deterministic.
    """

    __slots__ = ("num_nodes", "edges", "labels", "adj")

    def __init__(self, num_nodes, edges, labels):
        if num_nodes < 0:
            raise GraphError(f"negative node count {num_nodes}")
        labels = tuple(int(x) for x in labels)
        if len(labels) != num_nodes:
            raise GraphError(
                f"got {len(labels)} labels for {num_nodes} nodes")
        if any(l < 0 for l in labels):
            raise GraphError("node labels must be non-negative")
        seen = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise GraphError(
                    f"edge ({a},{b}) out of range for {num_nodes} nodes")
            if a == b:
                raise GraphError(f"self-loop at node {a}")
            seen.add((a, b) if a < b else (b, a))
        self.num_nodes = num_nodes
        self.edges = tuple(sorted(seen))
        self.labels = labels
        nbrs = [[] for _ in range(num_nodes)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.adj = tuple(tuple(sorted(ns)) for ns in nbrs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.num_nodes else False

    def with_labels(self, labels) -> "LabeledGraph":
        """Same structure, new labels. Shares the adjacency arrays."""
        labels = tuple(int(x) for x in labels)
        if len(labels) != self.num_nodes:
            raise GraphError(
                f"got {len(labels)} labels for {self.num_nodes} nodes")
        if any(l < 0 for l in labels):
            raise GraphError("node labels must be non-negative")
        g = object.__new__(LabeledGraph)
        g.num_nodes = self.num_nodes
        g.edges = self.edges
        g.labels = labels
        g.adj = self.adj
        return g

    def permuted(self, perm) -> "LabeledGraph":
        """Relabel nodes by perm (old index -> new index)."""
        if sorted(perm) != list(range(self.num_nodes)):
            raise GraphError("perm is not a permutation of the node ids")
        new_labels = [0] * self.num_nodes
        for old, new in enumerate(perm):
            new_labels[new] = self.labels[old]
        new_edges = [(perm[a], perm[b]) for a, b in self.edges]
        return LabeledGraph(self.num_nodes, new_edges, new_labels)

    def __repr__(self):
        return (f"LabeledGraph(n={self.num_nodes}, m={self.num_edges}, "
                f"labels={list(self.labels)})")


@dataclass(frozen=True)
class EgoSubgraph:
    """Induced r-hop ball around a center node.

    `graph` uses local ids 0..k-1; `origin[i]` is the parent-graph id of
    local node i (sorted ascending), `center` is the local id of the ball's
    center.
    """

    graph: LabeledGraph
    origin: tuple
    center: int


def ego_subgraph(g: LabeledGraph, v: int, r: int) -> EgoSubgraph:
    """Induced subgraph on all nodes within distance r of v."""
    if not 0 <= v < g.num_nodes:
        raise GraphError(f"center {v} out of range")
    if r < 0:
        raise GraphError(f"negative radius {r}")
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            continue
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    origin = tuple(sorted(dist))
    local = {p: i for i, p in enumerate(origin)}
    edges = []
    for p in origin:
        lp = local[p]
        for w in g.adj[p]:
            if w > p and w in local:
                edges.append((lp, local[w]))
    sub = LabeledGraph(len(origin), edges, [g.labels[p] for p in origin])
    return EgoSubgraph(graph=sub, origin=origin, center=local[v])


class EgoBalls(NamedTuple):
    """The r-balls of a sequence of graphs as one block-diagonal union.

    There is one ball per node of the graphs laid end to end (graph by
    graph, node by node). Union nodes run ball by ball, each ball's nodes
    in ascending order of the node they copy, as in ``ego_subgraph``.
    int32 arrays.
    """

    degree: np.ndarray  # per union node
    nbrs: np.ndarray    # neighbor ids in the union, node by node, ascending
    origin: np.ndarray  # node each union node copies, in end-to-end ids
    sizes: np.ndarray   # node count per ball, in center order


def _ranges(lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The integer ranges [lo[i], lo[i] + span[i]) laid end to end."""
    return np.repeat(lo - np.cumsum(span) + span, span) \
        + np.arange(int(span.sum()))


def ego_balls(graphs, r: int) -> EgoBalls:
    """Induced r-balls around every node of every graph, in array passes.

    Reachability is r boolean sparse products over the CSR adjacency of
    the graphs' disjoint union. An edge of the base graph is kept in a
    ball when a searchsorted lookup finds both of its ends among the
    ball's nodes. Ball i equals ``ego_subgraph`` of the i-th node.
    """
    if r < 0:
        raise GraphError(f"negative radius {r}")
    graphs = list(graphs)
    deg = np.fromiter((len(ns) for g in graphs for ns in g.adj),
                      dtype=np.int64, count=sum(g.num_nodes for g in graphs))
    n = len(deg)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    node_off = np.cumsum([0] + [g.num_nodes for g in graphs])[:-1]
    indices = np.repeat(node_off, [2 * g.num_edges for g in graphs]) \
        + np.fromiter(chain.from_iterable(
            chain.from_iterable(g.adj) for g in graphs),
            dtype=np.int64, count=int(indptr[-1]))
    step = sp.csr_matrix((np.ones(len(indices), dtype=bool), indices, indptr),
                         shape=(n, n)) + sp.eye(n, dtype=bool, format="csr")
    reach = sp.eye(n, dtype=bool, format="csr")
    for _ in range(r):
        wider = reach @ step
        if wider.nnz == reach.nnz:  # every ball already spans its component
            break
        reach = wider
    reach.sort_indices()
    sizes = np.diff(reach.indptr)
    origin = reach.indices.astype(np.int64)
    ball = np.repeat(np.arange(n), sizes)
    # every base-graph neighbor of every ball node, as a (ball, node) key;
    # ball nodes are sorted by that key, so a hit's position is its id
    d = deg[origin]
    members = ball * n + origin
    cand = np.repeat(ball, d) * n + indices[_ranges(indptr[origin], d)]
    pos = np.minimum(np.searchsorted(members, cand), len(members) - 1)
    hit = members[pos] == cand
    owner = np.repeat(np.arange(len(origin)), d)
    return EgoBalls(
        degree=np.bincount(owner[hit], minlength=len(origin)).astype(np.int32),
        nbrs=pos[hit].astype(np.int32),
        origin=origin.astype(np.int32),
        sizes=sizes.astype(np.int32))


def connected_components(g: LabeledGraph):
    """Connected components as sorted node-id lists, largest first.

    Ties on size break toward the component with the smallest node id, so
    the result is a deterministic partition of 0..n-1.
    """
    seen = [False] * g.num_nodes
    comps = []
    for s in range(g.num_nodes):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def max_component_nodes(g: LabeledGraph):
    """Node ids of the largest connected component (smallest-id tie-break)."""
    if g.num_nodes == 0:
        raise GraphError("empty graph has no components")
    return connected_components(g)[0]


def induced_subgraph(g: LabeledGraph, nodes) -> LabeledGraph:
    nodes = sorted(set(nodes))
    local = {p: i for i, p in enumerate(nodes)}
    edges = []
    for p in nodes:
        for w in g.adj[p]:
            if w > p and w in local:
                edges.append((local[p], local[w]))
    return LabeledGraph(len(nodes), edges, [g.labels[p] for p in nodes])


def max_connected_component(g: LabeledGraph) -> LabeledGraph:
    """Largest connected component as a standalone graph."""
    return induced_subgraph(g, max_component_nodes(g))


_CANONICAL_CAP = 8


def graph_equal_canonical(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Exact label-preserving isomorphism test for graphs up to 8 nodes.

    Brute force over node permutations with cheap invariant pruning first.
    Only used in tests and small-mask comparisons, hence the size cap.
    """
    if g1.num_nodes > _CANONICAL_CAP or g2.num_nodes > _CANONICAL_CAP:
        raise UnsupportedSizeError(
            f"isomorphism test capped at {_CANONICAL_CAP} nodes")
    n = g1.num_nodes
    if n != g2.num_nodes or g1.num_edges != g2.num_edges:
        return False
    if sorted(g1.labels) != sorted(g2.labels):
        return False
    prof1 = sorted((g1.labels[v], g1.degree(v)) for v in range(n))
    prof2 = sorted((g2.labels[v], g2.degree(v)) for v in range(n))
    if prof1 != prof2:
        return False
    e2 = set(g2.edges)
    for perm in permutations(range(n)):
        if any(g2.labels[perm[v]] != g1.labels[v] for v in range(n)):
            continue
        ok = True
        for a, b in g1.edges:
            pa, pb = perm[a], perm[b]
            if ((pa, pb) if pa < pb else (pb, pa)) not in e2:
                ok = False
                break
        if ok:
            return True
    return False


def to_dot(g: LabeledGraph, name: str = "G", colors=None) -> str:
    """Graphviz DOT text for an undirected labeled graph.

    colors, if given, is one hex fill color per node.
    """
    if colors is not None and len(colors) != g.num_nodes:
        raise GraphError("need one color per node")
    lines = [f"graph {name} {{"]
    lines.append('  node [shape=circle];')
    for v in range(g.num_nodes):
        attrs = [f'label="{g.labels[v]}"']
        if colors is not None:
            attrs.append(f'fillcolor="{colors[v]}"')
            attrs.append('style=filled')
        lines.append(f'  v{v} [{", ".join(attrs)}];')
    for a, b in g.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# small named builders used by datasets, reports, and tests

def path_graph(n, labels=None) -> LabeledGraph:
    if n < 1:
        raise GraphError("path needs >= 1 node")
    edges = [(i, i + 1) for i in range(n - 1)]
    return LabeledGraph(n, edges, labels if labels is not None else [0] * n)


def cycle_graph(n, labels=None) -> LabeledGraph:
    if n < 3:
        raise GraphError("cycle needs >= 3 nodes")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return LabeledGraph(n, edges, labels if labels is not None else [0] * n)


def complete_graph(n, labels=None) -> LabeledGraph:
    if n < 1:
        raise GraphError("complete graph needs >= 1 node")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph(n, edges, labels if labels is not None else [0] * n)


def star_graph(leaves, labels=None) -> LabeledGraph:
    """Hub node 0 with `leaves` pendant nodes."""
    if leaves < 0:
        raise GraphError("negative leaf count")
    n = leaves + 1
    edges = [(0, i) for i in range(1, n)]
    return LabeledGraph(n, edges, labels if labels is not None else [0] * n)


def disjoint_union(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    off = g1.num_nodes
    edges = list(g1.edges) + [(a + off, b + off) for a, b in g2.edges]
    return LabeledGraph(off + g2.num_nodes, edges,
                        list(g1.labels) + list(g2.labels))
