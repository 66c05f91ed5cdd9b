"""Datasets: benchmark text format, synthetic motif corpora, splits.

The benchmark loader reads the common four-file text layout for graph
classification corpora: an edge list over globally numbered nodes
(1-based), a node-to-graph indicator, one class label per graph, and an
optional node label file. Node ids, class labels, and node labels are
all remapped to dense 0-based ranges in sorted order.
"""

from __future__ import annotations

import io
import urllib.request
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import (LabeledGraph, LabelDictionary, complete_graph,
                     cycle_graph, disjoint_union)

DOWNLOAD_URL = "https://www.chrsmrrs.com/graphkerneldatasets"


class DatasetError(ValueError):
    pass


class DatasetNotFoundError(DatasetError):
    """The requested corpus directory or files are absent."""


@dataclass
class GraphDataset:
    """A labeled graph classification corpus."""

    name: str
    graphs: list
    labels: list
    dictionary: LabelDictionary
    num_classes: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.graphs) != len(self.labels):
            raise DatasetError("one class label per graph required")
        if not self.graphs:
            raise DatasetError("empty dataset")
        if self.num_classes < 1:
            raise DatasetError("need at least one class")
        for i, (g, y) in enumerate(zip(self.graphs, self.labels)):
            if g.num_nodes == 0:
                raise DatasetError(f"graph {i} has no nodes")
            if not 0 <= int(y) < self.num_classes:
                raise DatasetError(f"graph {i}: class {y} out of range")
            if max(g.labels) >= self.dictionary.size:
                raise DatasetError(
                    f"graph {i}: node label outside dictionary "
                    f"of size {self.dictionary.size}")

    def __len__(self):
        return len(self.graphs)


def _read_rows(path: Path, what: str, parse):
    """parse of every non-blank line of path, stripped; the ValueError
    parse raises for a bad line is reported with the line number."""
    try:
        text = path.read_text()
    except OSError as e:
        raise DatasetError(f"cannot read {what} file {path}: {e}") from e
    out = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            try:
                out.append(parse(line.strip()))
            except ValueError as e:
                raise DatasetError(f"{path} line {ln}: {e}") from e
    return out


def _int_row(line):
    # attribute files may carry extra comma-separated columns; the first
    # column is the discrete label, an integer or integer-valued float
    try:
        value = float(line.split(",")[0])
    except ValueError:
        value = float("nan")
    if not value.is_integer():  # nor inf, nan or a fraction
        raise ValueError(f"expected an integer, got {line!r}")
    return int(value)


def _edge_row(line):
    parts = line.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'u, v', got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"non-integer endpoint in {line!r}") from None


def _dataset_dir(root, name: str) -> Path:
    root = Path(root)
    if (root / name / f"{name}_A.txt").exists():
        return root / name
    return root


def load_benchmark(root, name: str) -> GraphDataset:
    """Load a four-file text corpus from root/ or root/name/."""
    d = _dataset_dir(root, name)
    a_path = d / f"{name}_A.txt"
    if not a_path.exists():
        raise DatasetNotFoundError(
            f"dataset {name!r} not found under {Path(root)} "
            f"(missing {a_path})")
    indicator = _read_rows(d / f"{name}_graph_indicator.txt",
                           "graph indicator", _int_row)
    graph_labels_raw = _read_rows(d / f"{name}_graph_labels.txt",
                                  "graph labels", _int_row)
    edges = _read_rows(a_path, "edge", _edge_row)
    n_nodes = len(indicator)
    n_graphs = len(graph_labels_raw)
    gids = sorted(set(indicator))
    if len(gids) != n_graphs:
        raise DatasetError(
            f"{name}: indicator names {len(gids)} graphs but there are "
            f"{n_graphs} graph labels")
    gid_map = {g: i for i, g in enumerate(gids)}

    node_label_path = d / f"{name}_node_labels.txt"
    if node_label_path.exists():
        node_labels_raw = _read_rows(node_label_path, "node labels", _int_row)
        if len(node_labels_raw) != n_nodes:
            raise DatasetError(
                f"{name}: {len(node_labels_raw)} node labels for "
                f"{n_nodes} nodes")
        alphabet = sorted(set(node_labels_raw))
        lab_map = {l: i for i, l in enumerate(alphabet)}
        node_labels = [lab_map[l] for l in node_labels_raw]
        dictionary = LabelDictionary(len(alphabet))
    else:
        node_labels = [0] * n_nodes
        dictionary = LabelDictionary(1)

    # global node id (1-based) -> (graph, local id)
    local_of = [None] * n_nodes
    counts = [0] * n_graphs
    for node, gid in enumerate(indicator):
        gi = gid_map.get(gid)
        local_of[node] = (gi, counts[gi])
        counts[gi] += 1
    if min(counts) == 0:
        empty = counts.index(0)
        raise DatasetError(f"{name}: graph {gids[empty]} has no nodes")

    per_graph_edges = [set() for _ in range(n_graphs)]
    seen_directed = set()
    loops = 0
    dupes = 0
    for u, v in edges:
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise DatasetError(
                f"{name}: edge ({u},{v}) references unknown nodes")
        gu, lu = local_of[u - 1]
        gv, lv = local_of[v - 1]
        if gu != gv:
            raise DatasetError(
                f"{name}: edge ({u},{v}) crosses graphs {gids[gu]} "
                f"and {gids[gv]}")
        if lu == lv:
            loops += 1
            continue
        # files list undirected edges once per direction; only a repeat
        # of the same directed pair counts as a duplicate
        if (u, v) in seen_directed:
            dupes += 1
            continue
        seen_directed.add((u, v))
        per_graph_edges[gu].add((lu, lv) if lu < lv else (lv, lu))
    if loops or dupes:
        warnings.warn(
            f"{name}: dropped {loops} self-loops and {dupes} duplicate "
            f"edges (undirected reading)")

    per_graph_labels = [[] for _ in range(n_graphs)]
    for node, gid in enumerate(indicator):
        per_graph_labels[gid_map[gid]].append(node_labels[node])

    classes = sorted(set(graph_labels_raw))
    cls_map = {c: i for i, c in enumerate(classes)}
    graphs = [LabeledGraph(counts[i], sorted(per_graph_edges[i]),
                           per_graph_labels[i]) for i in range(n_graphs)]
    return GraphDataset(name=name, graphs=graphs,
                        labels=[cls_map[c] for c in graph_labels_raw],
                        dictionary=dictionary, num_classes=len(classes),
                        extras={"source": str(d)})


def save_benchmark(ds: GraphDataset, root) -> Path:
    """Write a dataset back out in the four-file text layout."""
    d = Path(root) / ds.name
    d.mkdir(parents=True, exist_ok=True)
    a_lines = []
    ind_lines = []
    node_lines = []
    base = 1
    for gi, g in enumerate(ds.graphs):
        for u, v in g.edges:
            a_lines.append(f"{base + u}, {base + v}")
            a_lines.append(f"{base + v}, {base + u}")
        ind_lines.extend([str(gi + 1)] * g.num_nodes)
        node_lines.extend(str(l) for l in g.labels)
        base += g.num_nodes
    (d / f"{ds.name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (d / f"{ds.name}_graph_indicator.txt").write_text(
        "\n".join(ind_lines) + "\n")
    (d / f"{ds.name}_graph_labels.txt").write_text(
        "\n".join(str(y) for y in ds.labels) + "\n")
    (d / f"{ds.name}_node_labels.txt").write_text(
        "\n".join(node_lines) + "\n")
    meta = _meta_lines(ds)
    if meta:
        (d / f"{ds.name}_meta.txt").write_text("\n".join(meta) + "\n")
    return d


def _meta_lines(ds: GraphDataset):
    """key=value sidecar for synthetic corpora: generator seed, motif
    spec, and which nodes of each positive graph carry the motif."""
    spec = ds.extras.get("motif")
    pairs = ds.extras.get("pairs")
    if spec is None or pairs is None:
        return []
    lines = [f"name={ds.name}", f"count={len(ds)}",
             f"motif_kind={spec.kind}", f"motif_size={spec.size}",
             f"motif_cols={spec.cols}"]
    if "seed" in ds.extras:
        lines.append(f"seed={ds.extras['seed']}")
    for pair in pairs:
        nodes = ",".join(str(v) for v in pair["motif_nodes"])
        lines.append(f"graph{pair['pos']}_motif_nodes={nodes}")
    return lines


def fetch_benchmark(name: str, root) -> Path:
    """Download and unpack a benchmark zip into root/name/.

    Needs outbound network access; on sandboxed machines download the
    zip elsewhere and unpack it under root/ by hand instead.
    """
    target = Path(root)
    target.mkdir(parents=True, exist_ok=True)
    full = f"{DOWNLOAD_URL}/{name}.zip"
    try:
        with urllib.request.urlopen(full, timeout=60) as resp:
            payload = resp.read()
    except Exception as e:
        raise DatasetError(
            f"could not download {full}: {e}. If this machine has no "
            f"outbound network, fetch the zip manually and unpack it "
            f"under {target}/") from e
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        for member in zf.namelist():
            mp = Path(member)
            if mp.suffix == ".txt" and not mp.name.startswith("."):
                out = target / name / mp.name
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_bytes(zf.read(member))
    return target / name


# ---------------------------------------------------------------------------
# synthetic corpora

MOTIF_KINDS = ("ring", "wheel", "grid", "ladder", "cliques")
# motif corpora: node budget per graph, background edge probability and
# the chance that a background node is wired to the planted core
N_LO, N_HI = 30, 50
P_BACKGROUND, P_ATTACH = 0.1, 0.02


@dataclass(frozen=True)
class MotifSpec:
    """Which structural motif positive graphs carry.

    size is the primary dimension (cycle length, clique size, grid rows,
    ladder length); cols applies to grids only, 0 meaning square.
    """

    kind: str
    size: int
    cols: int = 0

    def __post_init__(self):
        if self.kind not in MOTIF_KINDS:
            raise DatasetError(f"unknown motif kind {self.kind!r}")
        mins = {"ring": 3, "wheel": 3, "grid": 2, "ladder": 2, "cliques": 2}
        if self.size < mins[self.kind]:
            raise DatasetError(
                f"{self.kind} motif needs size >= {mins[self.kind]}")
        if self.kind == "grid" and self.cols and self.cols < 2:
            raise DatasetError("grid needs >= 2 columns")


def make_motif(spec: MotifSpec) -> LabeledGraph:
    """The motif graph itself, unlabeled (all node labels 0)."""
    k = spec.size
    if spec.kind == "ring":
        return cycle_graph(k)
    if spec.kind == "wheel":
        edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
        return LabeledGraph(k + 1, edges, [0] * (k + 1))
    if spec.kind == "grid":
        rows, cols = k, spec.cols or k
        edges = []
        for i in range(rows):
            for j in range(cols):
                n = i * cols + j
                if j + 1 < cols:
                    edges.append((n, n + 1))
                if i + 1 < rows:
                    edges.append((n, n + cols))
        return LabeledGraph(rows * cols, edges, [0] * (rows * cols))
    if spec.kind == "ladder":
        edges = [(i, i + k) for i in range(k)]
        edges += [(i, i + 1) for i in range(k - 1)]
        edges += [(k + i, k + i + 1) for i in range(k - 1)]
        return LabeledGraph(2 * k, edges, [0] * (2 * k))
    # two cliques joined by a single bridge edge
    g = disjoint_union(complete_graph(k), complete_graph(k))
    return LabeledGraph(g.num_nodes, list(g.edges) + [(0, k)], g.labels)


def _er_edges(n: int, p: float, rng: np.random.Generator):
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def _random_edge_set(n: int, m: int, rng: np.random.Generator):
    """Exactly m distinct edges drawn uniformly over all n-node pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(pairs):
        raise DatasetError(f"cannot place {m} edges on {n} nodes")
    idx = rng.choice(len(pairs), size=m, replace=False)
    return [pairs[int(i)] for i in idx]


def generate_motif_dataset(spec: MotifSpec, count: int,
                           rng: np.random.Generator) -> GraphDataset:
    """Balanced motif detection corpus built from positive/negative pairs,
    named synth_<kind><size>.

    Each pair draws one total node budget (uniform in [N_LO, N_HI]) and
    one shared background graph (edge probability P_BACKGROUND). The
    positive graph plants the motif and wires each background node, with
    probability P_ATTACH, to one uniformly drawn core node; the negative
    graph plants a random same-size impostor (same node and edge count
    as the motif), wired the same way. Most cores therefore stay loosely
    attached or detached, which keeps their ego subgraphs clean enough
    for masks to lock onto. All node labels are 0; the class is 1
    exactly when the motif is present.
    """
    if count < 2 or count % 2:
        raise DatasetError("count must be a positive even number")
    motif = make_motif(spec)
    k = motif.num_nodes
    if k + 1 > N_LO:
        raise DatasetError(f"motif has {k} nodes, too many for the "
                           f"{N_LO}-{N_HI} node budget")
    graphs = []
    labels = []
    pairs_meta = []
    for pair in range(count // 2):
        total = int(rng.integers(N_LO, N_HI + 1))
        b = total - k
        background = _er_edges(b, P_BACKGROUND, rng)

        def build(core: LabeledGraph):
            edges = list(core.edges)
            edges += [(k + u, k + v) for u, v in background]
            for bnode in range(b):
                if rng.random() < P_ATTACH:
                    edges.append((int(rng.integers(k)), k + bnode))
            return LabeledGraph(k + b, edges, [0] * (k + b))

        pos = build(motif)
        imp = LabeledGraph(k, _random_edge_set(k, motif.num_edges, rng),
                           [0] * k)
        neg = build(imp)
        pairs_meta.append({
            "pos": len(graphs), "neg": len(graphs) + 1,
            "background_edges": tuple(background),
            "motif_nodes": tuple(range(k)), "total_nodes": total})
        graphs.extend([pos, neg])
        labels.extend([1, 0])
    return GraphDataset(
        name=f"synth_{spec.kind}{spec.size}",
        graphs=graphs, labels=labels, dictionary=LabelDictionary(1),
        num_classes=2,
        extras={"motif": spec, "pairs": pairs_meta})


def generate_triangle_cycle_dataset(count: int,
                                    rng: np.random.Generator) -> GraphDataset:
    """Toy corpus of two disjoint triangles (class 0) vs one six-cycle
    (class 1); a coin flip decorates each with one pendant node. Refined
    node colors cannot tell the two cores apart, kernel responses against
    a triangle mask can."""
    if count < 2 or count % 2:
        raise DatasetError("count must be a positive even number")
    graphs = []
    labels = []
    for i in range(count):
        cls = i % 2
        core = cycle_graph(6) if cls else disjoint_union(cycle_graph(3),
                                                         cycle_graph(3))
        if rng.random() < 0.5:
            attach = int(rng.integers(core.num_nodes))
            core = LabeledGraph(core.num_nodes + 1,
                                list(core.edges) + [(attach, core.num_nodes)],
                                [0] * (core.num_nodes + 1))
        graphs.append(core)
        labels.append(cls)
    return GraphDataset(name="triangle_cycle", graphs=graphs, labels=labels,
                        dictionary=LabelDictionary(1), num_classes=2)


# ---------------------------------------------------------------------------
# splits

@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple

    def __post_init__(self):
        a, b, c = set(self.train), set(self.val), set(self.test)
        if (a & b) or (a & c) or (b & c):
            raise DatasetError("split parts overlap")
        if not self.train or not self.test:
            raise DatasetError("train and test parts must be non-empty")


def _by_class(ds: GraphDataset):
    out = [[] for _ in range(ds.num_classes)]
    for i, y in enumerate(ds.labels):
        out[int(y)].append(i)
    return out


def _allocate(counts, total):
    """Proportional integer allocation by largest remainder; remainder
    ties break toward the smaller class index."""
    whole = sum(counts)
    if whole == 0 or total == 0:
        return [0] * len(counts)
    quota = [c * total / whole for c in counts]
    base = [min(int(q), c) for q, c in zip(quota, counts)]
    rem = total - sum(base)
    order = sorted(range(len(counts)),
                   key=lambda i: (-(quota[i] - base[i]), i))
    j = 0
    while rem > 0 and j < len(order):
        i = order[j]
        if base[i] < counts[i]:
            base[i] += 1
            rem -= 1
        j += 1
    return base


def split_kfold(ds: GraphDataset, folds: int,
                rng: np.random.Generator) -> list:
    """Stratified k-fold splits whose test parts partition the dataset.

    Within each fold the remaining graphs are re-split 9:1 (stratified)
    into train and validation.
    """
    if folds < 2:
        raise DatasetError("need >= 2 folds")
    if len(ds) < folds:
        raise DatasetError(f"{len(ds)} graphs cannot fill {folds} folds")
    per_class = _by_class(ds)
    shuffled = []
    for cls, idxs in enumerate(per_class):
        if 0 < len(idxs) < folds:
            warnings.warn(
                f"class {cls} has {len(idxs)} graphs, fewer than "
                f"{folds} folds; its stratification is partial")
        arr = np.array(idxs, dtype=np.int64)
        rng.shuffle(arr)
        shuffled.append(arr)
    splits = []
    for f in range(folds):
        test = sorted(int(i) for arr in shuffled for i in arr[f::folds])
        test_set = set(test)
        tv_class = [[int(i) for i in arr if int(i) not in test_set]
                    for arr in shuffled]
        total_val = max(1, sum(len(t) for t in tv_class) // 10)
        val_counts = _allocate([len(t) for t in tv_class], total_val)
        val = []
        train = []
        for idxs, vc in zip(tv_class, val_counts):
            order = np.array(idxs, dtype=np.int64)
            rng.shuffle(order)
            val.extend(int(i) for i in order[:vc])
            train.extend(int(i) for i in order[vc:])
        splits.append(Split(train=tuple(sorted(train)),
                            val=tuple(sorted(val)),
                            test=tuple(sorted(test))))
    return splits


def split_holdout(ds: GraphDataset, rng: np.random.Generator) -> Split:
    """One stratified 80/10/10 train/val/test split: val and test each
    take a tenth of the corpus, and at least one graph."""
    part = max(1, round(len(ds) * 0.1))
    per_class = _by_class(ds)
    counts = [len(c) for c in per_class]
    test_counts = _allocate(counts, part)
    val_counts = _allocate([c - t for c, t in zip(counts, test_counts)],
                           part)
    train, val, test = [], [], []
    for idxs, tc, vc in zip(per_class, test_counts, val_counts):
        order = np.array(idxs, dtype=np.int64)
        rng.shuffle(order)
        test.extend(int(i) for i in order[:tc])
        val.extend(int(i) for i in order[tc:tc + vc])
        train.extend(int(i) for i in order[tc + vc:])
    return Split(train=tuple(sorted(train)), val=tuple(sorted(val)),
                 test=tuple(sorted(test)))


def take(ds: GraphDataset, indices):
    """Graphs and class labels at the given indices."""
    return [ds.graphs[i] for i in indices], [ds.labels[i] for i in indices]
