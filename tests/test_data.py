"""Benchmark text I/O, synthetic corpora, and split handling."""

import re
import warnings

import networkx as nx
import numpy as np
import pytest

from gkconv.data import (DatasetError, DatasetNotFoundError, GraphDataset,
                         MotifSpec, Split, _allocate,
                         generate_motif_dataset,
                         generate_triangle_cycle_dataset, load_benchmark,
                         make_motif, save_benchmark, split_holdout,
                         split_kfold, take)
from gkconv.graphs import LabelDictionary, LabeledGraph
from conftest import to_nx


def write_corpus(root, name, a, ind, ylab, nlab=None):
    d = root / name
    d.mkdir()
    (d / f"{name}_A.txt").write_text("\n".join(a) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(ind) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(ylab) + "\n")
    if nlab is not None:
        (d / f"{name}_node_labels.txt").write_text("\n".join(nlab) + "\n")
    return d


def tiny_corpus(root, **kw):
    """Triangle plus a single edge, with sparse ids everywhere."""
    args = dict(
        a=["1, 2", "2, 1", "1, 3", "3, 1", "2, 3", "3, 2", "4, 5", "5, 4"],
        ind=["2", "2", "2", "5", "5"],
        ylab=["1", "-1"],
        nlab=["7", "7", "3", "7", "3"])
    args.update(kw)
    return write_corpus(root, "tiny", **args)


def test_load_remaps_everything_to_dense_ranges(tmp_path):
    tiny_corpus(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean file must load silently
        ds = load_benchmark(tmp_path, "tiny")
    assert len(ds) == 2 and ds.num_classes == 2
    assert ds.labels == [1, 0]  # classes sorted: -1 -> 0, 1 -> 1
    tri, edge = ds.graphs
    assert tri.num_nodes == 3 and tri.edges == ((0, 1), (0, 2), (1, 2))
    assert edge.num_nodes == 2 and edge.edges == ((0, 1),)
    assert ds.dictionary.size == 2
    assert tri.labels == (1, 1, 0) and edge.labels == (1, 0)


def test_load_without_node_labels_gives_unit_dictionary(tmp_path):
    tiny_corpus(tmp_path, nlab=None)
    ds = load_benchmark(tmp_path, "tiny")
    assert ds.dictionary.size == 1
    assert all(set(g.labels) == {0} for g in ds.graphs)


def test_load_accepts_floatish_and_multicolumn_labels(tmp_path):
    tiny_corpus(tmp_path, ylab=["1.0", "-1.0"],
                nlab=["7, 0.25", "7, 0.5", "3, 0.1", "7, 0.9", "3, 0.0"])
    ds = load_benchmark(tmp_path, "tiny")
    assert ds.labels == [1, 0]
    assert ds.graphs[0].labels == (1, 1, 0)


def test_load_from_flat_root_directory(tmp_path):
    d = tiny_corpus(tmp_path)
    ds = load_benchmark(d, "tiny")  # files directly under root works too
    assert len(ds) == 2


def test_load_warns_once_about_loops_and_duplicates(tmp_path):
    tiny_corpus(tmp_path, a=["1, 2", "2, 1", "1, 3", "2, 3", "3, 3",
                             "1, 2", "4, 5"])
    with pytest.warns(UserWarning, match="1 self-loops and 1 duplicate"):
        ds = load_benchmark(tmp_path, "tiny")
    assert ds.graphs[0].edges == ((0, 1), (0, 2), (1, 2))


def test_load_missing_dataset(tmp_path):
    with pytest.raises(DatasetNotFoundError, match="not found"):
        load_benchmark(tmp_path, "nope")


def test_load_error_cases(tmp_path):
    tiny_corpus(tmp_path, a=["1, 4"])
    with pytest.raises(DatasetError, match="crosses graphs 2 and 5"):
        load_benchmark(tmp_path, "tiny")

    (tmp_path / "tiny" / "tiny_A.txt").write_text("1, 9\n")
    with pytest.raises(DatasetError, match="unknown nodes"):
        load_benchmark(tmp_path, "tiny")

    (tmp_path / "tiny" / "tiny_A.txt").write_text("1 2\n")
    with pytest.raises(DatasetError, match="expected 'u, v'"):
        load_benchmark(tmp_path, "tiny")

    (tmp_path / "tiny" / "tiny_A.txt").write_text("a, b\n")
    with pytest.raises(DatasetError, match="non-integer endpoint"):
        load_benchmark(tmp_path, "tiny")


def test_load_count_mismatches(tmp_path):
    tiny_corpus(tmp_path, ylab=["1", "-1", "1"])
    with pytest.raises(DatasetError, match="2 graphs but there are 3"):
        load_benchmark(tmp_path, "tiny")
    (tmp_path / "tiny" / "tiny_graph_labels.txt").write_text("1\n-1\n")
    (tmp_path / "tiny" / "tiny_node_labels.txt").write_text("7\n3\n")
    with pytest.raises(DatasetError, match="2 node labels for 5"):
        load_benchmark(tmp_path, "tiny")


def test_load_rejects_garbage_label_lines(tmp_path):
    tiny_corpus(tmp_path, ylab=["1", "x"])
    with pytest.raises(DatasetError, match="expected an integer"):
        load_benchmark(tmp_path, "tiny")
    (tmp_path / "tiny" / "tiny_graph_labels.txt").write_text("1\ninf\n")
    with pytest.raises(DatasetError, match="expected an integer, got 'inf'"):
        load_benchmark(tmp_path, "tiny")


def test_load_accepts_integer_valued_fields_only(tmp_path):
    tiny_corpus(tmp_path, ylab=["1e0", "-1"],
                ind=["2", "2.0", "2", "5e0", "5"],
                nlab=["7.0, 1.5", "7", "3", "7e0", "3.000"])
    ds = load_benchmark(tmp_path, "tiny")
    assert ds.labels == [1, 0]
    assert [g.labels for g in ds.graphs] == [(1, 1, 0), (1, 0)]


@pytest.mark.parametrize("kind,field", [
    ("graph_labels", "ylab"), ("graph_indicator", "ind"),
    ("node_labels", "nlab")])
def test_load_rejects_fractional_fields(tmp_path, kind, field):
    # 1.7 read as 1 would merge two classes, graphs or node labels
    good = dict(ylab=["1", "-1"], ind=["2", "2", "2", "5", "5"],
                nlab=["7", "7", "3", "7", "3"])[field]
    tiny_corpus(tmp_path, **{field: good[:1] + ["1.7"] + good[2:]})
    path = tmp_path / "tiny" / f"tiny_{kind}.txt"
    with pytest.raises(DatasetError, match=re.escape(
            f"{path} line 2: expected an integer, got '1.7'")):
        load_benchmark(tmp_path, "tiny")


def test_dataset_validation():
    g = LabeledGraph(1, [], [0])
    with pytest.raises(DatasetError, match="one class label per graph"):
        GraphDataset("d", [g, g], [0], LabelDictionary(1), 1)
    with pytest.raises(DatasetError, match="empty"):
        GraphDataset("d", [], [], LabelDictionary(1), 1)
    with pytest.raises(DatasetError, match="out of range"):
        GraphDataset("d", [g], [2], LabelDictionary(1), 2)
    with pytest.raises(DatasetError, match="outside dictionary"):
        GraphDataset("d", [LabeledGraph(1, [], [3])], [0],
                     LabelDictionary(2), 1)


def test_save_load_roundtrip_keeps_graphs_and_meta(tmp_path):
    spec = MotifSpec(kind="ring", size=5)
    ds = generate_motif_dataset(spec, 6, np.random.default_rng(0))
    ds.extras["seed"] = 0
    out = save_benchmark(ds, tmp_path)
    assert out == tmp_path / ds.name
    meta = (out / f"{ds.name}_meta.txt").read_text().splitlines()
    assert f"count=6" in meta and "motif_kind=ring" in meta
    assert "motif_size=5" in meta and "seed=0" in meta
    assert sum(1 for l in meta if "_motif_nodes=" in l) == 3

    back = load_benchmark(tmp_path, ds.name)
    assert back.labels == ds.labels
    assert back.num_classes == ds.num_classes
    assert back.dictionary.size == ds.dictionary.size
    for a, b in zip(ds.graphs, back.graphs):
        assert a.num_nodes == b.num_nodes
        assert a.edges == b.edges
        assert a.labels == b.labels


def test_save_without_motif_extras_writes_no_meta(tmp_path):
    ds = generate_triangle_cycle_dataset(4, np.random.default_rng(1))
    out = save_benchmark(ds, tmp_path)
    assert not (out / f"{ds.name}_meta.txt").exists()


@pytest.mark.parametrize("spec,nodes,edges,reference", [
    (MotifSpec("ring", 6), 6, 6, nx.cycle_graph(6)),
    (MotifSpec("wheel", 6), 7, 12, nx.wheel_graph(7)),
    (MotifSpec("grid", 3), 9, 12, nx.grid_2d_graph(3, 3)),
    (MotifSpec("grid", 2, cols=3), 6, 7, nx.grid_2d_graph(2, 3)),
    (MotifSpec("ladder", 4), 8, 10, nx.ladder_graph(4)),
    (MotifSpec("cliques", 4), 8, 13, nx.barbell_graph(4, 0)),
])
def test_make_motif_matches_networkx(spec, nodes, edges, reference):
    m = make_motif(spec)
    assert m.num_nodes == nodes and m.num_edges == edges
    assert set(m.labels) == {0}
    assert nx.is_isomorphic(to_nx(m), nx.convert_node_labels_to_integers(
        reference))


def test_motif_spec_validation():
    with pytest.raises(DatasetError, match="unknown motif kind"):
        MotifSpec("torus", 4)
    with pytest.raises(DatasetError, match="needs size >= 3"):
        MotifSpec("ring", 2)
    with pytest.raises(DatasetError, match=">= 2 columns"):
        MotifSpec("grid", 3, cols=1)


def test_generate_motif_dataset_structure():
    spec = MotifSpec("ring", 6)
    motif = make_motif(spec)
    k = motif.num_nodes
    ds = generate_motif_dataset(spec, 20, np.random.default_rng(7))
    assert len(ds) == 20
    assert ds.labels == [1, 0] * 10
    assert ds.num_classes == 2 and ds.dictionary.size == 1
    assert ds.extras["motif"] == spec
    assert ds.name == "synth_ring6"
    assert all(30 <= g.num_nodes <= 50 for g in ds.graphs)
    motif_edges = set(motif.edges)
    for meta in ds.extras["pairs"]:
        pos = ds.graphs[meta["pos"]]
        neg = ds.graphs[meta["neg"]]
        assert meta["motif_nodes"] == tuple(range(k))
        assert pos.num_nodes == neg.num_nodes == meta["total_nodes"]
        assert 30 <= pos.num_nodes <= 50
        for g in (pos, neg):
            core = {(u, v) for u, v in g.edges if u < k and v < k}
            back = {(u, v) for u, v in g.edges if u >= k and v >= k}
            cross = [(u, v) for u, v in g.edges if u < k <= v]
            assert back == {(k + u, k + v)
                            for u, v in meta["background_edges"]}
            assert len(core) == motif.num_edges
            if g is pos:
                assert core == motif_edges
            # every background node hangs off at most one core node
            fan = {}
            for u, v in cross:
                fan[v] = fan.get(v, 0) + 1
            assert all(c == 1 for c in fan.values())


def test_generate_motif_dataset_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DatasetError, match="even"):
        generate_motif_dataset(MotifSpec("ring", 6), 5, rng)
    with pytest.raises(DatasetError, match="even"):
        generate_motif_dataset(MotifSpec("ring", 6), 0, rng)
    with pytest.raises(DatasetError, match="30-50 node budget"):
        generate_motif_dataset(MotifSpec("ring", 30), 2, rng)


def test_triangle_cycle_dataset_cores():
    ds = generate_triangle_cycle_dataset(30, np.random.default_rng(3))
    assert ds.labels == [0, 1] * 15
    sizes = set()
    for g, y in zip(ds.graphs, ds.labels):
        sizes.add(g.num_nodes)
        tri = sum(nx.triangles(to_nx(g)).values()) // 3
        assert tri == (0 if y else 2)
    assert sizes == {6, 7}  # pendants show up on both classes
    with pytest.raises(DatasetError, match="even"):
        generate_triangle_cycle_dataset(3, np.random.default_rng(0))


def test_split_validation():
    with pytest.raises(DatasetError, match="overlap"):
        Split(train=(0, 1), val=(1,), test=(2,))
    with pytest.raises(DatasetError, match="non-empty"):
        Split(train=(), val=(1,), test=(2,))
    with pytest.raises(DatasetError, match="non-empty"):
        Split(train=(0,), val=(1,), test=())
    s = Split(train=(0, 1), val=(), test=(2,))
    assert s.val == ()


def test_allocate():
    assert _allocate([30, 10], 4) == [3, 1]
    assert _allocate([1, 1], 1) == [1, 0]  # remainder tie -> smaller index
    assert _allocate([1, 9], 5) == [1, 4]
    assert _allocate([5, 5], 0) == [0, 0]
    assert _allocate([0, 0], 3) == [0, 0]
    assert _allocate([2, 0, 8], 5) == [1, 0, 4]


def balanced_ds(n):
    g = LabeledGraph(2, [(0, 1)], [0, 0])
    return GraphDataset("toy", [g] * n, [i % 2 for i in range(n)],
                        LabelDictionary(1), 2)


def test_split_kfold_partitions_and_stratifies():
    ds = balanced_ds(100)
    splits = split_kfold(ds, 10, np.random.default_rng(11))
    assert len(splits) == 10
    seen = []
    for s in splits:
        seen.extend(s.test)
        assert len(s.test) == 10 and len(s.val) == 9 and len(s.train) == 81
        assert sorted(s.train + s.val + s.test) == list(range(100))
        assert sum(ds.labels[i] for i in s.test) == 5  # stratified
    assert sorted(seen) == list(range(100))


def test_split_kfold_validation_and_warning():
    ds = balanced_ds(100)
    with pytest.raises(DatasetError, match=">= 2 folds"):
        split_kfold(ds, 1, np.random.default_rng(0))
    with pytest.raises(DatasetError, match="cannot fill"):
        split_kfold(balanced_ds(4), 5, np.random.default_rng(0))
    g = LabeledGraph(1, [], [0])
    lop = GraphDataset("lop", [g] * 20, [0] * 17 + [1] * 3,
                       LabelDictionary(1), 2)
    with pytest.warns(UserWarning, match="stratification is partial"):
        split_kfold(lop, 5, np.random.default_rng(0))


def test_split_holdout_sizes_and_determinism():
    ds = balanced_ds(100)
    s = split_holdout(ds, np.random.default_rng(5))
    assert len(s.train) == 80 and len(s.val) == 10 and len(s.test) == 10
    assert sum(ds.labels[i] for i in s.test) == 5
    again = split_holdout(ds, np.random.default_rng(5))
    assert s == again


def test_take():
    ds = generate_triangle_cycle_dataset(6, np.random.default_rng(2))
    gs, ys = take(ds, (4, 0, 2))
    assert gs == [ds.graphs[4], ds.graphs[0], ds.graphs[2]]
    assert ys == [ds.labels[4], ds.labels[0], ds.labels[2]]
