"""Training runs, sweeps, and the analysis helpers around them."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gkconv.experiment as ex
from gkconv import head, model
from gkconv.checkpoint import save_checkpoint
from gkconv.data import generate_triangle_cycle_dataset, split_holdout, take
from gkconv.model import ForwardEngine
from gkconv.quantizer import default_k
from gkconv.rng import stream

FIELDS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc",
          "edit_accept_rate")  # everything except wall clock


def toy_setup(count=12, **cfg_kw):
    ds = generate_triangle_cycle_dataset(count, np.random.default_rng(0))
    net = ex.build_network(1, num_masks=2, mask_nodes=3, radius=1,
                           wl_iterations=1)
    kw = dict(epochs=3, batch_size=4, seed=9)
    kw.update(cfg_kw)
    cfg = ex.TrainConfig(**kw)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    return ds, net, cfg, split


def test_build_network_defaults():
    net = ex.build_network(3)
    assert len(net.layers) == 1 and net.quantizer_k == ()
    lay = net.layers[0]
    assert lay.num_masks == 16 and lay.max_mask_nodes == 6
    assert lay.radius == 3 and lay.kernel.wl_iterations == 3
    assert lay.kernel.normalized and lay.input_dictionary.size == 3
    assert net.feature_dim == 16


def test_build_network_stacks_junction_dictionaries():
    net = ex.build_network(2, num_masks=4, num_layers=3, quantizer_k=5)
    assert net.quantizer_k == (5, 5)
    assert [l.input_dictionary.size for l in net.layers] == [2, 5, 5]
    assert net.feature_dim == 12
    auto = ex.build_network(2, num_layers=2)
    assert auto.quantizer_k == (default_k(2),)
    assert auto.layers[1].input_dictionary.size == default_k(2)


def test_train_config_validation():
    for kw in (dict(epochs=-1), dict(epochs=1001), dict(batch_size=0),
               dict(jsd_weight=-0.1), dict(patience=0)):
        with pytest.raises(ex.ExperimentError):
            ex.TrainConfig(**kw)


@pytest.mark.parametrize("field,value", [
    ("mlp_lr", 0.0), ("mlp_lr", -1e-3), ("mlp_lr", math.nan),
    ("mlp_lr", math.inf), ("prob_lr", 0.0), ("prob_lr", math.nan),
    ("prob_lr", math.inf), ("jsd_weight", math.nan),
    ("jsd_weight", math.inf)])
def test_train_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ex.ExperimentError, match=field):
        ex.TrainConfig(**{field: value})
    assert ex.TrainConfig(jsd_weight=0.0).jsd_weight == 0.0


def test_init_params_shapes_and_hidden_default():
    net = ex.build_network(1, num_masks=3, mask_nodes=4)
    p = ex.init_params(net, 2, ex.TrainConfig())
    assert len(p.masks) == 1 and len(p.masks[0]) == 3
    assert p.mlp.W1.shape == (3, 3)  # hidden defaults to the bank size
    assert p.mlp.W2.shape == (3, 2)
    wide = ex.init_params(net, 2, ex.TrainConfig(hidden=7))
    assert wide.mlp.W1.shape == (3, 7)
    with pytest.raises(ex.ExperimentError, match=">= 2 classes"):
        ex.init_params(net, 1, ex.TrainConfig())


def test_train_is_bitwise_deterministic(tmp_path):
    ds, net, cfg, split = toy_setup()
    p1, r1 = ex.train(ds, split, net, cfg)
    p2, r2 = ex.train(ds, split, net, cfg)
    assert len(r1.rows) == len(r2.rows) == 3
    for a, b in zip(r1.rows, r2.rows):
        for f in FIELDS:
            assert getattr(a, f) == getattr(b, f)
    assert r1.test_accuracy == r2.test_accuracy
    assert r1.best_epoch == r2.best_epoch
    assert np.array_equal(p1.mlp.W1, p2.mlp.W1)
    assert np.array_equal(p1.mlp.W2, p2.mlp.W2)
    for m1, m2 in zip(p1.masks[0], p2.masks[0]):
        assert m1.workspace.edges == m2.workspace.edges
        assert m1.workspace.labels == m2.workspace.labels
    r1.to_csv(tmp_path / "a.csv", timing=False)
    r2.to_csv(tmp_path / "b.csv", timing=False)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    r1.to_csv(tmp_path / "t.csv")
    head = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert "sec_per_epoch" in head
    assert "sec_per_epoch" not in (tmp_path / "a.csv").read_text()


def two_layer_setup(epochs):
    """2-layer toy net with a k-means junction; over 6 epochs its best
    validation epoch is 3, and after 3 epochs the best is 1."""
    ds = generate_triangle_cycle_dataset(8, np.random.default_rng(0))
    net = ex.build_network(1, num_masks=2, mask_nodes=3, radius=1,
                           wl_iterations=1, num_layers=2, quantizer_k=2)
    cfg = ex.TrainConfig(epochs=epochs, batch_size=4, seed=1)
    return ds, net, cfg, split_holdout(ds, stream(cfg.seed, "splits"))


def checkpoint_bytes(path, net, params):
    path = save_checkpoint(path, net, params)
    return path.read_bytes(), Path(f"{path}.config.txt").read_bytes()


def comparable(state):
    """A run state without its report's wall-clock column; JSON values
    by repr, so that a NaN equals itself."""
    report = dict(state["report"])
    report["rows"] = [{k: v for k, v in row.items() if k != "sec_per_epoch"}
                      for row in report["rows"]]
    return {key: val if isinstance(val, np.ndarray) else repr(val)
            for key, val in {**state, "report": report}.items()}


def assert_states_equal(a, b):
    a, b = comparable(a), comparable(b)
    assert sorted(a) == sorted(b)
    for key, val in a.items():
        if isinstance(val, np.ndarray):
            assert val.dtype == b[key].dtype, key
            assert np.array_equal(val, b[key]), key
        else:
            assert val == b[key], key


def test_split_run_equals_whole_run(tmp_path):
    # half a run, taken apart by state() and loaded into a fresh run with
    # a fresh engine, ends bit for bit where the uninterrupted run ends
    ds, net, cfg, split = two_layer_setup(epochs=6)
    whole = ex._Run(ds, split, net, cfg)
    while not whole.done:
        whole.epoch()
    first = ex._Run(ds, split, net, cfg)
    for _ in range(3):
        first.epoch()
    state = first.state()
    assert "best.has_mlp" in state and state["bad_epochs"] > 0
    second = ex._Run(ds, split, net, cfg)
    second.load_state(state)
    while not second.done:
        second.epoch()
    assert len(second.report.rows) == cfg.epochs
    assert_states_equal(whole.state(), second.state())

    results = [whole.result(), second.result(), ex.train(ds, split, net, cfg)]
    csvs = {r.to_csv(tmp_path / f"{i}.csv", timing=False).read_bytes()
            for i, (_, r) in enumerate(results)}
    assert len(csvs) == 1
    workspaces = [[(m.workspace.edges, m.workspace.labels)
                   for bank in p.masks for m in bank] for p, _ in results]
    assert workspaces[0] == workspaces[1] == workspaces[2]
    saved = {checkpoint_bytes(tmp_path / f"{i}.gkc", net, p)
             for i, (p, _) in enumerate(results)}
    assert len(saved) == 1


def test_best_epoch_params_are_a_snapshot(tmp_path):
    # Adam keeps stepping the live arrays in place after the best epoch,
    # so a snapshot sharing them would return later values
    ds, net, cfg, split = two_layer_setup(epochs=6)
    params, report = ex.train(ds, split, net, cfg)
    best = report.best_epoch
    assert best < cfg.epochs - 1
    short, short_report = ex.train(ds, split, net,
                                   replace(cfg, epochs=best + 1))
    assert short_report.best_epoch == best
    assert checkpoint_bytes(tmp_path / "a.gkc", net, params) == \
        checkpoint_bytes(tmp_path / "b.gkc", net, short)


def test_run_report_csv_roundtrips_floats(tmp_path):
    rep = ex.RunReport(rows=[ex.EpochRow(
        epoch=0, train_loss=1 / 3, train_acc=2 / 3, val_loss=1 / 7,
        val_acc=0.5, sec_per_epoch=0.01, edit_accept_rate=1 / 9)])
    path = rep.to_csv(tmp_path / "r.csv")
    header, row = path.read_text().splitlines()
    assert header.split(",")[0] == "epoch"
    cells = row.split(",")
    assert float(cells[1]) == 1 / 3  # repr round-trips exactly
    assert float(cells[3]) == 1 / 7


def test_train_zero_epochs_returns_empty_report():
    ds, net, cfg, split = toy_setup(epochs=0)
    params, rep = ex.train(ds, split, net, cfg)
    assert rep.rows == [] and rep.best_epoch == -1
    assert math.isnan(rep.test_accuracy)
    assert params is not None


def test_train_stops_early_when_patience_runs_out():
    ds, net, cfg, split = toy_setup(epochs=30, patience=1)
    _, rep = ex.train(ds, split, net, cfg)
    assert rep.stopped_early
    assert len(rep.rows) < 30
    assert rep.best_epoch <= len(rep.rows) - 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_divergence_with_partial_curves():
    ds, net, cfg, split = toy_setup(epochs=5, mlp_lr=1e308)
    with pytest.raises(ex.TrainingDiverged) as ei:
        ex.train(ds, split, net, cfg)
    assert ei.value.report is not None


def test_train_rejects_dictionary_mismatch():
    ds, _, cfg, split = toy_setup()
    wrong = ex.build_network(2, num_masks=2, mask_nodes=3, radius=1)
    with pytest.raises(ex.ExperimentError, match="dictionary size"):
        ex.train(ds, split, wrong, cfg)


def test_cross_validate_statistics():
    ds, net, cfg, _ = toy_setup(epochs=1)
    res = ex.cross_validate(ds, net, cfg, folds=3)
    assert len(res.fold_accuracies) == len(res.reports) == 3
    assert res.mean_accuracy == pytest.approx(np.mean(res.fold_accuracies))
    assert res.stderr == pytest.approx(
        np.std(res.fold_accuracies, ddof=1) / math.sqrt(3))
    again = ex.cross_validate(ds, net, cfg, folds=3)
    assert res.fold_accuracies == again.fold_accuracies


def test_cross_validate_parallel_matches_serial():
    ds, net, cfg, _ = toy_setup(epochs=1)
    serial = ex.cross_validate(ds, net, cfg, folds=2, jobs=1)
    parallel = ex.cross_validate(ds, net, cfg, folds=2, jobs=2)
    assert serial.fold_accuracies == parallel.fold_accuracies


def test_grid_search_ranking_and_csv(tmp_path):
    ds, _, cfg, _ = toy_setup(epochs=1)
    out = tmp_path / "grid.csv"
    res = ex.grid_search(ds, cfg, {"wl_iterations": 1}, masks_grid=(2,),
                         nodes_grid=(3,), radius_grid=(1,),
                         layers_grid=(1, 2), out_csv=out)
    assert len(res.rows) == 2
    assert res.best == res.rows[0]
    keys = [(-r["val_acc"], r["val_loss"]) for r in res.rows]
    assert keys == sorted(keys)
    assert all(r["status"] == "ok" for r in res.rows)
    header = out.read_text().splitlines()[0]
    for col in ("num_masks", "radius", "val_acc", "test_acc", "status"):
        assert col in header
    sampled = ex.grid_search(ds, cfg, {"wl_iterations": 1}, masks_grid=(2,),
                             nodes_grid=(3,), radius_grid=(1,),
                             layers_grid=(1, 2), sample=1)
    assert len(sampled.rows) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_marks_diverged_combos():
    ds, _, cfg, _ = toy_setup(epochs=1, mlp_lr=1e308)
    res = ex.grid_search(ds, cfg, {"wl_iterations": 1}, masks_grid=(2,),
                         nodes_grid=(3,), radius_grid=(1,), layers_grid=(1,))
    assert res.rows[0]["status"] == "diverged"
    assert res.rows[0]["val_loss"] == math.inf
    assert math.isnan(res.rows[0]["test_acc"])


def test_mask_significance_ranks_ablations():
    ds, net, cfg, split = toy_setup(epochs=2)
    params, _ = ex.train(ds, split, net, cfg)
    rows = ex.mask_significance(ds, range(len(ds)), net, params)
    assert len(rows) == 2
    incs = [r["loss_increase"] for r in rows]
    assert incs == sorted(incs, reverse=True)
    for r in rows:
        assert r["ablated_loss"] - r["base_loss"] == r["loss_increase"]
        assert r["base_loss"] == rows[0]["base_loss"]
    with pytest.raises(ex.ExperimentError, match="at least one graph"):
        ex.mask_significance(ds, (), net, params)


def test_mask_significance_matches_fresh_engines(monkeypatch):
    # one engine serves every ablation; each must give the bits of a
    # fresh engine, and a deep-mask ablation, which leaves every label
    # as the base pass saw it, refines no ego-ball union
    ds = generate_triangle_cycle_dataset(12, np.random.default_rng(0))
    net = ex.build_network(ds.dictionary.size, num_masks=2, mask_nodes=3,
                           radius=1, num_layers=2, wl_iterations=2,
                           quantizer_k=3)
    cfg = ex.TrainConfig(epochs=1, batch_size=4, seed=9)
    params, _ = ex.train(ds, split_holdout(ds, stream(cfg.seed, "splits")),
                         net, cfg)
    graphs, ys = take(ds, range(len(ds)))

    def loss(zero_cols):
        feats = ForwardEngine(net).forward_graphs(
            params, graphs, zero_cols=zero_cols).features
        return head.batch_loss(params.mlp, feats, ys, 1e-4).total

    base = loss(frozenset())
    want = []
    for l, lay in enumerate(net.layers):
        for i in range(lay.num_masks):
            ablated = loss({(l, i)})
            want.append({"layer": l, "mask": i,
                         "loss_increase": ablated - base,
                         "ablated_loss": ablated, "base_loss": base})
    want.sort(key=lambda r: (-r["loss_increase"], r["layer"], r["mask"]))

    refined, calls = [], []
    real_union, real_forward = model.refine_union, ForwardEngine.forward_graphs

    def count_union(*args):
        refined.append(args)
        return real_union(*args)

    def count_forward(engine, params, graphs, **kw):
        before = len(refined)
        out = real_forward(engine, params, graphs, **kw)
        calls.append((kw.get("zero_cols", frozenset()), len(refined) - before))
        return out

    monkeypatch.setattr(model, "refine_union", count_union)
    monkeypatch.setattr(ForwardEngine, "forward_graphs", count_forward)
    rows = ex.mask_significance(ds, range(len(ds)), net, params)

    def bits(rs):
        return [{k: v.hex() if isinstance(v, float) else v
                 for k, v in r.items()} for r in rs]

    assert bits(rows) == bits(want)
    deep = [n for zero_cols, n in calls if {l for l, _ in zero_cols} == {1}]
    assert deep == [0] * net.layers[1].num_masks
    assert len(calls) == 1 + net.feature_dim


def test_export_mask_dots(tmp_path):
    ds, net, cfg, split = toy_setup(epochs=1)
    params, _ = ex.train(ds, split, net, cfg)
    written = ex.export_mask_dots(ds, range(4), net, params, tmp_path)
    assert len(written) == 4  # mask + response per mask
    for path in written:
        assert path.exists()
    mask_text = (tmp_path / "mask_L0_M0.dot").read_text()
    assert mask_text.startswith("graph mask_L0_M0 {")
    resp_text = (tmp_path / "response_L0_M1.dot").read_text()
    assert "fillcolor" in resp_text
    only_first = ex.export_mask_dots(ds, range(4), net, params,
                                     tmp_path / "top", top=1)
    assert len(only_first) == 2


def test_expressiveness_report_passes():
    rep = ex.expressiveness_report()
    assert rep.refinement_confused and rep.passed
    assert rep.feature_gap > 1e-6
    assert "PASS" in rep.summary()
