"""Training loop, cross-validation, grid search, and analysis tools."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import drd, head
from .data import GraphDataset, Split, split_holdout, split_kfold, take
from .graphs import (LabelDictionary, complete_graph, cycle_graph,
                     disjoint_union, ego_subgraph, star_graph, to_dot)
from .kernels import (WL_SUBTREE, KernelConfig, kernel_matrix,
                      wl_indistinguishable)
from .model import ForwardEngine, LayerConfig, ModelParams, NetworkConfig
from .quantizer import Codebook, default_k
from .rng import derive_seed, stream

MAX_EPOCHS = 1000


class ExperimentError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    """Loss left the realm of finite numbers; carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run. hidden=0 means 'first mask bank size'."""

    epochs: int = 200
    batch_size: int = 32
    mlp_lr: float = 0.001
    prob_lr: float = 0.01
    jsd_weight: float = 1e-4
    patience: int = 100
    seed: int = 0
    hidden: int = 0

    def __post_init__(self):
        if not 0 <= self.epochs <= MAX_EPOCHS:
            raise ExperimentError(
                f"epochs must lie in [0, {MAX_EPOCHS}], got {self.epochs}")
        if self.batch_size < 1:
            raise ExperimentError("batch_size must be >= 1")
        for name in ("mlp_lr", "prob_lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ExperimentError(f"{name} must be finite and > 0, "
                                      f"got {getattr(self, name)}")
        if not 0 <= self.jsd_weight < math.inf:
            raise ExperimentError(f"jsd_weight must be finite and >= 0, "
                                  f"got {self.jsd_weight}")
        if self.patience < 1:
            raise ExperimentError("patience must be >= 1")


def build_network(dict_size: int, num_masks: int = 16, mask_nodes: int = 6,
                  radius: int = 3, num_layers: int = 1,
                  kernel_kind: str = WL_SUBTREE, wl_iterations: int = 3,
                  normalized: bool = True, quantizer_k: int = 0) -> NetworkConfig:
    """Uniform layer stack; every junction quantizes into quantizer_k
    labels (0 picks the default size for the incoming dictionary)."""
    kernel = KernelConfig(kind=kernel_kind, wl_iterations=wl_iterations,
                          normalized=normalized)
    layers = []
    junctions = []
    size = dict_size
    for l in range(num_layers):
        layers.append(LayerConfig(
            num_masks=num_masks, max_mask_nodes=mask_nodes, radius=radius,
            kernel=kernel, input_dictionary=LabelDictionary(size)))
        if l < num_layers - 1:
            k = quantizer_k or default_k(size)
            junctions.append(k)
            size = k
    return NetworkConfig(layers=tuple(layers), quantizer_k=tuple(junctions))


def init_params(net: NetworkConfig, num_classes: int,
                cfg: TrainConfig) -> ModelParams:
    if num_classes < 2:
        raise ExperimentError("classification needs >= 2 classes")
    masks = [drd.init_mask_bank(layer, stream(cfg.seed, "masks", l),
                                cfg.prob_lr)
             for l, layer in enumerate(net.layers)]
    codebooks = [None if k is None else Codebook(k)
                 for k in net.quantizer_k]
    hidden = cfg.hidden or net.layers[0].num_masks
    mlp = head.init_mlp(net.feature_dim, hidden, num_classes,
                        stream(cfg.seed, "mlp"), cfg.mlp_lr)
    return ModelParams(masks=masks, codebooks=codebooks, mlp=mlp)


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    sec_per_epoch: float
    edit_accept_rate: float


@dataclass
class RunReport:
    """Per-epoch curves plus the end-of-run summary."""

    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = math.inf
    test_accuracy: float = math.nan
    stopped_early: bool = False

    def to_csv(self, path, timing: bool = True) -> Path:
        """Write the curves. timing=False omits the wall-clock column so
        that reports from identical seeded runs compare bit for bit."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc",
                "sec_per_epoch", "edit_accept_rate"]
        if not timing:
            cols.remove("sec_per_epoch")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cols)
            for r in self.rows:
                w.writerow([repr(getattr(r, c)) if c != "epoch"
                            else r.epoch for c in cols])
        return path


def evaluate(engine: ForwardEngine, params: ModelParams, graphs, ys,
             jsd_weight: float):
    """(LossReport, accuracy) without touching any state."""
    trace = engine.forward_graphs(params, graphs)
    out = head.readout(params.mlp, trace.features, ys, jsd_weight)
    return out.loss, out.accuracy


class _Run:
    """One training run, advanced an epoch at a time by epoch(). state()
    is all of it in one flat dict: the params state, the best epoch's
    under "best.", each Generator's bit_generator.state under "rng.",
    step, bad_epochs, epoch (the next one's index) and the report."""

    def __init__(self, ds: GraphDataset, split: Split, net: NetworkConfig,
                 cfg: TrainConfig):
        if ds.dictionary.size != net.layers[0].input_dictionary.size:
            raise ExperimentError(
                f"network expects dictionary size "
                f"{net.layers[0].input_dictionary.size}, dataset has "
                f"{ds.dictionary.size}")
        self.net, self.cfg = net, cfg
        self.train_set, self.val_set, self.test_set = (
            take(ds, part) for part in (split.train, split.val, split.test))
        self.params = init_params(net, ds.num_classes, cfg)
        self.engine = ForwardEngine(net)
        self.rngs = {"rng.kmeans": stream(cfg.seed, "kmeans"),
                     "rng.batches": stream(cfg.seed, "batches")}
        self.rngs.update((f"rng.drd.{l}.{i}", stream(cfg.seed, "drd", l, i))
                         for l, layer in enumerate(net.layers)
                         for i in range(layer.num_masks))
        self.report, self.best = RunReport(), None  # best: a params state
        self.step = self.bad_epochs = self.next_epoch = 0

    @property
    def done(self) -> bool:
        return self.report.stopped_early or self.next_epoch >= self.cfg.epochs

    def state(self) -> dict:
        out = self.params.state()
        out.update((f"best.{key}", val)
                   for key, val in (self.best or {}).items())
        out.update((key, rng.bit_generator.state)
                   for key, rng in self.rngs.items())
        out.update(step=self.step, bad_epochs=self.bad_epochs,
                   epoch=self.next_epoch, report=asdict(self.report))
        return out

    def load_state(self, state: dict) -> None:
        self.params = ModelParams.from_state(self.net, state)
        self.best = {key[5:]: val for key, val in state.items()
                     if key.startswith("best.")} or None
        for key, rng in self.rngs.items():
            rng.bit_generator.state = state[key]
        self.step, self.bad_epochs = state["step"], state["bad_epochs"]
        self.next_epoch = state["epoch"]
        self.report = RunReport(**{**state["report"], "rows": [
            EpochRow(**row) for row in state["report"]["rows"]]})

    def epoch(self) -> EpochRow:
        """Train on every batch once, validate, and keep the params state
        if validation improved; returns the epoch's report row."""
        cfg, net, params, engine = self.cfg, self.net, self.params, self.engine
        report, epoch = self.report, self.next_epoch
        train_graphs, train_ys = self.train_set
        n_train = len(train_graphs)
        t0 = time.perf_counter()
        order = self.rngs["rng.batches"].permutation(n_train)
        loss_sum = acc_sum = 0.0
        proposals = accepted_count = 0
        for start in range(0, n_train, cfg.batch_size):
            bidx = order[start:start + cfg.batch_size]
            graphs = [train_graphs[int(i)] for i in bidx]
            ys = [train_ys[int(i)] for i in bidx]
            trace = engine.forward_graphs(params, graphs,
                                          fit_rng=self.rngs["rng.kmeans"])
            out = head.readout(params.mlp, trace.features, ys,
                               cfg.jsd_weight)
            if not math.isfinite(out.loss.total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", report)
            loss_sum += out.loss.total * len(graphs)
            acc_sum += out.accuracy * len(graphs)

            grads, dx = head.gradients(out)
            head.mlp_update(params.mlp, grads)
            # each mask's gradient column as a contiguous row: a strided
            # vector would send the edit estimate's dot product down
            # another BLAS path, with other rounding
            dx_cols = iter(np.ascontiguousarray(dx.T))

            phase = drd.EDGE_PHASE if self.step % 2 == 0 else drd.LABEL_PHASE
            for l, layer in enumerate(net.layers):
                lb = trace.layers[l]
                for i in range(layer.num_masks):
                    params.masks[l][i], ok, est = drd.drd_step_batched(
                        params.masks[l][i], phase,
                        self.rngs[f"rng.drd.{l}.{i}"],
                        lb.responses, lb.before[:, i], next(dx_cols))
                    if ok or est != 0.0:
                        proposals += 1
                        accepted_count += int(ok)
            self.step += 1

        train_loss, train_acc = loss_sum / n_train, acc_sum / n_train
        if self.val_set[0]:
            val_rep, val_acc = evaluate(engine, params, *self.val_set,
                                        cfg.jsd_weight)
            val_loss = val_rep.total
        else:
            val_loss, val_acc = train_loss, train_acc
        if not math.isfinite(val_loss):
            raise TrainingDiverged(
                f"non-finite validation loss at epoch {epoch}", report)
        row = EpochRow(
            epoch=epoch, train_loss=train_loss, train_acc=train_acc,
            val_loss=val_loss, val_acc=val_acc,
            sec_per_epoch=time.perf_counter() - t0,
            edit_accept_rate=accepted_count / max(proposals, 1))
        report.rows.append(row)
        self.next_epoch += 1

        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            self.best = {key: val.copy() if isinstance(val, np.ndarray)
                         else val for key, val in params.state().items()}
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= cfg.patience:
                report.stopped_early = True
        return row

    def result(self):
        """(params of the best epoch, report with the test accuracy)."""
        params = self.params if self.best is None \
            else ModelParams.from_state(self.net, self.best)
        if self.report.rows and self.test_set[0]:
            _, self.report.test_accuracy = evaluate(
                self.engine, params, *self.test_set, self.cfg.jsd_weight)
        return params, self.report


def train(ds: GraphDataset, split: Split, net: NetworkConfig,
          cfg: TrainConfig):
    """Train one model on one split; returns (params, RunReport).

    Keeps the parameters of the best validation epoch (total loss) and
    restores them before the final test evaluation; stops early after
    cfg.patience epochs without improvement.
    """
    run = _Run(ds, split, net, cfg)
    while not run.done:
        run.epoch()
    return run.result()


@dataclass
class CvResult:
    fold_accuracies: list
    mean_accuracy: float
    stderr: float
    reports: list


def _run_all(fn, tasks, jobs: int) -> list:
    """fn of every task, in order: serially when jobs <= 1, otherwise in
    a pool of up to jobs spawned worker processes."""
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with get_context("spawn").Pool(min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _run_fold(args):
    ds, net, cfg, split = args
    _, report = train(ds, split, net, cfg)
    return report


def cross_validate(ds: GraphDataset, net: NetworkConfig, cfg: TrainConfig,
                   folds: int = 10, jobs: int = 1) -> CvResult:
    """Stratified k-fold evaluation; each fold trains from scratch with a
    fold-derived seed. jobs > 1 runs folds in separate processes."""
    splits = split_kfold(ds, folds, stream(cfg.seed, "splits"))
    tasks = [(ds, net, replace(cfg, seed=derive_seed(cfg.seed, f)), s)
             for f, s in enumerate(splits)]
    reports = _run_all(_run_fold, tasks, jobs)
    accs = [r.test_accuracy for r in reports]
    mean = float(np.mean(accs))
    stderr = float(np.std(accs, ddof=1) / math.sqrt(len(accs))) \
        if len(accs) > 1 else 0.0
    return CvResult(fold_accuracies=accs, mean_accuracy=mean, stderr=stderr,
                    reports=reports)


@dataclass
class GridResult:
    best: dict
    rows: list


def _run_grid_combo(args):
    ds, combo, net, cfg, split = args
    row = dict(combo)
    try:
        _, report = train(ds, split, net, cfg)
        last = report.rows[-1] if report.rows else None
        row.update(val_loss=report.best_val_loss,
                   val_acc=(report.rows[report.best_epoch].val_acc
                            if report.best_epoch >= 0 else 0.0),
                   test_acc=report.test_accuracy,
                   epochs_run=len(report.rows),
                   stopped_early=report.stopped_early,
                   final_train_acc=last.train_acc if last else 0.0,
                   status="ok")
    except TrainingDiverged:
        row.update(val_loss=math.inf, val_acc=0.0, test_acc=math.nan,
                   epochs_run=0, stopped_early=False, final_train_acc=0.0,
                   status="diverged")
    return row


def grid_search(ds: GraphDataset, cfg: TrainConfig, network: dict,
                masks_grid=(8, 16, 32), nodes_grid=(6, 8),
                radius_grid=(1, 2, 3), layers_grid=(1, 2, 3),
                sample: int = 0, jobs: int = 1,
                out_csv=None) -> GridResult:
    """Hyperparameter sweep over one holdout split.

    network holds the build_network keyword arguments every candidate
    shares; a candidate's num_masks, mask_nodes, radius and num_layers
    replace the ones it names.

    Candidates are ranked by validation accuracy, then validation loss,
    then enumeration order. sample > 0 draws that many candidates
    without replacement instead of running the full grid.
    """
    combos = [{"num_masks": m, "mask_nodes": d, "radius": r, "num_layers": L}
              for m, d, r, L in product(masks_grid, nodes_grid, radius_grid,
                                        layers_grid)]
    if sample:
        take_n = min(sample, len(combos))
        pick = stream(cfg.seed, "grid").choice(len(combos), size=take_n,
                                               replace=False)
        combos = [combos[int(i)] for i in sorted(pick)]
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    # every candidate's network is built, and so checked, before any runs
    tasks = [(ds, combo, build_network(ds.dictionary.size,
                                       **{**network, **combo}),
              replace(cfg, seed=derive_seed(cfg.seed, 1000 + i)), split)
             for i, combo in enumerate(combos)]
    rows = _run_all(_run_grid_combo, tasks, jobs)
    order = sorted(range(len(rows)),
                   key=lambda i: (-rows[i]["val_acc"], rows[i]["val_loss"], i))
    ranked = [rows[i] for i in order]
    if out_csv is not None:
        out_csv = Path(out_csv)
        out_csv.parent.mkdir(parents=True, exist_ok=True)
        with open(out_csv, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(ranked[0].keys()))
            w.writeheader()
            w.writerows(ranked)
    return GridResult(best=ranked[0], rows=ranked)


def mask_significance(ds: GraphDataset, indices, net: NetworkConfig,
                      params: ModelParams, jsd_weight: float = 1e-4):
    """Rank masks by how much zeroing their response column (network
    wide) increases the mean total loss over the given graphs. Returns
    rows sorted by descending loss increase."""
    graphs, ys = take(ds, indices)
    if not graphs:
        raise ExperimentError("need at least one graph")
    engine = ForwardEngine(net)
    base_trace = engine.forward_graphs(params, graphs)
    base = head.batch_loss(params.mlp, base_trace.features, ys,
                           jsd_weight).total
    out = []
    # deepest layer first: an ablation changes the labels of the layers
    # above its own, so the deeper ones run while the engine still keeps
    # every layer's blocks under the base labels
    for l in reversed(range(net.num_layers)):
        for i in range(net.layers[l].num_masks):
            trace = engine.forward_graphs(params, graphs,
                                          zero_cols={(l, i)})
            loss = head.batch_loss(params.mlp, trace.features, ys,
                                   jsd_weight).total
            out.append({"layer": l, "mask": i,
                        "loss_increase": loss - base,
                        "ablated_loss": loss, "base_loss": base})
    out.sort(key=lambda r: (-r["loss_increase"], r["layer"], r["mask"]))
    return out


# viridis, 8 stops, darkest to lightest
VIRIDIS8 = ("#440154", "#46327e", "#365c8d", "#277f8e",
            "#1fa187", "#4ac16d", "#a0da39", "#fde725")


def _response_colors(values: np.ndarray):
    lo = float(values.min())
    hi = float(values.max())
    if hi <= lo:
        return [VIRIDIS8[-1]] * len(values)
    bucket = np.minimum(((values - lo) / (hi - lo) * 8).astype(int), 7)
    return [VIRIDIS8[b] for b in bucket]


def export_mask_dots(ds: GraphDataset, indices, net: NetworkConfig,
                     params: ModelParams, out_dir, top: int = 0):
    """DOT files for each mask and for its strongest-responding graph.

    Per mask two files are written: the mask graph itself and the graph
    from the given indices with the highest pooled response in that
    mask's column, its nodes colored by response magnitude (lightest =
    strongest). top > 0 limits output to the first `top` masks per layer.
    """
    graphs, _ = take(ds, indices)
    if not graphs:
        raise ExperimentError("need at least one graph")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    engine = ForwardEngine(net)
    trace = engine.forward_graphs(params, graphs)
    written = []
    col = 0
    for l, layer in enumerate(net.layers):
        count = layer.num_masks if top <= 0 else min(top, layer.num_masks)
        for i in range(count):
            mask = params.masks[l][i]
            mask_path = out_dir / f"mask_L{l}_M{i}.dot"
            mask_path.write_text(to_dot(mask.graph, name=f"mask_L{l}_M{i}"))
            pooled = [float(feat[:, col + i].sum()) for feat in trace.features]
            gi = int(np.argmax(pooled))
            colors = _response_colors(trace.features[gi][:, col + i])
            resp_path = out_dir / f"response_L{l}_M{i}.dot"
            resp_path.write_text(to_dot(graphs[gi],
                                        name=f"response_L{l}_M{i}",
                                        colors=colors))
            written.extend([mask_path, resp_path])
        col += layer.num_masks
    return written


@dataclass(frozen=True)
class ExpressivenessReport:
    """Outcome of the refinement-blind-spot demonstration."""

    refinement_confused: bool
    feature_gap: float
    passed: bool

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{verdict}] color refinement confused: "
                f"{self.refinement_confused}; pooled feature gap: "
                f"{self.feature_gap:.6f}")


def expressiveness_report() -> ExpressivenessReport:
    """Two triangles vs one six-cycle: color refinement cannot separate
    them, kernel responses against triangle/star masks can."""
    two_tri = disjoint_union(cycle_graph(3), cycle_graph(3))
    six = cycle_graph(6)
    confused = wl_indistinguishable(two_tri, six)
    kernel = KernelConfig(kind=WL_SUBTREE, wl_iterations=1, normalized=True)
    bank = [complete_graph(3), star_graph(2), star_graph(3)]
    pooled = []
    for g in (two_tri, six):
        egos = [ego_subgraph(g, v, 1).graph for v in range(g.num_nodes)]
        feats = kernel_matrix(kernel, egos, bank)
        pooled.append(feats.sum(axis=0))
    gap = float(np.abs(pooled[0] - pooled[1]).max())
    return ExpressivenessReport(refinement_confused=confused,
                                feature_gap=gap,
                                passed=confused and gap > 1e-6)
