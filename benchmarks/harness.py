"""Measurement of one workload: train from scratch, score from a checkpoint.

Untraced runs (``trace=False``) give the end-to-end metrics; the traced
run gives the per-layer metrics plus the tracing overhead. All timings
come from this file's clock, never from the program's ``sec_per_epoch``.
Epoch boundaries are the returns of the training loop's calls into
``gkconv.experiment.evaluate``, one per epoch.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np

from gkconv import checkpoint, experiment, model

import checks
from tracer import Tracer
from workloads import make_inputs

SCORE_BATCH = 32
MIN_SCORE_BATCHES = 100   # p90 needs at least ten samples beyond it
CHECK_SAMPLE = 24         # graphs in the engine-vs-reference check

END_TO_END = (
    ("setup_s", "s"), ("epoch_s", "s"), ("infer_graphs_per_s", "graphs/s"),
    ("infer_batch_ms_p90", "ms"), ("infer_cold_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


@dataclass
class Tally:
    """Operations attempted and failed, plus metrics and info lines."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    info: list = field(default_factory=list)

    def op(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.info.append(f"FAILED: {what}")

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


class EpochClock:
    """Records when each call into experiment.evaluate returns."""

    def __enter__(self):
        self.marks = []
        self._orig = orig = experiment.evaluate

        def evaluate(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.marks.append(perf_counter())
            return out

        experiment.evaluate = evaluate
        return self

    def __exit__(self, *exc):
        experiment.evaluate = self._orig
        return False


def timed_train(ds, split, net, cfg, tally):
    """train() once; returns (params, report, setup_s, steady epoch times)."""
    gc.collect()
    with EpochClock() as clock:
        t0 = perf_counter()
        params, report = experiment.train(ds, split, net, cfg)
    if len(report.rows) != cfg.epochs or len(clock.marks) < cfg.epochs:
        raise BenchError(f"expected {cfg.epochs} epochs, "
                         f"ran {len(report.rows)}")
    for row in report.rows:
        tally.op(math.isfinite(row.train_loss)
                 and math.isfinite(row.val_loss),
                 f"non-finite loss in epoch {row.epoch}")
    marks = clock.marks[:cfg.epochs]
    return params, report, marks[0] - t0, [float(d) for d in np.diff(marks)]


def score_pass(engine, params, graphs, ys, jsd_weight):
    """One pass over the corpus in batches; per-batch results and times."""
    results, secs = [], []
    for i in range(0, len(graphs), SCORE_BATCH):
        t0 = perf_counter()
        rep, acc = experiment.evaluate(engine, params,
                                       graphs[i:i + SCORE_BATCH],
                                       ys[i:i + SCORE_BATCH], jsd_weight)
        secs.append(perf_counter() - t0)
        results.append((rep.total, acc))
    return results, secs


def cold_score(path, graphs, ys, jsd_weight):
    """load_checkpoint + fresh engine + first full-corpus pass."""
    gc.collect()
    t0 = perf_counter()
    net, params, _ = checkpoint.load_checkpoint(path)
    engine = model.ForwardEngine(net)
    results, _ = score_pass(engine, params, graphs, ys, jsd_weight)
    return perf_counter() - t0, net, params, engine, results


def check_scores(tally, results, reference, what):
    for b, (got, want) in enumerate(zip(results, reference)):
        tally.op(got == want and math.isfinite(got[0]),
                 f"{what} batch {b} scored {got}, reference {want}")


def check_outputs(tally, net, params, engine, graphs, seed):
    """Engine feature rows of a seeded sample against the reference."""
    rng = np.random.default_rng(seed)
    pick = sorted(rng.choice(len(graphs), size=min(CHECK_SAMPLE, len(graphs)),
                             replace=False))
    sample = [graphs[int(i)] for i in pick]
    feats = engine.forward_graphs(params, sample).features
    for g, f in zip(sample, feats):
        tally.op(checks.feature_mismatches(net, params, [g], [f]) == 0,
                 f"feature rows of a {g.num_nodes}-node graph differ "
                 f"from the reference")


def warm_passes(tally, engine, params, ds, cfg, reference, count):
    """count warm passes; returns (batch times, graphs/s of each pass)."""
    secs, rates = [], []
    for _ in range(count):
        results, s = score_pass(engine, params, ds.graphs, ds.labels,
                                cfg.jsd_weight)
        check_scores(tally, results, reference, "warm")
        secs += s
        rates.append(len(ds.graphs) / sum(s))
    return secs, rates


def run_workload(w, seed, seconds, trace, out_root: Path, scale=1.0,
                 epochs=None, min_batches=MIN_SCORE_BATCHES):
    """Measure one workload; returns a Tally with metrics and info."""
    ds, split, net, cfg = make_inputs(w, seed, scale, epochs)
    tally = Tally()
    out_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_root))
    try:
        if trace:
            _traced(tally, w, seed, ds, split, net, cfg, run_dir, out_root)
        else:
            _untraced(tally, w, seed, seconds, ds, split, net, cfg, run_dir,
                      min_batches)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return tally


def _digests(tally, report, params, run_dir, tag):
    rd = checks.report_digest(report, run_dir / f"report-{tag}.csv")
    md = checks.mask_digest(params)
    tally.info.append(f"digest {tag}: report.csv sha256 {rd}")
    tally.info.append(f"digest {tag}: masks sha256 {md}")
    return rd, md


_ROW_KEY = attrgetter("epoch", "train_loss", "train_acc", "val_loss",
                      "val_acc", "edit_accept_rate")


def _same_rows(a, b):
    """Reports equal in every column except the wall-clock one."""
    return list(map(_ROW_KEY, a.rows)) == list(map(_ROW_KEY, b.rows))


def _untraced(tally, w, seed, seconds, ds, split, net, cfg, run_dir,
              min_batches):
    """Rounds of (train from scratch, save, cold score, warm passes) while
    another round fits the budget, then warm passes until the deadline.
    Every round repeats the same seeded training, so the rounds spread
    each metric's samples over the whole run: a stretch of contention on
    a shared machine hits few samples of any one metric."""
    t_start = perf_counter()
    deadline = t_start + seconds
    per_pass = -(-len(ds.graphs) // SCORE_BATCH)
    passes = max(1, -(-min_batches // (w.rounds * per_pass)))
    ckpt = run_dir / "model.gkc"
    setups, epoch_times, colds, warm, rates = [], [], [], [], []
    first = reference = None
    rounds = 0
    while True:
        t_round = perf_counter()
        engine = None  # one engine alive at a time
        params, report, s, ep = timed_train(ds, split, net, cfg, tally)
        setups.append(s)
        epoch_times += ep
        if first is None:
            first = (params, report)
        else:
            tally.op(_same_rows(report, first[1]),
                     "a repeated seeded training changed its trajectory")
        checkpoint.save_checkpoint(ckpt, net, params, {"seed": seed})
        t, net2, params2, engine, results = cold_score(
            ckpt, ds.graphs, ds.labels, cfg.jsd_weight)
        colds.append(t)
        if reference is None:
            reference = results
        else:
            check_scores(tally, results, reference, "cold")
        secs, r = warm_passes(tally, engine, params2, ds, cfg, reference,
                              passes)
        warm += secs
        rates += r
        rounds += 1
        now = perf_counter()
        if rounds >= w.rounds and now + (now - t_round) > deadline:
            break
    while perf_counter() < deadline:
        secs, r = warm_passes(tally, engine, params2, ds, cfg, reference, 1)
        warm += secs
        rates += r
    measured = perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_outputs(tally, net2, params2, engine, ds.graphs, seed)
    params, report = first
    _digests(tally, report, params, run_dir, "run")

    p90 = float(np.percentile(np.asarray(warm) * 1e3, 90))
    tally.put("setup_s", statistics.median(setups), "s")
    tally.put("epoch_s", statistics.median(epoch_times), "s")
    tally.put("infer_graphs_per_s", statistics.median(rates), "graphs/s")
    tally.put("infer_batch_ms_p90", p90, "ms")
    tally.put("infer_cold_s", statistics.median(colds), "s")
    tally.put("peak_rss_mb", rss_mb, "MB")
    tally.info += [
        f"train_loss (last epoch, deterministic for the seed): "
        f"{report.rows[-1].train_loss!r} nats",
        f"samples: setup_s {len(setups)}, epoch_s {len(epoch_times)}, "
        f"infer_cold_s {len(colds)}, warm passes {len(rates)} "
        f"of {len(warm)} batches (p50 {statistics.median(warm) * 1e3:.3f} ms)",
        f"measured {measured:.1f} s of a {seconds:g} s budget "
        f"in {rounds} rounds",
        "setup_s samples: " + " ".join(f"{s:.4f}" for s in setups),
        "epoch_s samples: " + " ".join(f"{s:.4f}" for s in epoch_times),
        "infer_cold_s samples: " + " ".join(f"{s:.4f}" for s in colds),
    ]


def _traced(tally, w, seed, ds, split, net, cfg, run_dir, out_root):
    # untraced reference first: its epoch_s is the overhead baseline and
    # its digests must match the traced run bit for bit
    params0, report0, _, plain = timed_train(ds, split, net, cfg, tally)
    with Tracer() as tracer:
        params, report, _, traced = timed_train(ds, split, net, cfg, tally)
        ckpt = run_dir / "model.gkc"
        checkpoint.save_checkpoint(ckpt, net, params, {"seed": seed})
        _, net2, params2, engine, reference = cold_score(
            ckpt, ds.graphs, ds.labels, cfg.jsd_weight)
        warm_passes(tally, engine, params2, ds, cfg, reference, 1)
    check_outputs(tally, net2, params2, engine, ds.graphs, seed)
    tally.op(_digests(tally, report0, params0, run_dir, "untraced")
             == _digests(tally, report, params, run_dir, "traced"),
             "tracing changed the seeded trajectory")

    spans, layers = tracer.span_table(), tracer.layer_table()
    for name, unit, _, get in PER_LAYER:
        if get is not None:
            tally.put(name, get(spans, layers, tracer.counters,
                                tracer.samples), unit)
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    tally.put("experiment.train_loss", report.rows[-1].train_loss, "nats")
    tally.put("trace.epoch_s", traced_s, "s")
    tally.put("trace.untraced_epoch_s", plain_s, "s")
    tally.put("trace.overhead_s", traced_s - plain_s, "s")

    path = out_root / f"trace-{w.name}-seed{seed}.json"
    tracer.write(path, {"workload": w.name, "seed": seed,
                        "spans_by_name": spans, "layers": layers})
    total = sum(row["self_s"] for row in layers.values())
    tally.info.append(f"tracing overhead: epoch_s {traced_s:.4f} s traced "
                      f"- {plain_s:.4f} s untraced = "
                      f"{traced_s - plain_s:+.4f} s")
    tally.info.append(f"{'layer':<12}{'busy s':>10}{'self s':>10}{'self %':>8}")
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        tally.info.append(f"{layer:<12}{row['s']:>10.3f}{row['self_s']:>10.3f}"
                          f"{100 * row['self_s'] / total:>8.1f}")
    tally.info.append(f"{'span':<34}{'calls':>9}{'busy s':>10}{'self s':>10}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        tally.info.append(f"{name:<34}{row['calls']:>9}{row['s']:>10.3f}"
                          f"{row['self_s']:>10.3f}")
    tally.info.append(f"spans and counters written to {path}")


def _span(name, key):
    return lambda spans, layers, counters, samples: \
        spans.get(name, {}).get(key, 0)


def _layer(name, key):
    return lambda spans, layers, counters, samples: layers[name][key]


def _count(name):
    return lambda spans, layers, counters, samples: counters[name]


def _displacement_p50(spans, layers, counters, samples):
    values = samples.get("quantizer.displacement")
    return float(np.median(values)) if values else 0.0


def _useful_ratio(spans, layers, counters, samples):
    steps = spans.get("drd.step", {}).get("calls", 0)
    return counters["drd.accepted_effective"] / steps if steps else 0.0


# (name, unit, better, getter). Span times that are structurally zero on
# some workload (kernels.refine.s on tricycle_g3, kernels.graphlet3.s on
# the ring workloads, quantizer times on 1-layer nets) are reported in
# the trace file and the printed span table, not here: a time that reads
# 0.0 on every run is indistinguishable from a broken clock.
PER_LAYER = (
    ("graphs.ego_subgraph.calls", "count", "lower",
     _span("graphs.ego_subgraph", "calls")),
    ("graphs.ego_subgraph.s", "s", "lower", _span("graphs.ego_subgraph", "s")),
    ("kernels.refine.calls", "count", "lower", _span("kernels.refine", "calls")),
    ("kernels.refine.nodes", "count", "lower", _count("kernels.refine.nodes")),
    ("kernels.graphlet3.calls", "count", "lower",
     _span("kernels.graphlet3", "calls")),
    ("kernels.s", "s", "lower", _layer("kernels", "s")),
    ("kernels.self_s", "s", "lower", _layer("kernels", "self_s")),
    ("model.forward.calls", "count", "lower", _span("model.forward", "calls")),
    ("model.forward.egos", "count", "lower", _count("model.forward.egos")),
    ("model.forward.s", "s", "lower", _span("model.forward", "s")),
    ("model.forward.self_s", "s", "lower", _span("model.forward", "self_s")),
    ("quantizer.fit.calls", "count", "lower", _span("quantizer.fit", "calls")),
    ("quantizer.fit.rows", "count", "lower", _count("quantizer.fit.rows")),
    ("quantizer.assign.calls", "count", "lower",
     _span("quantizer.assign", "calls")),
    ("quantizer.displacement_p50", "ratio", "lower", _displacement_p50),
    ("quantizer.degenerate_fits", "count", "lower",
     _count("quantizer.degenerate_fits")),
    ("head.batch_loss.s", "s", "lower", _span("head.batch_loss", "s")),
    ("head.accuracy.s", "s", "lower", _span("head.accuracy", "s")),
    ("head.backward.s", "s", "lower", _span("head.backward", "s")),
    ("head.mlp_update.s", "s", "lower", _span("head.mlp_update", "s")),
    ("head.graphs", "count", "lower", _count("head.graphs")),
    ("drd.step.calls", "count", "lower", _span("drd.step", "calls")),
    ("drd.step.s", "s", "lower", _span("drd.step", "s")),
    ("drd.step.self_s", "s", "lower", _span("drd.step", "self_s")),
    ("drd.responses.calls", "count", "lower", _span("drd.responses", "calls")),
    ("drd.responses.s", "s", "lower", _span("drd.responses", "s")),
    ("drd.accepted_effective", "count", "higher",
     _count("drd.accepted_effective")),
    ("drd.accepted_noop", "count", "lower", _count("drd.accepted_noop")),
    ("drd.rejected", "count", "lower", _count("drd.rejected")),
    ("drd.no_edit", "count", "lower", _count("drd.no_edit")),
    ("drd.useful_ratio", "ratio", "higher", _useful_ratio),
    ("experiment.evaluate.calls", "count", "lower",
     _span("experiment.evaluate", "calls")),
    ("experiment.evaluate.s", "s", "lower", _span("experiment.evaluate", "s")),
    ("checkpoint.save.s", "s", "lower", _span("checkpoint.save", "s")),
    ("checkpoint.load.s", "s", "lower", _span("checkpoint.load", "s")),
    ("checkpoint.bytes", "count", "lower", _count("checkpoint.bytes")),
    ("experiment.train_loss", "nats", "lower", None),
    ("trace.epoch_s", "s", "lower", None),
    ("trace.untraced_epoch_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
)
