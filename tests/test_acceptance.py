"""Release gate: ten numbered end-to-end checks.

Each test verifies one acceptance check and records a single verdict
line ("criterion N [PASS/FAIL/SKIP]: detail"); conftest prints the
collected lines after the run summary. Checks that need the MUTAG
benchmark corpus skip loudly when it is absent and exercise the same
machinery on synthetic data instead; see MUTAG_HINT below for how to
make a corpus available.
"""

import functools
import os
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import gkconv.drd as drd
import gkconv.experiment as ex
import gkconv.model as model
from gkconv.data import (DatasetNotFoundError, MotifSpec,
                         generate_motif_dataset,
                         generate_triangle_cycle_dataset, load_benchmark,
                         make_motif, split_holdout)
from gkconv.drd import EditProbabilities
from gkconv.graphs import complete_graph, cycle_graph, disjoint_union
from gkconv.head import batch_loss, init_mlp
from gkconv.kernels import (GRAPHLET3, WL_SUBTREE, KernelConfig,
                            graphlet3_vector, kernel_matrix,
                            wl_indistinguishable)
from gkconv.model import ForwardEngine, StructuralMask, random_connected_graph
from gkconv.quantizer import Codebook, fit_update
from gkconv.rng import stream

from conftest import graph_gradients, kernel_value, random_graph, to_nx
from oracle import jsd_loss, permuted
from test_kernels import wl_oracle
from test_optim_head import numeric_grad, rel_err

DATA_ROOT = os.environ.get(
    "GKCONV_DATA", str(Path(__file__).resolve().parents[1] / "data"))
MUTAG_HINT = (f"MUTAG corpus not found under {DATA_ROOT}; fetch it on a "
              "networked machine with `gkconv fetch --name MUTAG --data "
              "data` or point GKCONV_DATA at a copy")

RECORD = []


def _record(num, status, detail):
    line = f"criterion {num:2d} [{status}]: {detail}"
    RECORD.append(line)
    print(line)


def criterion(num):
    """Record one verdict line per check, also on failure or error."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as err:
                msg = str(err).splitlines()[0] if str(err) else fn.__name__
                _record(num, "FAIL", msg)
                raise
            except Exception as err:
                _record(num, "FAIL", f"{type(err).__name__}: {err}")
                raise
            _record(num, "PASS", detail)
        return wrapper
    return deco


def skip_criterion(num, reason):
    _record(num, "SKIP", reason)
    pytest.skip(reason)


# --- shared runs --------------------------------------------------------

@pytest.fixture(scope="module")
def mutag():
    """The benchmark corpus, or None when it is not on disk."""
    try:
        return load_benchmark(DATA_ROOT, "MUTAG")
    except DatasetNotFoundError:
        return None


def _baseline(ds, **overrides):
    net = ex.build_network(ds.dictionary.size,
                           **{k: v for k, v in overrides.items()
                              if k in ("num_layers",)})
    cfg = ex.TrainConfig(seed=0, **{k: v for k, v in overrides.items()
                                    if k != "num_layers"})
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    return net, cfg, split


def _timed_train(ds, net, cfg, split):
    t0 = time.monotonic()
    params, report = ex.train(ds, split, net, cfg)
    return params, report, time.monotonic() - t0


@pytest.fixture(scope="module")
def mutag_run(mutag):
    """Single stratified 80/10/10 baseline run, shared across checks."""
    if mutag is None:
        return None
    net, cfg, split = _baseline(mutag, epochs=300)
    params, report, elapsed = _timed_train(mutag, net, cfg, split)
    return dict(ds=mutag, net=net, cfg=cfg, split=split, params=params,
                report=report, elapsed=elapsed)


@pytest.fixture(scope="module")
def synthetic_run():
    """Noisy triangle-vs-cycle benchmark, shared across checks."""
    ds = generate_triangle_cycle_dataset(200, stream(0, "synth"))
    net = ex.build_network(1, num_masks=8, mask_nodes=6, radius=1,
                           wl_iterations=1)
    cfg = ex.TrainConfig(epochs=200, seed=0)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    params, report, elapsed = _timed_train(ds, net, cfg, split)
    return dict(ds=ds, net=net, cfg=cfg, split=split, params=params,
                report=report, elapsed=elapsed)


# --- 1: hashed WL kernel equals the brute-force histogram oracle --------

@criterion(1)
def test_c01_wl_kernel_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    checked = 0
    for _ in range(200):
        g1 = random_graph(rng)  # n <= 8, labels from a 3-symbol alphabet
        g2 = random_graph(rng)
        for h in (1, 2, 3):
            raw = KernelConfig(kind=WL_SUBTREE, wl_iterations=h,
                               normalized=False)
            assert kernel_value(raw, g1, g2) == wl_oracle(g1, g2, h), \
                (g1, g2, h)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    return (f"{checked} hashed-vs-histogram kernel values equal "
            f"on 200 random pairs ({elapsed:.1f}s)")


# --- 2: kernel axioms ---------------------------------------------------

def _graph_with_triads(rng):
    # 3-node graphlet features are all zero on triad-free graphs, which
    # makes the normalized self-similarity degenerate; resample those
    while True:
        g = random_graph(rng, n_min=4, p=0.6)
        if graphlet3_vector(g).any():
            return g


@criterion(2)
def test_c02_kernel_axioms():
    rng = np.random.default_rng(2)
    worst_self = 0.0
    min_eig = np.inf
    for kind in (WL_SUBTREE, GRAPHLET3):
        raw = KernelConfig(kind=kind, wl_iterations=2, normalized=False)
        norm = KernelConfig(kind=kind, wl_iterations=2, normalized=True)
        draw = (lambda: _graph_with_triads(rng)) if kind == GRAPHLET3 \
            else (lambda: random_graph(rng))
        for _ in range(50):
            g1, g2 = draw(), draw()
            assert kernel_value(raw, g1, g2) == kernel_value(raw, g2, g1)
            assert kernel_value(norm, g1, g2) == kernel_value(norm, g2, g1)
            perm = [int(p) for p in rng.permutation(g1.num_nodes)]
            assert kernel_value(raw, permuted(g1, perm), g2) == \
                kernel_value(raw, g1, g2)
            assert kernel_value(norm, permuted(g1, perm), g2) == \
                kernel_value(norm, g1, g2)
            worst_self = max(worst_self,
                             abs(kernel_value(norm, g1, g1) - 1.0))
        graphs = [draw() for _ in range(10)]
        for cfg in (raw, norm):
            gram = kernel_matrix(cfg, graphs, graphs)
            assert np.array_equal(gram, gram.T)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
    assert worst_self < 1e-12, f"self-similarity off by {worst_self:.2e}"
    assert min_eig >= -1e-8, f"Gram eigenvalue {min_eig:.2e}"
    return (f"symmetry and relabeling invariance exact over 50 draws per "
            f"kernel, |self-similarity - 1| <= {worst_self:.1e}, "
            f"min Gram eigenvalue {min_eig:.2e}")


# --- 3: masks see past color refinement; synthetic benchmark solved -----

@criterion(3)
def test_c03_expressiveness_and_synthetic_benchmark(synthetic_run):
    two_tri = disjoint_union(complete_graph(3), complete_graph(3))
    assert wl_indistinguishable(two_tri, cycle_graph(6))

    # a frozen triangle mask at radius 1 scores every node of K3 at
    # exactly 1 and every node of C6 at 12/sqrt(252)
    net = ex.build_network(1, num_masks=1, mask_nodes=3, radius=1,
                           wl_iterations=1)
    params = ex.init_params(net, 2, ex.TrainConfig(seed=0))
    params.masks[0] = [StructuralMask(complete_graph(3),
                                      EditProbabilities.zeros(3, 1))]
    feats = ForwardEngine(net).forward_graphs(
        params, [complete_graph(3), cycle_graph(6)]).features
    off_tri = float(np.abs(feats[0] - 1.0).max())
    off_hex = float(np.abs(feats[1] - 12.0 / np.sqrt(252.0)).max())
    assert off_tri < 1e-6, f"triangle response off by {off_tri:.2e}"
    assert off_hex < 1e-6, f"hexagon response off by {off_hex:.2e}"

    report = synthetic_run["report"]
    elapsed = synthetic_run["elapsed"]
    assert len(report.rows) <= 200
    assert report.test_accuracy == 1.0, \
        f"test accuracy {report.test_accuracy}"
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    return (f"2xC3 vs C6 confuses color refinement, triangle-mask "
            f"responses exact to {max(off_tri, off_hex):.1e}, synthetic "
            f"benchmark test accuracy {report.test_accuracy:.2f} "
            f"({elapsed:.0f}s)")


# --- 4: edit invariants hold after every optimizer step -----------------

def _run_instrumented(monkeypatch, ds, net, cfg, split):
    """Train while spying on every edit step and probability update."""
    real_step = drd.drd_step_batched
    real_upd = drd.update_probs
    stats = {"steps": 0, "updates": 0, "accepted": 0, "bad": []}

    def step_spy(mask, *args, **kwargs):
        out = real_step(mask, *args, **kwargs)
        new_mask, accepted, est = out[0], out[1], out[2]
        stats["steps"] += 1
        if not np.isfinite(est):
            stats["bad"].append(f"non-finite estimate {est}")
        if accepted:
            stats["accepted"] += 1
            if not est <= 0.0:
                stats["bad"].append(f"accepted edit with estimate {est}")
        g = new_mask.graph
        if not 1 <= g.num_nodes <= new_mask.workspace.num_nodes:
            stats["bad"].append(f"mask has {g.num_nodes} nodes")
        if g.num_nodes > 1 and not nx.is_connected(to_nx(g)):
            stats["bad"].append(f"disconnected mask at step "
                                f"{stats['steps']}")
        return out

    def upd_spy(mask, phase, k, est):
        out = real_upd(mask, phase, k, est)
        stats["updates"] += 1
        off = np.abs(mask.edit_probs.label_probs().sum(axis=1) - 1.0).max()
        if off > 1e-9:
            stats["bad"].append(f"label softmax row off by {off:.2e}")
        return out

    with monkeypatch.context() as mp:
        mp.setattr(drd, "drd_step_batched", step_spy)
        mp.setattr(drd, "update_probs", upd_spy)
        ex.train(ds, split, net, cfg)
    return stats


@criterion(4)
def test_c04_edit_invariants_over_full_run(mutag, monkeypatch):
    ds = generate_triangle_cycle_dataset(40, stream(0, "synth"))
    net = ex.build_network(1, num_masks=4, mask_nodes=4, radius=1,
                           wl_iterations=1)
    cfg = ex.TrainConfig(epochs=20, batch_size=16, seed=0)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    surrogate = _run_instrumented(monkeypatch, ds, net, cfg, split)
    assert not surrogate["bad"], surrogate["bad"][:3]
    assert surrogate["steps"] > 0 and surrogate["updates"] > 0
    held = (f"invariants held over {surrogate['steps']} synthetic edit "
            f"steps ({surrogate['accepted']} accepted, "
            f"{surrogate['updates']} probability updates)")

    if mutag is None:
        skip_criterion(4, f"{MUTAG_HINT}; {held}")
    net, cfg, split = _baseline(mutag, epochs=300)
    stats = _run_instrumented(monkeypatch, mutag, net, cfg, split)
    assert not stats["bad"], stats["bad"][:3]
    return (f"invariants held over {stats['steps']} benchmark edit steps "
            f"({stats['accepted']} accepted, {stats['updates']} "
            f"probability updates); {held}")


# --- 5: analytic gradients match central finite differences -------------

@criterion(5)
def test_c05_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    jsd_weight = 1e-4
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 4))
        hidden = int(rng.integers(2, 6))
        params = init_mlp(m, hidden, c, rng)
        feats = [rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 7)), m))
                 for _ in range(int(rng.integers(2, 5)))]
        ys = [int(rng.integers(c)) for _ in feats]

        def total():
            return batch_loss(params, feats, ys, jsd_weight).total

        grads, dxs = graph_gradients(params, feats, ys, jsd_weight)
        for name, arr in (("W1", params.W1), ("b1", params.b1),
                          ("W2", params.W2), ("b2", params.b2)):
            err = rel_err(grads[name], numeric_grad(total, arr))
            worst = max(worst, err)
            assert err < 1e-4, f"{name} gradient off by {err:.2e}"
        for bi, X in enumerate(feats):
            err = rel_err(dxs[bi], numeric_grad(total, X))
            worst = max(worst, err)
            assert err < 1e-4, f"input gradient off by {err:.2e}"
    return (f"20 instances: max relative error {worst:.2e} over all MLP "
            f"weights and input gradients (diversity weight {jsd_weight})")


# --- 6: duplicated response columns never lower the diversity loss ------

@criterion(6)
def test_c06_duplicate_columns_never_lower_jsd():
    rng = np.random.default_rng(6)
    margin = np.inf
    for _ in range(100):
        feats = rng.random((10, 4))
        base = jsd_loss(feats)
        i, j = sorted(int(k) for k in rng.choice(4, size=2, replace=False))
        dup = feats.copy()
        avg = 0.5 * (dup[:, i] + dup[:, j])
        dup[:, i] = avg
        dup[:, j] = avg
        delta = jsd_loss(dup) - base
        margin = min(margin, delta)
        assert delta >= -1e-12, f"duplication lowered the loss by {delta}"
    return (f"100 trials on 10x4 responses: duplicating a column pair "
            f"never lowered the loss (min increase {margin:.2e})")


# --- 7: benchmark baseline accuracy --------------------------------------

@criterion(7)
def test_c07_benchmark_baseline_accuracy(mutag_run):
    if mutag_run is None:
        skip_criterion(7, MUTAG_HINT)
    report = mutag_run["report"]
    assert len(report.rows) <= 300
    assert mutag_run["elapsed"] < 3600, \
        f"run took {mutag_run['elapsed']:.0f}s"
    assert report.test_accuracy >= 0.75, \
        f"test accuracy {report.test_accuracy:.3f}"
    return (f"test accuracy {report.test_accuracy:.3f} after "
            f"{len(report.rows)} epochs ({mutag_run['elapsed']:.0f}s)")


# --- 8: ring benchmark accuracy and mask recovery ------------------------

@criterion(8)
def test_c08_ring_benchmark_and_mask_recovery():
    t0 = time.monotonic()
    spec = MotifSpec(kind="ring", size=6)
    ds = generate_motif_dataset(spec, 400, stream(0, "synth"))
    net = ex.build_network(ds.dictionary.size, num_masks=8, mask_nodes=6,
                           radius=3)
    cfg = ex.TrainConfig(epochs=1000, patience=1000, batch_size=32, seed=0)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    params, report = ex.train(ds, split, net, cfg)

    ranking = ex.mask_significance(ds, range(len(ds)), net, params,
                                   jsd_weight=cfg.jsd_weight)
    top = ranking[0]
    top_mask = params.masks[top["layer"]][top["mask"]].graph
    motif = make_motif(spec)
    kc = KernelConfig(kind=WL_SUBTREE, wl_iterations=3, normalized=True)
    top_sim = kernel_value(kc, top_mask, motif)
    rand_rng = stream(cfg.seed, "masks", 12345)
    rand_med = float(np.median(
        [kernel_value(kc, random_connected_graph(6, 1, rand_rng), motif)
         for _ in range(100)]))
    elapsed = time.monotonic() - t0

    assert report.test_accuracy >= 0.85, \
        f"test accuracy {report.test_accuracy:.3f}"
    assert top_sim > rand_med, \
        f"top mask similarity {top_sim:.4f} <= random median {rand_med:.4f}"
    assert elapsed < 1800.0, f"run took {elapsed:.0f}s"
    return (f"test accuracy {report.test_accuracy:.3f}, top-significance "
            f"mask ring similarity {top_sim:.4f} vs random median "
            f"{rand_med:.4f} ({elapsed / 60:.1f} min)")


# --- 9: the codebook settles by the end of training ----------------------

@criterion(9)
def test_c09_codebook_settles(mutag, monkeypatch):
    # mechanism check on a stationary feature stream: once the response
    # distribution stops moving, warm-started refits stay put
    ds = generate_triangle_cycle_dataset(60, stream(0, "synth"))
    net = ex.build_network(1, num_masks=4, mask_nodes=3, radius=1,
                           wl_iterations=1, num_layers=2, quantizer_k=4)
    cfg = ex.TrainConfig(epochs=30, batch_size=32, seed=0)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    params, _ = ex.train(ds, split, net, cfg)
    graphs = [ds.graphs[i] for i in split.train]
    trace = ForwardEngine(net).forward_graphs(params, graphs)
    z = trace.layers[0].before
    cb = Codebook(k=4)
    rng = stream(0, "kmeans")
    ratio = np.inf
    for _ in range(100):
        rows = rng.choice(z.shape[0], size=160, replace=False)
        fit_update(cb, z[rows], rng=rng)
        ratio = cb.last_displacement
    assert ratio < 0.05, f"stationary displacement ratio {ratio:.4f}"
    held = (f"stationary-stream displacement settled to {ratio:.4f} "
            f"of the mean centroid gap")

    if mutag is None:
        skip_criterion(9, f"{MUTAG_HINT}; {held}")
    seen = []
    real = model.fit_update

    def recorder(cb, X, rng=None, **kwargs):
        out = real(cb, X, rng=rng, **kwargs)
        seen.append(cb.last_displacement)
        return out

    monkeypatch.setattr(model, "fit_update", recorder)
    net, cfg, split = _baseline(mutag, num_layers=2, epochs=100)
    ex.train(mutag, split, net, cfg)
    assert seen, "quantizer never ran"
    assert seen[-1] < 0.05, f"final displacement ratio {seen[-1]:.4f}"
    return (f"final-epoch displacement {seen[-1]:.4f} of the mean "
            f"centroid gap over {len(seen)} refits; {held}")


# --- 10: identical reruns are bitwise identical ---------------------------

@criterion(10)
def test_c10_rerun_is_bitwise_identical(mutag_run, synthetic_run, tmp_path):
    run = mutag_run if mutag_run is not None else synthetic_run
    _, again, _ = _timed_train(run["ds"], run["net"], run["cfg"],
                               run["split"])
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run["report"].to_csv(first, timing=False)
    again.to_csv(second, timing=False)
    assert first.read_bytes() == second.read_bytes(), \
        "rerun produced a different report"
    rows = len(run["report"].rows)
    if mutag_run is None:
        skip_criterion(10, f"{MUTAG_HINT}; synthetic rerun reproduced "
                           f"all {rows} report rows bitwise")
    return f"rerun reproduced all {rows} report rows bitwise"
