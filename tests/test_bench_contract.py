"""The benchmark's contract with the package.

``benchmarks/`` reaches into gkconv by name: its tracer wraps public
functions at their module bindings and two methods on their classes, its
reference path rebuilds features from ``ego_subgraph`` and
``kernel_matrix``, and its workloads build networks through
``build_network``. These tests run those pieces on tiny inputs, so that
renaming or deleting a name the benchmark binds fails here too, not only
in ``benchmarks/selftest.py``.
"""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from gkconv import experiment, head, model  # noqa: E402
from gkconv.data import take  # noqa: E402
from gkconv.rng import stream  # noqa: E402


def tiny(name):
    """A workload's corpus, split, network and config at 20 graphs and
    one epoch."""
    return make_inputs(WORKLOADS[name], 5, scale=0.01, epochs=1)


def fitted(name):
    """A tiny workload's untrained params, its junction codebook fitted on
    the first 7 graphs, and those graphs with their classes."""
    ds, _, net, cfg = tiny(name)
    params = experiment.init_params(net, ds.num_classes, cfg)
    graphs, ys = take(ds, range(7))
    model.ForwardEngine(net).forward_graphs(params, graphs,
                                            fit_rng=stream(0, "kmeans"))
    return net, cfg, params, graphs, ys


def bindings():
    """Every attribute of every loaded gkconv module, plus the methods
    the tracer wraps on their classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if (name == "gkconv" or name.startswith("gkconv.")) and mod:
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    for modname, clsname, meth, _ in tracer.METHODS:
        cls = getattr(sys.modules[f"gkconv.{modname}"], clsname)
        out[(clsname, meth)] = cls.__dict__[meth]
    return out


def test_every_traced_name_exists():
    spans = {m[3] for m in tracer.METHODS}
    for layer in tracer.LAYERS:
        mod = sys.modules[f"gkconv.{layer}"]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                spans.add(tracer.RENAMES.get(name, name))
    for name in tracer.RENAMES:
        layer, _, attr = name.partition(".")
        assert inspect.isfunction(
            getattr(sys.modules[f"gkconv.{layer}"], attr, None)), name
    assert set(tracer.HOOKS) <= spans


def test_tracer_install_and_uninstall_restore_every_binding():
    ds, split, net, cfg = tiny("ring6_l1")
    before = bindings()
    t = tracer.Tracer().install()
    try:
        wrapped = bindings()
        changed = {k for k, v in before.items() if wrapped[k] is not v}
        assert ("gkconv.drd", "drd_step_batched") in changed
        assert ("ForwardEngine", "forward_graphs") in changed
        assert ("WlColorTable", "refine") in changed
        experiment.train(ds, split, net, cfg)
    finally:
        t.uninstall()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())
    calls = {name: row["calls"] for name, row in t.span_table().items()}
    for name in ("model.forward", "kernels.refine", "drd.step",
                 "drd.responses", "experiment.evaluate"):
        assert calls.get(name, 0) > 0, name
    steps = sum(t.counters[k] for k in ("drd.accepted_effective",
                                        "drd.accepted_noop", "drd.rejected",
                                        "drd.no_edit"))
    assert steps == calls["drd.step"]


@pytest.mark.parametrize("name", ["ring6_l1", "ring6_l2", "tricycle_g3"])
def test_reference_features_match_engine_bitwise(name):
    """ring6_l1 is a 1-layer WL net, ring6_l2 a 2-layer WL net with a
    quantizing junction and tricycle_g3 a graphlet3 net. The second pass
    of the same engine is served from what the first one kept, as the
    benchmark's warm passes are."""
    ds, split, net, cfg = tiny(name)
    params, _ = experiment.train(ds, split, net, cfg)
    sample = ds.graphs[:4]
    engine = model.ForwardEngine(net)
    for _ in range(2):
        feats = engine.forward_graphs(params, sample).features
        for g, f in zip(sample, feats):
            want = checks.reference_features(net, params, g)
            assert want.shape == f.shape and want.tobytes() == f.tobytes()
        assert checks.feature_mismatches(net, params, sample, feats) == 0


def test_head_graphs_counts_the_graphs_passed_to_batch_loss():
    # the tracer reads len(args[1]) of head.batch_loss: the feature list,
    # one (n_g, m) block per graph
    net, cfg, params, graphs, ys = fitted("ring6_l1")
    engine = model.ForwardEngine(net)
    with tracer.Tracer() as t:
        loss, _ = experiment.evaluate(engine, params, graphs, ys,
                                      cfg.jsd_weight)
        feats = engine.forward_graphs(params, graphs).features
        assert head.batch_loss(params.mlp, feats, ys, cfg.jsd_weight) == loss
    assert t.counters["head.graphs"] == len(graphs)


@pytest.mark.parametrize("name", ["ring6_l1", "ring6_l2", "tricycle_g3"])
def test_forward_egos_counts_nodes_times_layers(name):
    # the tracer reads the row counts of forward_graphs(...).features,
    # one (n_g, feature_dim) block per graph
    net, cfg, params, graphs, ys = fitted(name)
    feats = model.ForwardEngine(net).forward_graphs(params, graphs).features
    assert [f.shape for f in feats] == [(g.num_nodes, net.feature_dim)
                                        for g in graphs]
    with tracer.Tracer() as t:
        experiment.evaluate(model.ForwardEngine(net), params, graphs, ys,
                            cfg.jsd_weight)
    assert t.counters["model.forward.egos"] == sum(
        g.num_nodes for g in graphs) * net.num_layers
