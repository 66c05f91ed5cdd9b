"""Command line interface.

Subcommands: train, cv, grid, synth, masks, kernel, expressiveness,
fetch. Every option can also be supplied through a key=value config file
(--config); explicit flags win over the file, the file wins over the
built-in defaults, and each run prints its fully resolved configuration
before doing any work. Exit codes: 0 success, 1 runtime failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import checkpoint, experiment
from .data import (MOTIF_KINDS, DatasetNotFoundError, MotifSpec,
                   fetch_benchmark, generate_motif_dataset,
                   generate_triangle_cycle_dataset, load_benchmark,
                   save_benchmark, split_holdout)
from .kernels import GRAPHLET3, WL_SUBTREE, KernelConfig, kernel_matrix
from .rng import stream

KERNEL_NAMES = {"wl": WL_SUBTREE, "wl_subtree": WL_SUBTREE,
                "graphlet3": GRAPHLET3}


class UsageError(ValueError):
    pass


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text):
    try:
        return tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ints, got {text!r}") from e


# dest -> (flag, type, default, help); one registry per subcommand keeps
# config-file parsing honest about names and types
_MODEL_OPTS = {
    "data": ("--data", str, "data", "dataset root directory"),
    "name": ("--name", str, None, "dataset name under the root"),
    "masks": ("--masks", int, 16, "masks per layer"),
    "mask_nodes": ("--mask-nodes", int, 6, "workspace nodes per mask"),
    "radius": ("--radius", int, 3, "ego subgraph radius"),
    "layers": ("--layers", int, 1, "number of convolution layers"),
    "kernel": ("--kernel", str, "wl", "graph kernel: wl or graphlet3"),
    "wl_iters": ("--wl-iters", int, 3, "color refinement rounds"),
    "raw": ("--raw", _parse_bool, False, "disable kernel normalization"),
    "quantizer_k": ("--quantizer-k", int, 0,
                    "junction codebook size (0 = auto)"),
    "hidden": ("--hidden", int, 0, "MLP hidden width (0 = mask count)"),
    "jsd_weight": ("--jsd-weight", float, 1e-4,
                   "weight of the redundancy penalty"),
    "epochs": ("--epochs", int, 200, "training epochs (max 1000)"),
    "batch": ("--batch", int, 32, "mini-batch size"),
    "mlp_lr": ("--mlp-lr", float, 0.001, "Adam rate for the classifier"),
    "prob_lr": ("--prob-lr", float, 0.01, "Adam rate for edit logits"),
    "patience": ("--patience", int, 100, "early stopping patience"),
    "seed": ("--seed", int, 0, "run seed"),
    "out": ("--out", str, "runs/latest", "output directory"),
}

_CV_EXTRA = {
    "folds": ("--folds", int, 10, "cross-validation folds"),
    "jobs": ("--jobs", int, 1, "parallel worker processes"),
}

_GRID_EXTRA = {
    "grid_masks": ("--grid-masks", _parse_int_list, (8, 16, 32),
                   "mask counts to sweep"),
    "grid_nodes": ("--grid-nodes", _parse_int_list, (6, 8),
                   "mask sizes to sweep"),
    "grid_radius": ("--grid-radius", _parse_int_list, (1, 2, 3),
                    "radii to sweep"),
    "grid_layers": ("--grid-layers", _parse_int_list, (1, 2, 3),
                    "layer counts to sweep"),
    "sample": ("--sample", int, 0, "random subset size (0 = full grid)"),
    "jobs": ("--jobs", int, 1, "parallel worker processes"),
}

_SYNTH_OPTS = {
    "motif": ("--motif", str, "ring",
              "ring, wheel, grid, ladder, cliques, or triangle-cycle"),
    "size": ("--size", int, 6, "motif size"),
    "cols": ("--cols", int, 0, "grid columns (0 = square)"),
    "count": ("--count", int, 2000, "number of graphs"),
    "seed": ("--seed", int, 0, "generator seed"),
    "out": ("--out", str, "data", "output dataset root"),
    "name": ("--name", str, None, "dataset name (default derived)"),
}

_MASKS_OPTS = {
    "ckpt": ("--ckpt", str, None, "checkpoint file from train"),
    "data": ("--data", str, "data", "dataset root directory"),
    "name": ("--name", str, None, "dataset name under the root"),
    "out": ("--out", str, "masks_out", "output directory"),
    "top": ("--top", int, 0, "export only the top-k masks (0 = all)"),
    "jsd_weight": ("--jsd-weight", float, 1e-4,
                   "weight of the redundancy penalty"),
}

_KERNEL_OPTS = {
    "data": ("--data", str, "data", "dataset root directory"),
    "name": ("--name", str, None, "dataset name under the root"),
    "kernel": ("--kernel", str, "wl", "graph kernel: wl or graphlet3"),
    "wl_iters": ("--wl-iters", int, 3, "color refinement rounds"),
    "normalized": ("--normalized", _parse_bool, False,
                   "normalize kernel values"),
    "out": ("--out", str, "gram.csv", "output CSV path"),
}

_FETCH_OPTS = {
    "name": ("--name", str, None, "dataset name to download"),
    "data": ("--data", str, "data", "dataset root directory"),
}


def _add_opts(sub, opts):
    sub.add_argument("--config", default=None,
                     help="key=value file of option defaults")
    for dest, (flag, typ, default, hlp) in opts.items():
        if typ is _parse_bool:
            sub.add_argument(flag, dest=dest, nargs="?", const=True,
                             default=None, type=_parse_bool, help=hlp)
        else:
            sub.add_argument(flag, dest=dest, default=None, type=typ,
                             help=hlp)


def _read_config_file(path):
    out = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file {p} does not exist")
    for ln, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{p} line {ln}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _resolve(args, opts):
    """defaults < config file < explicit flags, with key validation."""
    resolved = {}
    file_vals = {}
    if args.config:
        raw = _read_config_file(args.config)
        unknown = set(raw) - set(opts)
        if unknown:
            raise UsageError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, text in raw.items():
            typ = opts[key][1]
            try:
                file_vals[key] = typ(text)
            except (ValueError, argparse.ArgumentTypeError) as e:
                raise UsageError(f"config key {key}: {e}") from e
    for dest, (_, _, default, _) in opts.items():
        flag_val = getattr(args, dest)
        if flag_val is not None:
            resolved[dest] = flag_val
        elif dest in file_vals:
            resolved[dest] = file_vals[dest]
        else:
            resolved[dest] = default
    return resolved


def _print_config(cmd, cfg):
    print(f"resolved config ({cmd}):")
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        print(f"  {key}={val}")


def _require(cfg, key, cmd):
    if cfg[key] is None:
        raise UsageError(f"{cmd} requires --{key.replace('_', '-')}")


def _at_least(cfg, key, lo):
    """cfg[key], which must be a finite number >= lo."""
    if not lo <= cfg[key] < float("inf"):
        raise UsageError(f"--{key.replace('_', '-')} must be finite and "
                         f">= {lo}, got {cfg[key]}")
    return cfg[key]


def _kernel_kind(name):
    try:
        return KERNEL_NAMES[name.lower()]
    except KeyError:
        raise UsageError(
            f"unknown kernel {name!r}; pick one of "
            f"{', '.join(sorted(set(KERNEL_NAMES)))}") from None


def _load_dataset(cfg, cmd):
    _require(cfg, "name", cmd)
    try:
        return load_benchmark(cfg["data"], cfg["name"])
    except DatasetNotFoundError as e:
        # a bad path is an invocation mistake, not a runtime failure
        raise UsageError(str(e)) from e


def _train_config(cfg):
    return experiment.TrainConfig(
        epochs=cfg["epochs"], batch_size=cfg["batch"],
        mlp_lr=cfg["mlp_lr"], prob_lr=cfg["prob_lr"],
        jsd_weight=cfg["jsd_weight"], patience=cfg["patience"],
        seed=cfg["seed"], hidden=cfg["hidden"])


def _network(cfg):
    """build_network's keyword arguments from the model options; train,
    cv and grid all describe their networks with it."""
    return dict(num_masks=cfg["masks"], mask_nodes=cfg["mask_nodes"],
                radius=cfg["radius"], num_layers=cfg["layers"],
                kernel_kind=_kernel_kind(cfg["kernel"]),
                wl_iterations=cfg["wl_iters"], normalized=not cfg["raw"],
                quantizer_k=cfg["quantizer_k"])


def _train_pieces(cfg, ds):
    net = experiment.build_network(ds.dictionary.size, **_network(cfg))
    return net, _train_config(cfg)


def _out_dir(cfg):
    """Create the run's output directory and write the resolved config
    into it as config.txt."""
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
             for k, v in sorted(cfg.items())]
    (out_dir / "config.txt").write_text("\n".join(lines) + "\n")
    return out_dir


def cmd_train(cfg):
    ds = _load_dataset(cfg, "train")
    net, tc = _train_pieces(cfg, ds)
    split = split_holdout(ds, stream(tc.seed, "splits"))
    params, report = experiment.train(ds, split, net, tc)
    out_dir = _out_dir(cfg)
    report.to_csv(out_dir / "report.csv")
    counters = {"epochs_run": len(report.rows),
                "best_epoch": report.best_epoch, "seed": tc.seed}
    checkpoint.save_checkpoint(out_dir / "model.gkc", net, params, counters)
    print(f"epochs run: {len(report.rows)}  best epoch: {report.best_epoch}")
    print(f"test accuracy: {report.test_accuracy}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_cv(cfg):
    ds = _load_dataset(cfg, "cv")
    net, tc = _train_pieces(cfg, ds)
    result = experiment.cross_validate(ds, net, tc, folds=cfg["folds"],
                                       jobs=_at_least(cfg, "jobs", 1))
    out_dir = _out_dir(cfg)
    with open(out_dir / "cv_summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["fold", "test_accuracy"])
        for i, acc in enumerate(result.fold_accuracies):
            w.writerow([i, repr(acc)])
        w.writerow(["mean", repr(result.mean_accuracy)])
        w.writerow(["stderr", repr(result.stderr)])
    for i, rep in enumerate(result.reports):
        rep.to_csv(out_dir / f"fold{i}_report.csv")
    print(f"fold accuracies: {[round(a, 4) for a in result.fold_accuracies]}")
    print(f"mean accuracy: {result.mean_accuracy:.4f} "
          f"+/- {result.stderr:.4f} (stderr)")
    return 0


def cmd_grid(cfg):
    ds = _load_dataset(cfg, "grid")
    result = experiment.grid_search(
        ds, _train_config(cfg), _network(cfg), masks_grid=cfg["grid_masks"],
        nodes_grid=cfg["grid_nodes"], radius_grid=cfg["grid_radius"],
        layers_grid=cfg["grid_layers"], sample=_at_least(cfg, "sample", 0),
        jobs=_at_least(cfg, "jobs", 1),
        out_csv=Path(cfg["out"]) / "leaderboard.csv")
    _out_dir(cfg)
    print(f"ran {len(result.rows)} configurations")
    print("best:", {k: result.best[k]
                    for k in ("num_masks", "mask_nodes", "radius",
                              "num_layers", "val_acc", "test_acc")})
    return 0


def cmd_synth(cfg):
    rng = stream(cfg["seed"], "synth")
    if cfg["motif"] not in MOTIF_KINDS + ("triangle-cycle",):
        raise UsageError(
            f"unknown motif {cfg['motif']!r}; pick one of "
            f"{', '.join(MOTIF_KINDS)}, triangle-cycle")
    if cfg["motif"] == "triangle-cycle":
        ds = generate_triangle_cycle_dataset(cfg["count"], rng)
    else:
        spec = MotifSpec(kind=cfg["motif"], size=cfg["size"],
                         cols=cfg["cols"])
        ds = generate_motif_dataset(spec, cfg["count"], rng)
        ds.extras["seed"] = cfg["seed"]
    if cfg["name"]:
        ds.name = cfg["name"]
    path = save_benchmark(ds, cfg["out"])
    print(f"wrote {len(ds)} graphs to {path}")
    return 0


def cmd_masks(cfg):
    _require(cfg, "ckpt", "masks")
    top = _at_least(cfg, "top", 0)
    ds = _load_dataset(cfg, "masks")
    net, params, _ = checkpoint.load_checkpoint(cfg["ckpt"])
    indices = range(len(ds))
    ranking = experiment.mask_significance(
        ds, indices, net, params, jsd_weight=_at_least(cfg, "jsd_weight", 0))
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "significance.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(ranking[0].keys()))
        w.writeheader()
        w.writerows(ranking)
    written = experiment.export_mask_dots(ds, indices, net, params, out_dir,
                                          top=top)
    print(f"wrote significance.csv and {len(written)} DOT files to {out_dir}")
    for row in ranking[:5]:
        print(f"  layer {row['layer']} mask {row['mask']}: "
              f"{row['loss_increase']:+.6f} loss when removed")
    return 0


def cmd_kernel(cfg):
    ds = _load_dataset(cfg, "kernel")
    kc = KernelConfig(kind=_kernel_kind(cfg["kernel"]),
                      wl_iterations=cfg["wl_iters"],
                      normalized=cfg["normalized"])
    gram = kernel_matrix(kc, ds.graphs, ds.graphs)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["graph"] + list(range(len(ds))))
        for i, row in enumerate(gram):
            w.writerow([i] + [f"{v:.12g}" for v in row])
    print(f"wrote {gram.shape[0]}x{gram.shape[1]} gram matrix to {out}")
    return 0


def cmd_expressiveness(cfg):
    report = experiment.expressiveness_report()
    print(report.summary())
    return 0 if report.passed else 1


def cmd_fetch(cfg):
    _require(cfg, "name", "fetch")
    path = fetch_benchmark(cfg["name"], cfg["data"])
    print(f"dataset unpacked to {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkconv",
        description="graph kernel convolution networks")
    subs = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("train", cmd_train, _MODEL_OPTS,
         "train one model on a holdout split"),
        ("cv", cmd_cv, {**_MODEL_OPTS, **_CV_EXTRA},
         "stratified k-fold cross-validation"),
        ("grid", cmd_grid, {**_MODEL_OPTS, **_GRID_EXTRA},
         "hyperparameter grid search"),
        ("synth", cmd_synth, _SYNTH_OPTS,
         "generate a synthetic motif dataset"),
        ("masks", cmd_masks, _MASKS_OPTS,
         "rank trained masks and export DOT drawings"),
        ("kernel", cmd_kernel, _KERNEL_OPTS,
         "write the dataset gram matrix as CSV"),
        ("expressiveness", cmd_expressiveness, {},
         "demonstrate the refinement blind spot"),
        ("fetch", cmd_fetch, _FETCH_OPTS,
         "download a benchmark dataset (needs network)"),
    ]
    for name, fn, opts, hlp in specs:
        sub = subs.add_parser(name, help=hlp)
        _add_opts(sub, opts)
        sub.set_defaults(fn=fn, opts=opts)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.opts)
        _print_config(args.command, cfg)
        return args.fn(cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, experiment.TrainingDiverged, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
