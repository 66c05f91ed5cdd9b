"""In-process exercises of every subcommand and the exit code contract."""

import contextlib
import io
import zipfile

import pytest

from gkconv import cli, experiment
from gkconv.cli import main

TINY = ["--masks", "2", "--mask-nodes", "3", "--radius", "1",
        "--wl-iters", "1", "--epochs", "2", "--batch", "4"]

# every subcommand, with one of its int options (None: it has none)
COMMANDS = {"train": "epochs", "cv": "folds", "grid": "sample",
            "synth": "count", "masks": "top", "kernel": "wl_iters",
            "expressiveness": None, "fetch": None}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    code, out = run(["synth", "--motif", "triangle-cycle", "--count", "8",
                     "--out", str(root), "--seed", "2"])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("run")
    code, text = run(["train", "--data", str(corpus), "--name",
                      "triangle_cycle", "--out", str(out)] + TINY)
    assert code == 0
    return out, text


def test_synth_writes_motif_corpus_with_meta(tmp_path, capsys):
    code = main(["synth", "--motif", "ring", "--size", "5", "--count", "6",
                 "--out", str(tmp_path), "--name", "toy", "--seed", "1"])
    assert code == 0
    assert "wrote 6 graphs" in capsys.readouterr().out
    d = tmp_path / "toy"
    for suffix in ("A", "graph_indicator", "graph_labels", "node_labels",
                   "meta"):
        assert (d / f"toy_{suffix}.txt").exists()
    meta = (d / "toy_meta.txt").read_text()
    assert "motif_kind=ring" in meta and "seed=1" in meta


def test_synth_triangle_cycle_has_no_meta(corpus):
    d = corpus / "triangle_cycle"
    assert (d / "triangle_cycle_A.txt").exists()
    assert not (d / "triangle_cycle_meta.txt").exists()


def test_synth_unknown_motif_is_usage_error(tmp_path, capsys):
    code = main(["synth", "--motif", "torus", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown motif" in capsys.readouterr().err


def test_synth_bad_count_is_runtime_error(tmp_path, capsys):
    code = main(["synth", "--motif", "ring", "--count", "3",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_writes_artifacts(run_dir):
    out, text = run_dir
    assert "test accuracy:" in text
    assert (out / "config.txt").exists()
    assert (out / "model.gkc").exists()
    assert (out / "model.gkc.config.txt").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 3  # header + 2 epochs
    assert report[0].startswith("epoch,")
    cfg = (out / "config.txt").read_text()
    assert "epochs=2" in cfg and "masks=2" in cfg


def test_train_batch_of_one_with_more_codes_than_nodes(corpus, tmp_path):
    # the first junction fit sees one graph of 6-7 nodes and 16 codes
    code, text = run(["train", "--data", str(corpus), "--name",
                      "triangle_cycle", "--out", str(tmp_path), "--layers",
                      "2", "--quantizer-k", "16"] + TINY + ["--batch", "1"])
    assert code == 0, text
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 3


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path), "--name", "nope"])
    assert code == 2
    assert "usage error:" in capsys.readouterr().err


def test_train_requires_name(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path)])
    assert code == 2
    assert "requires --name" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_1(corpus, tmp_path, capsys):
    code = main(["train", "--data", str(corpus), "--name", "triangle_cycle",
                 "--out", str(tmp_path), "--mlp-lr", "1e308"] + TINY)
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--prob-lr", "nan"), ("--prob-lr", "0"), ("--mlp-lr", "nan"),
    ("--mlp-lr", "inf"), ("--jsd-weight", "nan")])
def test_train_rejects_bad_rates_before_writing(corpus, tmp_path, capsys,
                                                flag, value):
    out = tmp_path / "run"
    code = main(["train", "--data", str(corpus), "--name", "triangle_cycle",
                 "--out", str(out), flag, value] + TINY)
    assert code != 0
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_config_file_sits_between_defaults_and_flags(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# comment\ncount=4\nsize=5\n")
    code = main(["synth", "--motif", "ring", "--config", str(cfg),
                 "--count", "6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "  count=6" in out   # flag beats file
    assert "  size=5" in out    # file beats default
    assert "  seed=0" in out    # default
    assert "wrote 6 graphs" in out


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_command_gets_its_resolved_config(cmd, tmp_path, capsys,
                                                monkeypatch):
    # main resolves and prints the config once, then hands it over
    seen = []
    monkeypatch.setattr(cli, f"cmd_{cmd}", lambda cfg: seen.append(cfg) or 0)
    key = COMMANDS[cmd]
    argv = [cmd]
    if key:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}=7\n")
        argv += ["--config", str(cfg_file)]
    assert main(argv) == 0
    cfg, = seen
    assert key is None or cfg[key] == 7
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"resolved config ({cmd}):"
    assert [ln.split("=")[0].strip() for ln in lines[1:]] == sorted(cfg)


@pytest.mark.parametrize("cmd", COMMANDS)
def test_config_file_errors(cmd, tmp_path, capsys):
    code = main([cmd, "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n")
    assert main([cmd, "--config", str(bad)]) == 2
    assert "unknown config keys: bogus" in capsys.readouterr().err

    key = COMMANDS[cmd]
    if key:
        bad.write_text(f"{key}=abc\n")
        assert main([cmd, "--config", str(bad)]) == 2
        assert f"config key {key}" in capsys.readouterr().err

    bad.write_text("count\n")
    assert main([cmd, "--config", str(bad)]) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_unknown_kernel_is_usage_error(corpus, capsys):
    code = main(["kernel", "--data", str(corpus), "--name", "triangle_cycle",
                 "--kernel", "rbf"])
    assert code == 2
    assert "unknown kernel" in capsys.readouterr().err


def test_kernel_writes_gram_csv(corpus, tmp_path, capsys):
    out = tmp_path / "gram.csv"
    code = main(["kernel", "--data", str(corpus), "--name", "triangle_cycle",
                 "--wl-iters", "1", "--normalized", "--out", str(out)])
    assert code == 0
    assert "wrote 8x8 gram matrix" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "graph," + ",".join(str(i) for i in range(8))
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 8
    for i, row in enumerate(rows):
        assert float(row[i + 1]) == pytest.approx(1.0)  # normalized diagonal
    assert rows[0][2] == rows[1][1]  # symmetric as printed


def test_masks_command(corpus, run_dir, tmp_path, capsys):
    out_dir, _ = run_dir
    dots = tmp_path / "dots"
    code = main(["masks", "--ckpt", str(out_dir / "model.gkc"),
                 "--data", str(corpus), "--name", "triangle_cycle",
                 "--out", str(dots)])
    assert code == 0
    text = capsys.readouterr().out
    assert "loss when removed" in text
    sig = (dots / "significance.csv").read_text().splitlines()
    assert sig[0] == "layer,mask,loss_increase,ablated_loss,base_loss"
    assert len(sig) == 3  # two masks ranked
    assert (dots / "mask_L0_M0.dot").exists()
    assert (dots / "response_L0_M1.dot").exists()


def test_masks_requires_ckpt(corpus, capsys):
    code = main(["masks", "--data", str(corpus), "--name", "triangle_cycle"])
    assert code == 2
    assert "requires --ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,flag,value", [
    ("masks", "--jsd-weight", "nan"), ("masks", "--jsd-weight", "inf"),
    ("masks", "--jsd-weight", "-1"), ("masks", "--top", "-1"),
    ("cv", "--jobs", "0"), ("cv", "--jobs", "-1"), ("grid", "--jobs", "0"),
    ("grid", "--jobs", "-1"), ("grid", "--sample", "-1")])
def test_out_of_range_numbers_are_usage_errors_before_writing(
        corpus, run_dir, tmp_path, capsys, cmd, flag, value):
    out = tmp_path / "out"
    argv = [cmd, "--data", str(corpus), "--name", "triangle_cycle",
            "--out", str(out), flag, value]
    if cmd == "masks":
        argv += ["--ckpt", str(run_dir[0] / "model.gkc")]
    else:
        argv += TINY + (["--folds", "2"] if cmd == "cv" else
                        ["--grid-masks", "2", "--grid-nodes", "3",
                         "--grid-radius", "1", "--grid-layers", "1"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} must be finite and >= ")
    assert len(err.splitlines()) == 1  # no traceback
    assert not out.exists()


def test_cv_command(corpus, tmp_path, capsys):
    out = tmp_path / "cv"
    code = main(["cv", "--data", str(corpus), "--name", "triangle_cycle",
                 "--folds", "2", "--out", str(out)] + TINY)
    assert code == 0
    assert "mean accuracy:" in capsys.readouterr().out
    summary = (out / "cv_summary.csv").read_text().splitlines()
    assert summary[0] == "fold,test_accuracy"
    assert len(summary) == 5  # 2 folds + mean + stderr
    assert (out / "fold0_report.csv").exists()
    assert (out / "fold1_report.csv").exists()


def test_grid_command(corpus, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["grid", "--data", str(corpus), "--name", "triangle_cycle",
                 "--grid-masks", "2", "--grid-nodes", "3",
                 "--grid-radius", "1", "--grid-layers", "1,2",
                 "--wl-iters", "1", "--epochs", "1", "--batch", "4",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "ran 2 configurations" in text and "best:" in text
    board = (out / "leaderboard.csv").read_text().splitlines()
    assert len(board) == 3
    assert "num_masks" in board[0] and "status" in board[0]


def test_grid_rejects_an_invalid_grid_before_writing(corpus, tmp_path,
                                                     capsys):
    out = tmp_path / "grid"
    code = main(["grid", "--data", str(corpus), "--name", "triangle_cycle",
                 "--grid-masks", "2,0", "--grid-nodes", "3",
                 "--grid-radius", "1", "--grid-layers", "1",
                 "--wl-iters", "1", "--epochs", "1", "--batch", "4",
                 "--out", str(out)])
    assert code == 1
    assert "need >= 1 mask, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_grid_passes_raw_and_quantizer_k(corpus, tmp_path, monkeypatch):
    seen, build = [], experiment.build_network

    def spy(*args, **kw):
        seen.append(kw)
        return build(*args, **kw)
    monkeypatch.setattr(experiment, "build_network", spy)
    code, _ = run(["grid", "--data", str(corpus), "--name", "triangle_cycle",
                   "--grid-masks", "2", "--grid-nodes", "3",
                   "--grid-radius", "1", "--grid-layers", "2",
                   "--raw", "true", "--quantizer-k", "3", "--wl-iters", "1",
                   "--epochs", "1", "--batch", "4",
                   "--out", str(tmp_path / "grid")])
    assert code == 0
    assert len(seen) == 1
    assert seen[0]["normalized"] is False and seen[0]["quantizer_k"] == 3
    assert seen[0]["wl_iterations"] == 1


def test_train_cv_and_grid_build_one_network(corpus, tmp_path, monkeypatch):
    # one option set: train, cv and grid hand build_network the same
    # keyword arguments, apart from the four a grid sweeps
    seen, build = [], experiment.build_network

    def spy(*args, **kw):
        seen.append(kw)
        return build(*args, **kw)
    monkeypatch.setattr(experiment, "build_network", spy)
    opts = ["--data", str(corpus), "--name", "triangle_cycle",
            "--kernel", "graphlet3", "--raw", "true", "--quantizer-k", "3",
            "--wl-iters", "2", "--masks", "2", "--mask-nodes", "3",
            "--radius", "1", "--layers", "2", "--epochs", "1",
            "--batch", "4"]
    extra = {"train": [], "cv": ["--folds", "2"],
             "grid": ["--grid-masks", "3", "--grid-nodes", "4",
                      "--grid-radius", "2", "--grid-layers", "1"]}
    got = {}
    for cmd, more in extra.items():
        del seen[:]
        code, _ = run([cmd, *opts, *more, "--out", str(tmp_path / cmd)])
        assert code == 0 and len(seen) == 1
        got[cmd] = seen[0]
    swept = ("num_masks", "mask_nodes", "radius", "num_layers")
    assert got["train"] == got["cv"] == {
        "num_masks": 2, "mask_nodes": 3, "radius": 1, "num_layers": 2,
        "kernel_kind": "graphlet3", "wl_iterations": 2, "normalized": False,
        "quantizer_k": 3}
    assert {k: v for k, v in got["grid"].items() if k not in swept} == \
        {k: v for k, v in got["train"].items() if k not in swept}
    assert [got["grid"][k] for k in swept] == [3, 4, 2, 1]


def test_expressiveness_command(capsys):
    assert main(["expressiveness"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_fetch_requires_name(capsys):
    assert main(["fetch"]) == 2
    assert "requires --name" in capsys.readouterr().err


def test_fetch_network_failure_exits_1(tmp_path, capsys, monkeypatch):
    def refuse(url, timeout=0):
        raise OSError("no route to host")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    code = main(["fetch", "--name", "TOY", "--data", str(tmp_path)])
    assert code == 1
    assert "could not download" in capsys.readouterr().err


def test_fetch_unpacks_zip(tmp_path, capsys, monkeypatch):
    payload = io.BytesIO()
    with zipfile.ZipFile(payload, "w") as zf:
        zf.writestr("TOY/TOY_A.txt", "1, 2\n2, 1\n")
        zf.writestr("TOY/TOY_graph_indicator.txt", "1\n1\n")
        zf.writestr("TOY/TOY_graph_labels.txt", "1\n")
        zf.writestr("TOY/README", "ignored")

    class FakeResponse(io.BytesIO):
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    def serve(url, timeout=0):
        assert url.endswith("/TOY.zip")
        return FakeResponse(payload.getvalue())

    monkeypatch.setattr("urllib.request.urlopen", serve)
    code = main(["fetch", "--name", "TOY", "--data", str(tmp_path)])
    assert code == 0
    assert "unpacked" in capsys.readouterr().out
    assert (tmp_path / "TOY" / "TOY_A.txt").exists()
    assert not (tmp_path / "TOY" / "README").exists()
    code = main(["train", "--data", str(tmp_path), "--name", "TOY",
                 "--epochs", "0"])
    assert code == 1  # loads fine, but a one-graph corpus cannot split


def test_argparse_level_errors_exit_2():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["train", "--epochs", "abc"])
    assert ei.value.code == 2
