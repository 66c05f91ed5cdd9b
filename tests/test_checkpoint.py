"""Binary checkpoint format: roundtrips, sidecar, corruption handling."""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import gkconv.experiment as ex
import gkconv.checkpoint
from gkconv.checkpoint import (MAGIC, VERSION, CheckpointError,
                               load_checkpoint, save_checkpoint)
from gkconv.data import generate_triangle_cycle_dataset, split_holdout
from gkconv.graphs import LabelDictionary
from gkconv.kernels import WL_SUBTREE, KernelConfig
from gkconv.model import (ForwardEngine, LayerConfig, ModelError,
                          ModelParams, NetworkConfig)
from gkconv.rng import stream


def trained_two_layer():
    ds = generate_triangle_cycle_dataset(8, np.random.default_rng(0))
    net = ex.build_network(1, num_masks=2, mask_nodes=3, radius=1,
                           wl_iterations=1, num_layers=2, quantizer_k=2)
    cfg = ex.TrainConfig(epochs=2, batch_size=4, seed=3)
    split = split_holdout(ds, stream(cfg.seed, "splits"))
    params, _ = ex.train(ds, split, net, cfg)
    return ds, net, params


def assert_resave_is_identical(path, counters=None):
    """save(load(save(p))) writes the bytes save(p) wrote."""
    net, params, _ = load_checkpoint(path)
    again = save_checkpoint(path.with_name("again.gkc"), net, params,
                            counters)
    assert again.read_bytes() == path.read_bytes()
    assert Path(f"{again}.config.txt").read_bytes() == \
        Path(f"{path}.config.txt").read_bytes()


def rewrite_manifest(path, edit):
    """Replace the manifest of the checkpoint at path by edit(manifest)."""
    blob = path.read_bytes()
    mlen = struct.unpack("<Q", blob[8:16])[0]
    manifest = edit(json.loads(blob[16:16 + mlen].decode()))
    enc = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(enc)) + enc
                     + blob[16 + mlen:])


def assert_adam_equal(a, b):
    assert a.t == b.t and a.lr == b.lr
    assert sorted(a.m) == sorted(b.m) and sorted(a.v) == sorted(b.v)
    for k in a.m:
        assert np.array_equal(a.m[k], b.m[k])
    for k in a.v:
        assert np.array_equal(a.v[k], b.v[k])


def test_roundtrip_is_bitwise(tmp_path):
    ds, net, params = trained_two_layer()
    path = tmp_path / "model.gkc"
    save_checkpoint(path, net, params, {"epoch": 2, "step": 11})
    net2, params2, counters = load_checkpoint(path)

    assert counters == {"epoch": 2, "step": 11}
    assert net2.quantizer_k == net.quantizer_k
    for l1, l2 in zip(net.layers, net2.layers):
        assert (l1.num_masks, l1.max_mask_nodes, l1.radius) == \
            (l2.num_masks, l2.max_mask_nodes, l2.radius)
        assert l1.kernel == l2.kernel
        assert l1.input_dictionary.size == l2.input_dictionary.size

    for bank1, bank2 in zip(params.masks, params2.masks):
        for m1, m2 in zip(bank1, bank2):
            assert m1.workspace.edges == m2.workspace.edges
            assert m1.workspace.labels == m2.workspace.labels
            assert np.array_equal(m1.edit_probs.edge_logits,
                                  m2.edit_probs.edge_logits)
            assert np.array_equal(m1.edit_probs.label_logits,
                                  m2.edit_probs.label_logits)
            assert_adam_equal(m1.edit_probs.edge_opt, m2.edit_probs.edge_opt)
            assert_adam_equal(m1.edit_probs.label_opt,
                              m2.edit_probs.label_opt)

    cb1, cb2 = params.codebooks[0], params2.codebooks[0]
    assert cb1.initialized and cb2.initialized
    assert (cb1.k, cb1.degenerate, cb1.last_displacement) == \
        (cb2.k, cb2.degenerate, cb2.last_displacement)
    assert np.array_equal(cb1.centroids, cb2.centroids)

    assert np.array_equal(params.mlp.W1, params2.mlp.W1)
    assert np.array_equal(params.mlp.b1, params2.mlp.b1)
    assert np.array_equal(params.mlp.W2, params2.mlp.W2)
    assert np.array_equal(params.mlp.b2, params2.mlp.b2)
    assert_adam_equal(params.mlp.opt, params2.mlp.opt)

    # the loaded model computes the exact same features
    want = ForwardEngine(net).forward_graphs(params, ds.graphs[:4]).features
    got = ForwardEngine(net2).forward_graphs(params2, ds.graphs[:4]).features
    for a, b in zip(want, got):
        assert np.array_equal(a, b)
    assert_resave_is_identical(path, counters)


def test_sidecar_is_written(tmp_path):
    _, net, params = trained_two_layer()
    path = tmp_path / "model.gkc"
    save_checkpoint(path, net, params, {"epoch": 2})
    side = (tmp_path / "model.gkc.config.txt").read_text().splitlines()
    assert "format=gkconv-checkpoint" in side
    assert f"version={VERSION}" in side
    assert "epoch=2" in side
    assert "layer0.num_masks=2" in side
    assert "layer1.dict_size=2" in side
    assert "quantizer_k=2" in side


def test_unfitted_codebook_and_passthrough_junction_survive(tmp_path):
    kernel = KernelConfig(kind=WL_SUBTREE, wl_iterations=1, normalized=True)
    lay = LayerConfig(num_masks=2, max_mask_nodes=3, radius=1, kernel=kernel,
                      input_dictionary=LabelDictionary(1))
    net = NetworkConfig(layers=(lay, lay), quantizer_k=(None,))
    params = ex.init_params(net, 2, ex.TrainConfig())
    assert params.codebooks == [None]
    path = save_checkpoint(tmp_path / "p.gkc", net, params)
    _, loaded, _ = load_checkpoint(path)
    assert loaded.codebooks == [None]

    net2 = ex.build_network(1, num_masks=2, mask_nodes=3, radius=1,
                            wl_iterations=1, num_layers=2, quantizer_k=2)
    fresh = ex.init_params(net2, 2, ex.TrainConfig())
    assert not fresh.codebooks[0].initialized
    path2 = save_checkpoint(tmp_path / "q.gkc", net2, fresh)
    _, loaded2, _ = load_checkpoint(path2)
    assert not loaded2.codebooks[0].initialized
    assert loaded2.codebooks[0].k == fresh.codebooks[0].k
    assert_resave_is_identical(path)
    assert_resave_is_identical(path2)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    _, net, params = trained_two_layer()
    path = save_checkpoint(tmp_path / "model.gkc", net, params, {"epoch": 2})
    files = {p: p.read_bytes() for p in tmp_path.iterdir()}
    other = ex.init_params(net, 2, ex.TrainConfig(seed=4))

    def fail(fd):
        raise OSError("device lost")

    # the new bytes are written but never reach the disk
    monkeypatch.setattr(gkconv.checkpoint.os, "fsync", fail)
    with pytest.raises(OSError, match="device lost"):
        save_checkpoint(path, net, other, {"epoch": 3})
    monkeypatch.undo()
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files
    _, loaded, counters = load_checkpoint(path)
    assert counters == {"epoch": 2}
    assert_resave_is_identical(path, counters)


@pytest.mark.parametrize("cut", ["header", "manifest", "payload"])
def test_truncated_files_are_rejected(tmp_path, cut):
    _, net, params = trained_two_layer()
    path = tmp_path / "model.gkc"
    save_checkpoint(path, net, params)
    blob = path.read_bytes()
    mlen = struct.unpack("<Q", blob[8:16])[0]
    stop = {"header": 10, "manifest": 16 + mlen // 2,
            "payload": len(blob) - 8}[cut]
    path.write_bytes(blob[:stop])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_version_and_manifest(tmp_path):
    path = tmp_path / "x.gkc"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)

    path.write_bytes(MAGIC + struct.pack("<I", VERSION + 1)
                     + struct.pack("<Q", 0))
    with pytest.raises(CheckpointError, match="unsupported"):
        load_checkpoint(path)

    garbage = b"{{{not json"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(CheckpointError, match="corrupt manifest"):
        load_checkpoint(path)

    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.gkc")


MALFORMED_MANIFESTS = {
    "counters-list": lambda m: {**m, "meta": {**m["meta"],
                                              "counters": [1, 2]}},
    "counters-number": lambda m: {**m, "meta": {**m["meta"], "counters": 5}},
    "arrays-of-strings": lambda m: {**m, "arrays": ["x"]},
    "arrays-number": lambda m: {**m, "arrays": 7},
    "manifest-list": lambda m: [m],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_a_checkpoint_error(tmp_path, case):
    _, net, params = trained_two_layer()
    path = save_checkpoint(tmp_path / "model.gkc", net, params)
    rewrite_manifest(path, MALFORMED_MANIFESTS[case])
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_manifest_with_missing_arrays_is_rejected(tmp_path):
    _, net, params = trained_two_layer()
    path = save_checkpoint(tmp_path / "model.gkc", net, params)
    rewrite_manifest(path, lambda m: {**m, "arrays": [
        e for e in m["arrays"] if e["name"] != "mlp.W1"]})
    with pytest.raises(CheckpointError, match="missing or corrupt"):
        load_checkpoint(path)


# one bad value each, against trained_two_layer's net: 3-node masks, one
# label on layer 0 and two on layer 1
BAD_MASK_ARRAYS = {
    "masks.0.0.edges": np.zeros(4, dtype=np.int64),
    "masks.0.1.edges": np.array([[0, 3]]),
    "masks.0.1.labels": np.zeros(2, dtype=np.int64),
    "masks.0.0.labels": np.array([0, 1, 0]),
    "masks.0.0.edge_logits": np.zeros(99),
    "masks.1.0.label_logits": np.zeros((3, 3)),
    "masks.0.0.edge_opt.m.edge": np.zeros(2),
    "masks.1.1.label_opt.v.label": np.zeros((2, 2)),
}


@pytest.mark.parametrize("key", sorted(BAD_MASK_ARRAYS))
def test_mask_arrays_must_fit_their_layer(key):
    _, net, params = trained_two_layer()
    state = params.state()
    assert key in state
    state[key] = BAD_MASK_ARRAYS[key]
    with pytest.raises(ModelError, match=re.escape(key) + ": expected"):
        ModelParams.from_state(net, state)


def test_checkpoint_with_a_misshapen_mask_array_names_file_and_key(
        tmp_path):
    # a 99-long edge logit vector used to load, and crash at the first
    # edge step
    _, net, params = trained_two_layer()
    params.masks[0][0].edit_probs.edge_logits = np.zeros(99)
    path = save_checkpoint(tmp_path / "model.gkc", net, params)
    with pytest.raises(CheckpointError, match=re.escape(str(path))
                       + ".*masks\\.0\\.0\\.edge_logits: expected shape "
                       "\\(3,\\), found \\(99,\\)"):
        load_checkpoint(path)


# one bad value each, against trained_two_layer's net: 4 features, a
# 2-unit hidden layer, 2 classes and a k=2 junction after 2 masks
BAD_PARAMS = {
    "mlp.W1": lambda p: setattr(p.mlp, "W1", p.mlp.W1.T),
    "mlp.b2": lambda p: setattr(p.mlp, "b2", np.zeros(5)),
    "mlp.opt.m.W1": lambda p: p.mlp.opt.m.update(W1=np.zeros(3)),
    "codebooks.0.centroids": lambda p: setattr(
        p.codebooks[0], "centroids", np.zeros((4, 1))),
    "codebooks": lambda p: p.codebooks.clear(),
    "codebooks.0": lambda p: setattr(p.codebooks[0], "k", 7),
    "codebooks.0.degenerate": lambda p: setattr(
        p.codebooks[0], "degenerate", "x"),
}


@pytest.mark.parametrize("key", list(BAD_PARAMS))
def test_checkpoint_with_misfit_mlp_or_codebook_names_file_and_key(
        tmp_path, key):
    # each of these used to load without error
    _, net, params = trained_two_layer()
    BAD_PARAMS[key](params)
    path = save_checkpoint(tmp_path / "model.gkc", net, params)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*"
                       + re.escape(key) + ": expected"):
        load_checkpoint(path)
