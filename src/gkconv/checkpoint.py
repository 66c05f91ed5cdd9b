"""Single-file binary checkpoints.

Layout: 4-byte magic, u32 format version, u64 manifest length, manifest
JSON, then the raw little-endian array payloads back to back. The
manifest carries the network shape, counters, optimizer step counts and
one entry (name, dtype, shape, offset) per array. A human-readable
key=value sidecar is written next to the binary for quick inspection.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .drd import EditProbabilities
from .graphs import LabeledGraph, LabelDictionary
from .head import MlpParams
from .kernels import KernelConfig
from .model import (LayerConfig, ModelParams, NetworkConfig, StructuralMask)
from .optim import Adam
from .quantizer import Codebook

MAGIC = b"GKCV"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _np_le(arr):
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind == "f":
        return arr.astype("<f8", copy=False)
    if arr.dtype.kind in "iu":
        return arr.astype("<i8", copy=False)
    raise CheckpointError(f"unsupported dtype {arr.dtype}")


def _adam_blob(prefix, opt: Adam, arrays, meta):
    state = opt.state()
    meta[f"{prefix}.t"] = state.pop("t")
    meta[f"{prefix}.lr"] = opt.lr
    arrays.update((f"{prefix}.{key}", arr) for key, arr in state.items())


def _load_adam(prefix, meta, arrays) -> Adam:
    opt = Adam(float(meta[f"{prefix}.lr"]))
    head = f"{prefix}."
    opt.load_state({"t": meta[f"{prefix}.t"],
                    **{key[len(head):]: arr for key, arr in arrays.items()
                       if key.startswith(head)}})
    return opt


def _net_meta(net: NetworkConfig) -> dict:
    return {
        "layers": [{
            "num_masks": l.num_masks,
            "max_mask_nodes": l.max_mask_nodes,
            "radius": l.radius,
            "kernel": {"kind": l.kernel.kind,
                       "wl_iterations": l.kernel.wl_iterations,
                       "normalized": l.kernel.normalized},
            "dict_size": l.input_dictionary.size,
        } for l in net.layers],
        "quantizer_k": [k for k in net.quantizer_k],
    }


def _net_from_meta(meta: dict) -> NetworkConfig:
    layers = tuple(LayerConfig(
        num_masks=int(l["num_masks"]),
        max_mask_nodes=int(l["max_mask_nodes"]),
        radius=int(l["radius"]),
        kernel=KernelConfig(kind=l["kernel"]["kind"],
                            wl_iterations=int(l["kernel"]["wl_iterations"]),
                            normalized=bool(l["kernel"]["normalized"])),
        input_dictionary=LabelDictionary(int(l["dict_size"])))
        for l in meta["layers"])
    qk = tuple(None if k is None else int(k) for k in meta["quantizer_k"])
    return NetworkConfig(layers=layers, quantizer_k=qk)


def save_checkpoint(path, net: NetworkConfig, params: ModelParams,
                    counters: dict = None) -> Path:
    path = Path(path)
    arrays = {}
    meta = {"net": _net_meta(net), "counters": dict(counters or {})}

    for l, bank in enumerate(params.masks):
        for i, mask in enumerate(bank):
            pre = f"masks.{l}.{i}"
            ws = mask.workspace
            arrays[f"{pre}.edges"] = np.array(ws.edges,
                                              dtype=np.int64).reshape(-1, 2)
            arrays[f"{pre}.labels"] = np.array(ws.labels, dtype=np.int64)
            ep = mask.edit_probs
            arrays[f"{pre}.edge_logits"] = ep.edge_logits
            arrays[f"{pre}.label_logits"] = ep.label_logits
            _adam_blob(f"{pre}.edge_opt", ep.edge_opt, arrays, meta)
            _adam_blob(f"{pre}.label_opt", ep.label_opt, arrays, meta)

    cb_meta = []
    for j, cb in enumerate(params.codebooks):
        if cb is None:
            cb_meta.append(None)
            continue
        cb_meta.append({"k": cb.k, "initialized": cb.initialized,
                        "degenerate": cb.degenerate,
                        "last_displacement": cb.last_displacement})
        if cb.initialized:
            arrays[f"codebooks.{j}.centroids"] = cb.centroids
    meta["codebooks"] = cb_meta

    if params.mlp is not None:
        mlp = params.mlp
        arrays["mlp.W1"] = mlp.W1
        arrays["mlp.b1"] = mlp.b1
        arrays["mlp.W2"] = mlp.W2
        arrays["mlp.b2"] = mlp.b2
        _adam_blob("mlp.opt", mlp.opt, arrays, meta)
        meta["has_mlp"] = True
    else:
        meta["has_mlp"] = False

    index = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = _np_le(arrays[name])
        index.append({"name": name, "dtype": str(arr.dtype),
                      "shape": list(arr.shape), "offset": len(payload),
                      "nbytes": arr.nbytes})
        payload.extend(arr.tobytes())
    manifest = json.dumps({"meta": meta, "arrays": index},
                          sort_keys=True).encode()

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(manifest)))
        f.write(manifest)
        f.write(bytes(payload))

    side = ["format=gkconv-checkpoint", f"version={VERSION}"]
    for key, val in sorted(meta["counters"].items()):
        side.append(f"{key}={val}")
    for l, lm in enumerate(meta["net"]["layers"]):
        side.append(f"layer{l}.num_masks={lm['num_masks']}")
        side.append(f"layer{l}.max_mask_nodes={lm['max_mask_nodes']}")
        side.append(f"layer{l}.radius={lm['radius']}")
        side.append(f"layer{l}.kernel={lm['kernel']['kind']}")
        side.append(f"layer{l}.wl_iterations={lm['kernel']['wl_iterations']}")
        side.append(f"layer{l}.normalized={lm['kernel']['normalized']}")
        side.append(f"layer{l}.dict_size={lm['dict_size']}")
    side.append("quantizer_k=" + ",".join(
        "none" if k is None else str(k) for k in meta["net"]["quantizer_k"]))
    Path(str(path) + ".config.txt").write_text("\n".join(side) + "\n")
    return path


def load_checkpoint(path):
    """Returns (net, params, counters)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    if len(blob) < 16:
        raise CheckpointError(f"{path} is truncated (no header)")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    mlen = struct.unpack("<Q", blob[8:16])[0]
    if 16 + mlen > len(blob):
        raise CheckpointError(f"{path} is truncated (manifest cut short)")
    try:
        manifest = json.loads(blob[16:16 + mlen].decode())
        meta = manifest["meta"]
        entries = manifest["arrays"]
    except (ValueError, KeyError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path} has a corrupt manifest: {e}") from e
    data = blob[16 + mlen:]

    arrays = {}
    for ent in entries:
        try:
            count = int(np.prod(ent["shape"], dtype=np.int64)) \
                if ent["shape"] else 1
            arr = np.frombuffer(data, dtype=ent["dtype"], count=count,
                                offset=ent["offset"]).reshape(ent["shape"])
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointError(
                f"{path}: bad payload for array "
                f"{ent.get('name', '?')!r}: {e}") from e
        arrays[ent["name"]] = arr.copy()

    try:
        net = _net_from_meta(meta["net"])
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path} has a corrupt manifest: {e}") from e

    try:
        masks = []
        for l, layer in enumerate(net.layers):
            bank = []
            for i in range(layer.num_masks):
                pre = f"masks.{l}.{i}"
                edges = [tuple(int(x) for x in row)
                         for row in arrays[f"{pre}.edges"]]
                labels = [int(x) for x in arrays[f"{pre}.labels"]]
                ws = LabeledGraph(layer.max_mask_nodes, edges, labels)
                ep = EditProbabilities(
                    edge_logits=arrays[f"{pre}.edge_logits"].astype(np.float64),
                    label_logits=arrays[f"{pre}.label_logits"].astype(np.float64),
                    edge_opt=_load_adam(f"{pre}.edge_opt", meta, arrays),
                    label_opt=_load_adam(f"{pre}.label_opt", meta, arrays))
                bank.append(StructuralMask(ws, ep))
            masks.append(bank)

        codebooks = []
        for j, cm in enumerate(meta["codebooks"]):
            if cm is None:
                codebooks.append(None)
                continue
            cb = Codebook(k=int(cm["k"]))
            cb.initialized = bool(cm["initialized"])
            cb.degenerate = bool(cm["degenerate"])
            cb.last_displacement = float(cm["last_displacement"])
            if cb.initialized:
                cb.centroids = arrays[f"codebooks.{j}.centroids"].astype(
                    np.float64)
            codebooks.append(cb)

        mlp = None
        if meta.get("has_mlp"):
            mlp = MlpParams(W1=arrays["mlp.W1"].astype(np.float64),
                            b1=arrays["mlp.b1"].astype(np.float64),
                            W2=arrays["mlp.W2"].astype(np.float64),
                            b2=arrays["mlp.b2"].astype(np.float64),
                            opt=_load_adam("mlp.opt", meta, arrays))
        params = ModelParams(masks=masks, codebooks=codebooks, mlp=mlp)
    except (KeyError, ValueError, TypeError) as e:
        raise CheckpointError(f"{path} has missing or corrupt data: {e}") from e
    return net, params, dict(meta.get("counters", {}))
