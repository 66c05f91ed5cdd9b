"""Single-file binary checkpoints: only the container format.

Layout: 4-byte magic, u32 format version, u64 manifest length, manifest
JSON, then the arrays of ``ModelParams.state()`` as raw little-endian
payloads back to back. The manifest carries the state's JSON values,
the network shape, the caller's counters and one entry (name, dtype,
shape, offset) per array. A key=value sidecar is written next to the
binary for quick inspection. Each file goes to a synced temp file that
is renamed into place, so a failed save leaves the old checkpoint whole.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .graphs import LabelDictionary
from .kernels import KernelConfig
from .model import LayerConfig, ModelParams, NetworkConfig

MAGIC = b"GKCV"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_atomic(path: Path, data: bytes) -> None:
    """path holds data, or what it held before if the write fails."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _net_from_meta(meta: dict) -> NetworkConfig:
    layers = tuple(LayerConfig(
        **{k: int(l[k]) for k in ("num_masks", "max_mask_nodes", "radius")},
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
    state = params.state()
    meta = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
    layers = [asdict(layer) for layer in net.layers]
    for lm in layers:
        lm["dict_size"] = lm.pop("input_dictionary")["size"]
    meta.update(net={"layers": layers, "quantizer_k": list(net.quantizer_k)},
                counters=dict(counters or {}))

    index = []
    payload = bytearray()
    for name in sorted(state.keys() - meta.keys()):
        arr = state[name]
        arr = np.ascontiguousarray(
            arr, "<f8" if arr.dtype.kind == "f" else "<i8")
        index.append({"name": name, "dtype": str(arr.dtype),
                      "shape": list(arr.shape), "offset": len(payload),
                      "nbytes": arr.nbytes})
        payload.extend(arr.tobytes())
    manifest = json.dumps({"meta": meta, "arrays": index},
                          sort_keys=True).encode()

    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, b"".join((MAGIC, struct.pack("<I", VERSION),
                                  struct.pack("<Q", len(manifest)),
                                  manifest, payload)))

    side = ["format=gkconv-checkpoint", f"version={VERSION}"]
    side += [f"{key}={val}" for key, val in sorted(meta["counters"].items())]
    for l, lm in enumerate(layers):
        side.append(f"layer{l}.num_masks={lm['num_masks']}")
        side.append(f"layer{l}.max_mask_nodes={lm['max_mask_nodes']}")
        side.append(f"layer{l}.radius={lm['radius']}")
        side.append(f"layer{l}.kernel={lm['kernel']['kind']}")
        side.append(f"layer{l}.wl_iterations={lm['kernel']['wl_iterations']}")
        side.append(f"layer{l}.normalized={lm['kernel']['normalized']}")
        side.append(f"layer{l}.dict_size={lm['dict_size']}")
    side.append("quantizer_k=" + ",".join(
        "none" if k is None else str(k) for k in net.quantizer_k))
    _write_atomic(Path(str(path) + ".config.txt"),
                  ("\n".join(side) + "\n").encode())
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
    version, mlen = struct.unpack("<IQ", blob[4:16])
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if 16 + mlen > len(blob):
        raise CheckpointError(f"{path} is truncated (manifest cut short)")
    try:
        manifest = json.loads(blob[16:16 + mlen].decode())
        meta, entries = manifest["meta"], manifest["arrays"]
        counters = meta.get("counters", {})
        if not (isinstance(counters, dict) and isinstance(entries, list)
                and all(isinstance(ent, dict) for ent in entries)):
            raise TypeError("counters or array entries are not objects")
        net = _net_from_meta(meta["net"])
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path} has a corrupt manifest: {e}") from e
    data = blob[16 + mlen:]

    arrays = {}
    for ent in entries:
        try:
            arrays[ent["name"]] = np.frombuffer(
                data, dtype=ent["dtype"], offset=ent["offset"],
                count=int(np.prod(ent["shape"], dtype=np.int64)),
            ).reshape(ent["shape"])
        except (ValueError, TypeError, KeyError) as e:
            raise CheckpointError(
                f"{path}: bad payload for array "
                f"{ent.get('name', '?')!r}: {e}") from e

    try:
        params = ModelParams.from_state(net, {**meta, **arrays})
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise CheckpointError(f"{path} has missing or corrupt data: {e}") from e
    return net, params, dict(counters)
