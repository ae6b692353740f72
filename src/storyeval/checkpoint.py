"""Deterministic model checkpoints.

A checkpoint is one file: a JSON manifest line followed by the raw
little-endian bytes of every array, concatenated in manifest order.
Writing the same state twice produces byte-identical files, which keeps
artifact hashing and resume tests honest (zip-based containers stamp
timestamps and break that).
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError
from .jsonl import atomic_write, digest
from .model import ModelConfig

FORMAT = "storyeval-checkpoint-v1"


def config_hash(config: ModelConfig) -> str:
    """Stable short hash of the model shape; guards resume mismatches."""
    return digest(asdict(config))


def _le(arr: np.ndarray) -> np.ndarray:
    dt = arr.dtype.newbyteorder("<")
    return np.ascontiguousarray(arr, dtype=dt)


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: ModelConfig
    seed: int
    step: int
    optimizer: dict | None = None
    extra: dict | None = None

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def save_checkpoint(path, params: dict[str, Tensor], config: ModelConfig,
                    seed: int, step: int = 0, optimizer: dict | None = None,
                    extra: dict | None = None) -> str:
    """Write a checkpoint and return its config hash."""
    arrays: list[tuple[str, np.ndarray]] = []
    for name in sorted(params):
        arrays.append((f"param.{name}", params[name].data))
    opt_meta = None
    if optimizer is not None:
        opt_meta = {"step_count": int(optimizer["step_count"])}
        for name in sorted(optimizer["m"]):
            arrays.append((f"opt.m.{name}", optimizer["m"][name]))
        for name in sorted(optimizer["v"]):
            arrays.append((f"opt.v.{name}", optimizer["v"][name]))
    manifest = {
        "format": FORMAT,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "seed": int(seed),
        "step": int(step),
        "optimizer": opt_meta,
        "extra": extra or {},
        "arrays": [{"name": n, "shape": list(a.shape), "dtype": _le(a).dtype.str}
                   for n, a in arrays],
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with atomic_write(path, binary=True) as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for _, a in arrays:
            fh.write(_le(a).tobytes())
    return manifest["config_hash"]


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: not a checkpoint (no manifest line)")
    try:
        manifest = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: bad manifest: {exc}") from exc
    if manifest.get("format") != FORMAT:
        raise DataError(f"{path}: unknown format {manifest.get('format')!r}")
    config = ModelConfig(**manifest["config"])
    if config_hash(config) != manifest["config_hash"]:
        raise ConfigError(f"{path}: config hash mismatch")
    offset = nl + 1
    loaded: dict[str, np.ndarray] = {}
    for meta in manifest["arrays"]:
        dt = np.dtype(meta["dtype"])
        count = int(np.prod(meta["shape"])) if meta["shape"] else 1
        end = offset + count * dt.itemsize
        if end > len(raw):
            raise DataError(f"{path}: truncated at array {meta['name']}")
        arr = np.frombuffer(raw[offset:end], dtype=dt).reshape(meta["shape"])
        loaded[meta["name"]] = arr.astype(dt.newbyteorder("="))
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")
    params = {n[len("param."):]: Tensor(a.copy(), requires_grad=True)
              for n, a in loaded.items() if n.startswith("param.")}
    optimizer = None
    if manifest["optimizer"] is not None:
        optimizer = {
            "step_count": manifest["optimizer"]["step_count"],
            "m": {n[len("opt.m."):]: a.copy() for n, a in loaded.items()
                  if n.startswith("opt.m.")},
            "v": {n[len("opt.v."):]: a.copy() for n, a in loaded.items()
                  if n.startswith("opt.v.")},
        }
    return Checkpoint(params=params, config=config, seed=manifest["seed"],
                      step=manifest["step"], optimizer=optimizer,
                      extra=manifest["extra"])
