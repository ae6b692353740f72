"""Deterministic model checkpoints.

A checkpoint is one file: a JSON manifest line followed by the raw
little-endian bytes of every array, concatenated in manifest order.
Writing the same state twice produces byte-identical files, which keeps
artifact hashing and resume tests honest (zip-based containers stamp
timestamps and break that).  The manifest holds a ``jsonl.digest`` of
each array's bytes, and loading refuses an array whose bytes changed.
Format v2 models read a comment's aspect from the decoder's first input;
v1 models read it from the encoder's, so v1 files are refused.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError
from .jsonl import atomic_write, digest, field_error
from .model import ModelConfig

FORMAT = "storyeval-checkpoint-v2"
MANIFEST_FIELDS = {"config": dict, "config_hash": str, "seed": int, "step": int,
                   "optimizer": (dict, type(None)), "extra": dict, "arrays": list}
ARRAY_FIELDS = {"name": str, "shape": list, "dtype": str, "sha256": str}


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
    arrays = [(f"param.{name}", params[name].data) for name in sorted(params)]
    opt_meta = None
    if optimizer is not None:
        opt_meta = {"step_count": int(optimizer["step_count"])}
        arrays += [(f"opt.{k}.{name}", optimizer[k][name])
                   for k in ("m", "v") for name in sorted(optimizer[k])]
    manifest = {
        "format": FORMAT,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "seed": int(seed),
        "step": int(step),
        "optimizer": opt_meta,
        "extra": extra or {},
        "arrays": [{"name": n, "shape": list(a.shape), "dtype": _le(a).dtype.str,
                    "sha256": digest(memoryview(_le(a)))} for n, a in arrays],
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with atomic_write(path, binary=True) as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        for _, a in arrays:
            fh.write(_le(a).tobytes())
    return manifest["config_hash"]


def _numeric(dtype: str) -> bool:
    try:
        return np.dtype(dtype).kind in "iufc"
    except TypeError:
        return False


def _manifest(path, line: bytes) -> tuple[dict, ModelConfig]:
    """The manifest and its model config; a manifest of another format or
    of the wrong shape, or an array whose dtype is not numeric or whose
    shape is not non-negative ints, is a ``DataError`` naming ``path``."""
    try:
        manifest = json.loads(line.decode("utf-8"))
        if manifest.get("format") != FORMAT:
            raise DataError(f"{path}: checkpoint format {manifest.get('format')!r}, "
                            f"expected {FORMAT!r}")
        problem = field_error(manifest, MANIFEST_FIELDS) or next(
            filter(None, (field_error(meta, ARRAY_FIELDS) for meta in manifest["arrays"])), None)
        if problem:
            raise DataError(f"{path}: bad manifest: {problem}")
        for meta in manifest["arrays"]:
            if not _numeric(meta["dtype"]) or not all(
                    type(n) is int and n >= 0 for n in meta["shape"]):
                raise DataError(f"{path}: array {meta['name']}: dtype {meta['dtype']!r} "
                                f"and shape {meta['shape']} must be numeric and "
                                f"non-negative ints")
        return manifest, ModelConfig(**manifest["config"])
    except (ValueError, AttributeError, TypeError) as exc:   # not JSON, not an object, bad key
        raise DataError(f"{path}: bad manifest: {exc}") from None


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """The checkpoint at ``path``; without ``optimizer``, as inference loads
    it, the optimizer arrays are neither checked nor decoded."""
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: not a checkpoint (no manifest line)")
    manifest, config = _manifest(path, raw[:nl])
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
        if optimizer or not meta["name"].startswith("opt."):
            if digest(memoryview(raw)[offset:end]) != meta["sha256"]:
                raise DataError(f"{path}: array {meta['name']} does not match its sha256")
            arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(meta["shape"])
            loaded[meta["name"]] = arr.astype(dt.newbyteorder("="))     # a writeable copy
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes")

    def group(prefix: str) -> dict[str, np.ndarray]:
        return {n[len(prefix):]: a for n, a in loaded.items() if n.startswith(prefix)}

    opt = manifest["optimizer"] if optimizer else None
    if opt is not None:
        opt = {"step_count": opt["step_count"], "m": group("opt.m."), "v": group("opt.v.")}
    return Checkpoint(params={n: Tensor(a, requires_grad=True) for n, a in group("param.").items()},
                      config=config, seed=manifest["seed"], step=manifest["step"],
                      optimizer=opt, extra=manifest["extra"])
