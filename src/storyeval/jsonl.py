"""JSONL read/write with deterministic serialization.

Records are dumped with sorted keys and fixed separators so identical
data always produces identical bytes, which the golden-file tests rely
on.
"""

import hashlib
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ContractViolation, DataError


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a new text (or ``binary``) file beside ``path`` to write into.

    It replaces ``path`` only when the block finishes and is removed if
    the block raises, so ``path`` always holds a whole file: the old one
    or the new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def read_text(path) -> str:
    """``path``'s text; bytes that are not UTF-8 are a ``DataError`` naming the line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text") from None


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(obj) -> str:
    """16 hex digits of the sha256 of ``obj``: bytes, a memoryview or a JSON value's ``dumps``."""
    data = obj if isinstance(obj, (bytes, memoryview)) else dumps(obj).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def write_jsonl(path, records) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")


def field_error(record: dict, fields: dict) -> str | None:
    """How ``record`` breaks its declared ``{field: type}`` mapping (a type
    or a tuple of types; a JSON boolean is never a number), or None."""
    for name, kind in fields.items():
        if name not in record:
            return f"missing field '{name}'"
        value, kinds = record[name], kind if isinstance(kind, tuple) else (kind,)
        if isinstance(value, bool) or not isinstance(value, kinds):
            want = " or ".join(k.__name__ for k in kinds)
            return f"field '{name}' must be {want}, got {type(value).__name__}"
    return None


def read_jsonl(path, required: dict | None = None, parse=None) -> list:
    """Strict reader: a line that is not a JSON object, or an object
    that breaks the ``required`` ``{field: type}`` mapping, is a
    ``DataError`` naming the path and the 1-based line number.  An
    artifact's ``{"meta": ...}`` record needs no fields and stays a dict;
    ``parse`` turns every other record into an object, and a
    ``ContractViolation`` it raises is a ``DataError`` naming the line."""
    out = []
    # a text-mode file's lines: str.splitlines also splits at U+0085/2028/2029
    for number, line in enumerate(io.StringIO(read_text(path), newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{number}: not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}:{number}: expected a JSON object, "
                            f"got {type(record).__name__}")
        if "meta" not in record:
            problem = field_error(record, required or {})
            if problem:
                raise DataError(f"{path}:{number}: {problem}")
            if parse is not None:
                try:
                    record = parse(record)
                except ContractViolation as exc:
                    raise DataError(f"{path}:{number}: {exc}") from exc
        out.append(record)
    return out


def write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n")
