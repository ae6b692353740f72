"""JSONL read/write with deterministic serialization.

Records are dumped with sorted keys and fixed separators so identical
data always produces identical bytes, which the golden-file tests rely
on.
"""

import json
from pathlib import Path

from .errors import DataError


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")


def read_jsonl(path, required: tuple[str, ...] = ()) -> list[dict]:
    """Strict reader: a line that is not a JSON object, or an object
    without one of the ``required`` fields, is a ``DataError`` naming the
    path and the 1-based line number.  An artifact's ``{"meta": ...}``
    record needs no fields."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
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
            missing = [f for f in required if f not in record]
            if missing and "meta" not in record:
                raise DataError(f"{path}:{number}: missing field '{missing[0]}'")
            out.append(record)
    return out


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
