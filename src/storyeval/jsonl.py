"""JSONL read/write with deterministic serialization.

Records are dumped with sorted keys and fixed separators so identical
data always produces identical bytes, which the golden-file tests rely
on.
"""

import json
from pathlib import Path


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dumps(rec))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    """Strict reader: raises on the first malformed line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
