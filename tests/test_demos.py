"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _repo_files() -> set[Path]:
    return {p for p in ROOT.rglob("*")
            if not {".git", "__pycache__", ".pytest_cache"} & set(p.parts)}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    # temp files go under tmp_path, and no bytecode is written into src/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "PYTHONDONTWRITEBYTECODE": "1"}
    before = _repo_files()
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _repo_files() == before
