"""Every example script runs to completion and cleans up after itself.

Each example drives the public API end to end (executor, stores, DSE,
ingest).  It runs in a fresh interpreter with ``TMPDIR`` pointed at an empty
directory, must exit 0, and must leave that directory empty: an example that
writes a store or trace under the temp dir has to remove it again.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs_and_leaves_no_temp_files(example, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert sorted(path.name for path in tmp_path.iterdir()) == []
