"""Host identity facts shared by the telemetry journal and ``perfbench``.

Two timing records are only comparable when they were taken on the same
machine, core count and interpreter — so both the campaign telemetry journal
(``telemetry.jsonl``) and the repository benchmark (``perfbench/``) stamp
every record with the same host block, produced here.  ``repro obs history``
shows it per run.

This lives in its own module so the telemetry layer can import it without
pulling in anything that imports the campaign executor — the executor is
exactly the module that writes the journal.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Optional

__all__ = ["detect_revision", "host_metadata"]


def detect_revision(default: str = "worktree") -> str:
    """Short git revision of the working tree, or ``default`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else default


def host_metadata(revision: Optional[str] = None) -> dict:
    """The host facts that make two timing records (in)comparable.

    Recorded in every telemetry run header and every ``perfbench`` record:
    a timing delta between different machines, core counts or interpreter
    versions measures the hosts, not the code.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "revision": revision if revision is not None else detect_revision(),
    }
