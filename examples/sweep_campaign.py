#!/usr/bin/env python3
"""Parallel, resumable sweep campaigns with the ``repro.campaign`` engine.

This example runs the quick Fig. 4 preset (five configurations x one
benchmark per suite) twice against the same campaign directory:

1. the first pass fans the grid out over a small process pool and persists
   one JSON record per (configuration, benchmark) cell;
2. the second pass finds every cell already in the store and skips all
   simulation — resuming is free;

and finally rebuilds the geometric-mean views straight from the directory,
without touching the simulator again.

Run with::

    python examples/sweep_campaign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import RunOptions
from repro.campaign import (
    ParallelExecutor,
    ResultStore,
    campaign_preset,
    summarize_store,
)

INSTRUCTIONS = 2_000
JOBS = 2


def progress(event: str, cell, done: int, total: int) -> None:
    label = "skip" if event == "skipped" else "run "
    print(f"  [{done:>2d}/{total}] {label} {cell.benchmark:<6s} {cell.config.name}")


def main() -> None:
    spec = campaign_preset("fig4-mini").with_overrides(instructions=INSTRUCTIONS)
    campaign_dir = Path(tempfile.mkdtemp(prefix="malec-campaign-")) / "fig4-mini"
    store = ResultStore(campaign_dir)

    print(f"campaign directory: {campaign_dir}")
    print(f"\nfirst pass ({JOBS} worker processes):")
    options = RunOptions(jobs=JOBS, store=store)
    executor = ParallelExecutor(options=options, progress=progress)
    executor.run(spec)
    print(f"  -> {len(executor.completed_cells)} cells simulated, {len(store)} records on disk")

    print("\nsecond pass (same directory — everything resumes from the store):")
    executor = ParallelExecutor(options=options, progress=progress)
    executor.run(spec)
    print(f"  -> {len(executor.completed_cells)} cells simulated, "
          f"{len(executor.skipped_cells)} resumed")

    print("\nanalysis rebuilt from the directory alone:")
    print(summarize_store(store))


if __name__ == "__main__":
    main()
