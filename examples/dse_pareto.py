#!/usr/bin/env python3
"""Design-space exploration with Pareto frontiers (``repro.dse``).

This example explores the Sec. VI-D sensitivity grid three ways against one
shared campaign store:

1. a seeded *random* sample places a first set of points on the
   energy/performance plane;
2. an adaptive *successive-halving* search triages a larger budget on short
   traces and promotes only the survivors to full-length runs — cells the
   random pass already simulated are resumed from the store, not re-run;
3. the frontier is printed as the text table and CSV produced by
   ``repro.analysis.reporting`` (the same artifacts ``repro dse`` writes).

Run with::

    python examples/dse_pareto.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.reporting import format_frontier, frontier_csv
from repro.campaign import ResultStore
from repro.dse import run_dse, space_preset

INSTRUCTIONS = 1_000
BENCHMARKS = ("gzip", "streamwrite")  # one paper pick, one synthetic extreme
JOBS = 2


def main() -> None:
    space = space_preset("malec-mini").with_overrides(
        benchmarks=BENCHMARKS, instructions=INSTRUCTIONS
    )
    with tempfile.TemporaryDirectory(prefix="malec-dse-") as tmp:
        store_dir = Path(tmp) / "dse"
        store = ResultStore(store_dir)
        print(f"space: {space.name} ({space.size} points), store: {store_dir}")

        print("\n1. random sample (budget 6):")
        random_pass = run_dse(
            space, strategy="random", budget=6, jobs=JOBS, store=store, seed=1
        )
        print(
            f"   {random_pass.cells_simulated} cells simulated, "
            f"frontier has {len(random_pass.frontier)} point(s)"
        )

        print("\n2. successive halving (budget 12, same store):")
        halving_pass = run_dse(
            space, strategy="halving", budget=12, jobs=JOBS, store=store, seed=1
        )
        print(
            f"   {halving_pass.cells_simulated} cells simulated, "
            f"{halving_pass.cells_resumed} resumed from the random pass's store"
        )

        print("\nPareto frontier (all objectives minimized, vs Base1ldst):")
        print(format_frontier(halving_pass.frontier, halving_pass.ranks))

        csv_path = store_dir / "frontier.csv"
        csv_path.write_text(frontier_csv(halving_pass.frontier, halving_pass.ranks))
        print(f"\nfrontier CSV written to {csv_path}")


if __name__ == "__main__":
    main()
