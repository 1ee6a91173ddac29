"""Paired perfbench regression gate: the base revision against the head.

Usage, from the head's repository root::

    python3 benchmarks/perf/gate.py --base /tmp/base-tree --out /tmp/perf-gate

The head is the checkout holding this script.  Both trees must hold the same
``perfbench/`` (copy the head's into the base checkout), so one harness
measures both sides.  For every workload in the head's ``BENCHMARK.json`` and
every seed ``1..PAIRS`` the gate runs
``python3 perfbench/run.py --workload W --seed S --seconds 5 --trace 0`` once
in each tree, back to back; successive pairs alternate which side goes
first, so host drift lands on both sides alike.  Every run's final JSON line
is written to ``--out`` as ``<workload>-seed<S>-<side>.json``.

The verdict (:func:`verdict`, a pure function) takes, per workload and
metric, the median of the per-pair head/base ratios.  It fails when
``sim_kips`` falls, or ``cell_p50_ms``, ``cell_tail_ms`` or ``setup_s``
rises, by more than 20%; when ``peak_rss_mb`` rises by more than 10%
(``BENCHMARK.json``'s bound); when a head run reports ``correct: false``; when
the head fails more operations than the base; or when a metric is missing.
Exit status: 0 pass, 1 fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]

#: pairs per workload: at 3, same-tree medians still read up to 25% apart
PAIRS = 5
#: ``perfbench/run.py --seconds`` of every run
SECONDS = 5

#: metric -> (largest allowed relative worsening, which direction is better)
THRESHOLDS = {
    "sim_kips": (0.20, "higher"),
    "cell_p50_ms": (0.20, "lower"),
    "cell_tail_ms": (0.20, "lower"),
    "setup_s": (0.20, "lower"),
    "peak_rss_mb": (0.10, "lower"),
}


def _value(line: dict, metric: str) -> float:
    return float(line["metrics"][metric]["value"])


def verdict(pairs: dict) -> tuple:
    """Judge ``{workload: [(base_line, head_line), ...]}`` of final lines.

    Returns ``(rows, failures)``: one ``(workload, metric, median ratio,
    relative worsening)`` row per judged metric, and one message per breach.
    """
    rows, failures = [], []
    for workload, runs in pairs.items():
        if any(not head.get("correct", False) for _, head in runs):
            failures.append(f"{workload}: head reports correct: false")
        base_failed = sum(base.get("failed", 0) for base, _ in runs)
        head_failed = sum(head.get("failed", 0) for _, head in runs)
        if head_failed > base_failed:
            failures.append(f"{workload}: head failed {head_failed}, base {base_failed}")
        for metric, (bound, better) in THRESHOLDS.items():
            try:
                ratio = statistics.median(
                    _value(head, metric) / _value(base, metric) for base, head in runs
                )
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                failures.append(f"{workload}: {metric} missing or zero")
                continue
            worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
            rows.append((workload, metric, ratio, worse))
            # Rounded so a ratio exactly at the bound passes despite float error.
            if round(worse, 9) > bound:
                detail = f"median head/base {ratio:.3f}; bound {bound:.0%}"
                failures.append(f"{workload}: {metric} {worse:+.1%} worse ({detail})")
    return rows, failures


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run in ``tree``; its final JSON line, or a failed stand-in."""
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    command = [sys.executable, "perfbench/run.py", *flags, "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    print(f"{tree}: {workload} seed {seed} exited {proc.returncode}", file=sys.stderr)
    print(proc.stderr[-2000:], file=sys.stderr)
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="base checkout")
    parser.add_argument("--out", type=Path, required=True, help="final-line dir")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    sides = {"base": args.base.resolve(), "head": HEAD}
    pairs = {workload: [] for workload in workloads}
    total = PAIRS * len(workloads)
    for index in range(total):
        seed, slot = divmod(index, len(workloads))
        seed, workload = seed + 1, workloads[slot]
        # A workload's successive pairs, and neighbouring workloads, swap order.
        order = ("base", "head") if (seed + slot) % 2 else ("head", "base")
        lines = {}
        for side in order:
            lines[side] = run_side(sides[side], workload, seed)
            path = args.out / f"{workload}-seed{seed}-{side}.json"
            path.write_text(json.dumps(lines[side], sort_keys=True) + "\n")
        pairs[workload].append((lines["base"], lines["head"]))
        print(f"pair {index + 1}/{total}: {workload} seed {seed}, {order[0]} first", flush=True)
    rows, failures = verdict(pairs)
    print(f"{'workload':<12} {'metric':<13} {'head/base':>9} {'worse':>8}")
    for workload, metric, ratio, worse in rows:
        print(f"{workload:<12} {metric:<13} {ratio:>9.3f} {worse:>+8.1%}")
    for message in failures:
        print(f"FAIL {message}")
    print("perf gate:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
