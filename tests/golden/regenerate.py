"""Regenerate the golden result files from the current code.

Rewrites ``tests/golden/fig4_mini.json`` (the fig4-mini campaign records),
``tests/golden/stress_profiles.json`` (the STRESS-suite differential
anchors) and ``tests/golden/attribution.json`` (cycle categories, completion
event counts and occupancy samples of observed runs).  Run only when a PR
*deliberately* changes simulation behaviour (and say so in the PR
description) — the golden tests exist precisely so performance work cannot
drift the paper reproduction silently::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset
from repro.campaign.store import ResultStore
from repro.sim.config import SimulationConfig
from repro.obs.collector import RunCollector
from repro.sim.simulator import run_configuration
from repro.workloads.suites import STRESS_BENCHMARKS, benchmark_profile
from repro.workloads.synthetic import generate_trace

#: trace length / warmup the stress and attribution anchors are pinned at
#: (mirrored by ``tests/test_kernel_differential.py``)
STRESS_INSTRUCTIONS = 1200
STRESS_WARMUP = 0.3

#: the attribution anchors: the fig4-mini trio plus the STRESS profiles at
#: ``repro report``'s default warm-up, sampled at its default period
ATTRIBUTION_BENCHMARKS = ("gzip", "swim", "djpeg") + STRESS_BENCHMARKS
ATTRIBUTION_SAMPLE_EVERY = 100


def regenerate(path: Path) -> int:
    spec = campaign_preset("fig4-mini")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(spec)
        records = {record["key"]: record for record in store.records()}
    payload = {
        "preset": spec.name,
        "instructions": spec.instructions,
        "warmup_fraction": spec.warmup_fraction,
        "seed": spec.seed,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return len(records)


def regenerate_stress(path: Path) -> int:
    """Pin the STRESS profiles on the Fig. 4 grid (reference-loop oracle)."""
    records = {}
    for bench in STRESS_BENCHMARKS:
        trace = generate_trace(
            benchmark_profile(bench), instructions=STRESS_INSTRUCTIONS
        )
        for config in SimulationConfig.figure4_suite():
            result = run_configuration(
                config,
                list(trace),
                warmup_fraction=STRESS_WARMUP,
                options=RunOptions(kernel="generic"),
            )
            records[f"{bench}/{config.name}"] = {
                "cycles": result.cycles,
                "instructions": result.instructions,
                "loads": result.loads,
                "stores": result.stores,
                "stats": result.stats,
                "energy": {
                    name: {
                        "dynamic_pj": item.dynamic_pj,
                        "leakage_pj": item.leakage_pj,
                    }
                    for name, item in sorted(result.energy.structures.items())
                },
            }
    payload = {
        "instructions": STRESS_INSTRUCTIONS,
        "warmup_fraction": STRESS_WARMUP,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return len(records)


def attribution_record(collector: RunCollector) -> dict:
    """The golden-pinned facts of one observed run."""
    return {
        "total_cycles": collector.total_cycles,
        "cycles": dict(collector.cycle_categories),
        "events_dispatched": collector.events_dispatched,
        "samples": [list(sample) for sample in collector.samples],
    }


def regenerate_attribution(path: Path) -> int:
    """Pin what a collector sees on the Fig. 4 grid (observed runs).

    Recorded from the reference loop; the kernels' observe variant must
    reproduce it exactly.
    """
    records = {}
    for bench in ATTRIBUTION_BENCHMARKS:
        trace = generate_trace(
            benchmark_profile(bench), instructions=STRESS_INSTRUCTIONS
        )
        for config in SimulationConfig.figure4_suite():
            collector = RunCollector(sample_every=ATTRIBUTION_SAMPLE_EVERY)
            run_configuration(
                config,
                list(trace),
                warmup_fraction=STRESS_WARMUP,
                options=RunOptions(kernel="generic", collector=collector),
            )
            records[f"{bench}/{config.name}"] = attribution_record(collector)
    payload = {
        "instructions": STRESS_INSTRUCTIONS,
        "warmup_fraction": STRESS_WARMUP,
        "sample_every": ATTRIBUTION_SAMPLE_EVERY,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return len(records)


if __name__ == "__main__":
    target = Path(__file__).parent / "fig4_mini.json"
    count = regenerate(target)
    print(f"wrote {target} ({count} records)")
    stress_target = Path(__file__).parent / "stress_profiles.json"
    stress_count = regenerate_stress(stress_target)
    print(f"wrote {stress_target} ({stress_count} records)")
    attribution_target = Path(__file__).parent / "attribution.json"
    attribution_count = regenerate_attribution(attribution_target)
    print(f"wrote {attribution_target} ({attribution_count} records)")
