"""Deterministic work-count gate for the cache and TLB miss paths.

Wall time on a shared host swings by more than the change it would have to
detect, but the number of Python function calls a simulation makes into the
``repro`` package is exactly reproducible.  These runs put the miss paths to
work (``mcf`` misses the L1 and L2, ``tlbthrash`` also the uTLB and TLB) and
count every ``call`` profile event whose code lives under ``src/repro``
during ``Simulator.run`` — generated kernel bodies are compiled from strings,
so only their entry call counts; everything they delegate counts in full.

``PARENT_CALLS`` are the counts of the object-per-line cache and
object-per-entry TLB that the slab state and the fused miss/refill paths
replaced (Python 3.11).  Each run must stay at or below 0.6x its parent
count, and within 10% of ``CURRENT_CALLS``, the counts of the current
implementation: a change that adds miss-path work fails here even when the
wall clock cannot tell.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 3000
SEED = 7
WARMUP = 0.3

#: (configuration, benchmark) -> calls into repro before the slab rewrite
PARENT_CALLS = {
    ("Base1ldst", "mcf"): 63_297,
    ("Base1ldst", "tlbthrash"): 104_087,
    ("MALEC", "mcf"): 91_101,
    ("MALEC", "tlbthrash"): 158_399,
}
#: (configuration, benchmark) -> calls into repro now (Python 3.11)
CURRENT_CALLS = {
    ("Base1ldst", "mcf"): 17_469,
    ("Base1ldst", "tlbthrash"): 30_572,
    ("MALEC", "mcf"): 25_972,
    ("MALEC", "tlbthrash"): 56_464,
}
CONFIGS = {
    "Base1ldst": SimulationConfig.base_1ldst,
    "MALEC": SimulationConfig.malec,
}

PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def calls_into_repro(config: SimulationConfig, workload: str) -> int:
    """Python calls into ``src/repro`` during one warm ``Simulator.run``."""
    trace = generate_trace(
        benchmark_profile(workload), instructions=INSTRUCTIONS, seed=SEED
    )
    # Warm the kernel cache and the trace's columnar view first, so only the
    # simulation itself is counted.
    Simulator(config).run(trace, warmup_fraction=WARMUP)
    simulator = Simulator(config)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        simulator.run(trace, warmup_fraction=WARMUP)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("config_name,workload", sorted(PARENT_CALLS))
def test_miss_path_call_budget(config_name, workload):
    key = (config_name, workload)
    calls = calls_into_repro(CONFIGS[config_name](), workload)
    assert calls <= 0.6 * PARENT_CALLS[key], (key, calls)
    assert calls <= 1.1 * CURRENT_CALLS[key], (key, calls)
