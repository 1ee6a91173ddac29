"""Deterministic work-count gate for the simulator's hit and miss paths.

Wall time on a shared host swings by more than the change it would have to
detect, but the number of Python function calls a simulation makes into the
``repro`` package is exactly reproducible.  These runs cover the full Fig. 4
grid: every ``SimulationConfig.figure4_suite()`` configuration on ``gzip``,
``djpeg`` and ``swim`` (working sets that fit the L1, so the kernels' hit
paths do the work), ``mcf`` (misses the L1 and L2) and ``tlbthrash`` (also
the uTLB and TLB).  Each counts every ``call`` profile event whose code lives
under ``src/repro`` during ``Simulator.run`` — generated kernel bodies are
compiled from strings, so only their entry call counts; everything they
delegate counts in full.

Every run must stay within 2% of ``CURRENT_CALLS``, the counts of the
current implementation (Python 3.11; 3.9, 3.12 and 3.13 count the same or a
few calls fewer): a change that adds hot-path work fails here even when the
wall clock cannot tell.  One extra call per memory request on gzip is
already ~9%.  ``PARENT_CALLS`` are the counts
of the object-per-line cache and object-per-entry TLB that the slab state and
the fused miss/refill paths replaced; those four runs must also stay at or
below 0.6x their parent count.
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
#: largest allowed ratio of a run's calls to its ``CURRENT_CALLS``
TOLERANCE = 1.02

#: (configuration, benchmark) -> calls into repro before the slab rewrite
PARENT_CALLS = {
    ("Base1ldst", "mcf"): 63_297,
    ("Base1ldst", "tlbthrash"): 104_087,
    ("MALEC", "mcf"): 91_101,
    ("MALEC", "tlbthrash"): 158_399,
}
#: (configuration, benchmark) -> calls into repro now (Python 3.11)
CURRENT_CALLS = {
    ("Base1ldst", "gzip"): 10_849,
    ("Base1ldst", "djpeg"): 7_739,
    ("Base1ldst", "swim"): 9_014,
    ("Base1ldst", "mcf"): 17_469,
    ("Base1ldst", "tlbthrash"): 30_572,
    ("Base2ld1st_1cycleL1", "gzip"): 12_801,
    ("Base2ld1st_1cycleL1", "djpeg"): 9_369,
    ("Base2ld1st_1cycleL1", "swim"): 10_916,
    ("Base2ld1st_1cycleL1", "mcf"): 19_819,
    ("Base2ld1st_1cycleL1", "tlbthrash"): 32_841,
    ("Base2ld1st", "gzip"): 12_799,
    ("Base2ld1st", "djpeg"): 9_363,
    ("Base2ld1st", "swim"): 10_918,
    ("Base2ld1st", "mcf"): 19_849,
    ("Base2ld1st", "tlbthrash"): 32_841,
    ("MALEC", "gzip"): 12_733,
    ("MALEC", "djpeg"): 9_257,
    ("MALEC", "swim"): 10_780,
    ("MALEC", "mcf"): 25_972,
    ("MALEC", "tlbthrash"): 56_464,
    ("MALEC_3cycleL1", "gzip"): 12_732,
    ("MALEC_3cycleL1", "djpeg"): 9_258,
    ("MALEC_3cycleL1", "swim"): 10_779,
    ("MALEC_3cycleL1", "mcf"): 25_970,
    ("MALEC_3cycleL1", "tlbthrash"): 56_462,
}
CONFIGS = {config.name: config for config in SimulationConfig.figure4_suite()}

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


@pytest.mark.parametrize("config_name,workload", sorted(CURRENT_CALLS))
def test_miss_path_call_budget(config_name, workload):
    key = (config_name, workload)
    calls = calls_into_repro(CONFIGS[config_name], workload)
    if key in PARENT_CALLS:
        assert calls <= 0.6 * PARENT_CALLS[key], (key, calls)
    assert calls <= TOLERANCE * CURRENT_CALLS[key], (key, calls)
