"""``repro profile``: cProfile over the bench scenarios, flamegraph-ready.

Reuses the :mod:`repro.bench` scenario functions as profiling workloads —
the same code the perf harness times is the code worth profiling, and using
one definition keeps "what we measure" and "what we optimise" the same
thing.  Each profile run executes the scenario once (repeats would only
smear the profile) under :mod:`cProfile` and renders two views:

* a ``pstats`` top-N table (cumulative time), printed to stdout;
* a **collapsed-stack** file (``caller;callee count`` lines, the input
  format of Brendan Gregg's ``flamegraph.pl`` and of speedscope's
  "Brendan Gregg" importer) via ``--collapsed FILE``.

cProfile records a caller->callee graph, not full stacks, so the collapsed
output expands each edge into a two-frame stack weighted by the callee's own
time on that edge.  That is an approximation of a true stack profile —
widths are exact per edge, nesting deeper than two frames is not — but it
is enough to eyeball where the simulator's self-time concentrates, with
zero new dependencies.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import bench

__all__ = ["PROFILE_SCENARIOS", "run_profile", "collapsed_stacks", "format_profile"]

#: scenario name -> callable(instructions) running the workload once.
#: Pool-based scenarios are excluded: cProfile cannot see into child
#: processes, so profiling them would show only pickling overhead.
PROFILE_SCENARIOS: Dict[str, Callable[[int], object]] = {
    "trace_generation": lambda n: bench.bench_trace_generation(n, repeats=1),
    "single_config_run": lambda n: bench.bench_single_config_run(n, repeats=1),
    "fig4_mini_sweep_serial": lambda n: bench.bench_fig4_mini_sweep_serial(
        n, repeats=1
    ),
    "fig4_misses_sweep_serial": lambda n: bench.bench_fig4_misses_sweep_serial(
        n, repeats=1
    ),
    "figure4_gzip_djpeg_mcf": lambda n: bench.bench_figure4_acceptance(n, repeats=1),
    "trace_decode_rtrc": lambda n: bench.bench_trace_decode(n, repeats=1),
}


def _frame_label(func: Tuple[str, int, str]) -> str:
    """``module.py:name`` label for one pstats function key."""
    filename, lineno, name = func
    if filename == "~":
        return f"<built-in>:{name}"
    return f"{Path(filename).name}:{name}"


def collapsed_stacks(stats: pstats.Stats, scale: float = 1e6) -> List[str]:
    """Render pstats data as collapsed-stack lines (``stack count``).

    One line per caller->callee edge, weighted by the callee's *own* time
    attributed to that edge (microseconds by default); root functions (no
    recorded caller) emit a single-frame line.  Zero-weight edges are
    dropped — flamegraph renderers ignore them anyway.
    """
    lines: List[str] = []
    for func, (_cc, _nc, tottime, _cumtime, callers) in stats.stats.items():
        label = _frame_label(func)
        if not callers:
            weight = int(tottime * scale)
            if weight > 0:
                lines.append(f"{label} {weight}")
            continue
        for caller, (_ccc, _cnc, caller_tottime, _cct) in callers.items():
            weight = int(caller_tottime * scale)
            if weight > 0:
                lines.append(f"{_frame_label(caller)};{label} {weight}")
    return sorted(lines)


def format_profile(stats: pstats.Stats, top: int = 25) -> str:
    """The pstats cumulative-time top-N table as a string."""
    buffer = io.StringIO()
    stats.stream = buffer
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


def run_profile(
    scenario: str,
    instructions: int = 4000,
    top: int = 25,
    collapsed_out: Optional[Union[str, Path]] = None,
) -> Tuple[str, int]:
    """Profile one bench scenario; returns (report text, stack-line count).

    Raises ``KeyError`` for unknown scenarios — callers render the
    :data:`PROFILE_SCENARIOS` listing as the usage message.
    """
    workload = PROFILE_SCENARIOS[scenario]
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload(instructions)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    report = format_profile(stats, top=top)
    lines = collapsed_stacks(stats)
    if collapsed_out is not None:
        target = Path(collapsed_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(lines) + "\n" if lines else "")
    return report, len(lines)
