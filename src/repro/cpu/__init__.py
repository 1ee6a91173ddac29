"""Out-of-order memory-side pipeline.

The paper evaluates MALEC underneath a single-core out-of-order superscalar
processor (Table II: 168 ROB entries, 6-wide fetch/dispatch, 8-wide issue,
1 GHz).  gem5 is not available in this environment, so this package provides
a lightweight cycle-level pipeline that reproduces the properties MALEC's
results depend on:

* the rate at which memory operations become ready for address computation
  (limited by fetch/dispatch width, the ROB, and data dependencies on older
  loads);
* the number of address-computation slots per cycle offered by the L1
  interface (Table I differs between the configurations);
* the feedback from load latency into issue progress (dependent instructions
  cannot issue until the load's data returns), which is what turns faster or
  more parallel L1 accesses into shorter execution times.

It is not an ISA simulator: non-memory instructions are single-cycle opaque
"compute" operations that only carry dependence edges.

The reorder buffer, the dependency rule and in-order commit live in one
place, the reference loop :meth:`OutOfOrderPipeline._run_cycle_driven` (a
deque of :class:`RobEntry`); the generated kernels of :mod:`repro.sim.kernels`
are the fast rendering of the same loop.  Dependencies arrive as backward
distances on each :class:`Instruction` and are resolved to producer sequence
numbers at dispatch (by the reference loop) or once per trace (by the two
``pipeline_arrays`` builders the kernels read).
"""

from repro.cpu.instruction import Instruction, InstructionKind
from repro.cpu.pipeline import OutOfOrderPipeline, PipelineResult, RobEntry

__all__ = [
    "Instruction",
    "InstructionKind",
    "RobEntry",
    "OutOfOrderPipeline",
    "PipelineResult",
]
