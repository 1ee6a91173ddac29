"""The programmatic run-configuration surface: :class:`RunOptions`.

One frozen dataclass is the single way to configure
:meth:`repro.sim.simulator.Simulator.run`,
:func:`repro.sim.simulator.run_configuration` and
:class:`repro.campaign.executor.ParallelExecutor`::

    from repro.api import RunOptions
    from repro.campaign import ParallelExecutor

    options = RunOptions(kernel="generic", jobs=4, store="sqlite:results.db")
    ParallelExecutor(options=options).run(spec)

Every field defaults to ``None`` meaning "the built-in default"
(``specialized`` kernel, no collector, serial execution, no persistence), so
``RunOptions()`` is always a valid, fully-specified run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Everything that configures a simulation run, in one object.

    ``None`` fields mean "use the built-in default"; :meth:`resolved_kernel`
    applies the default and validates the name, raising ``ValueError`` for
    an unknown one.
    """

    #: ``"specialized"`` (default: the per-configuration generated kernel)
    #: or ``"generic"`` (the cycle-driven reference loop)
    kernel: Optional[str] = None
    #: optional :class:`repro.obs.collector.RunCollector`; observed runs
    #: execute the kernel's observe variant (observation is strictly
    #: additive, results are bit-identical with and without one)
    collector: Any = None
    #: worker processes for campaign execution (``None`` = serial)
    jobs: Optional[int] = None
    #: result store: a store URL (``json:dir`` / ``sqlite:db``), a bare
    #: directory path, a live ``ResultStore``, or ``None`` (no persistence)
    store: Any = None

    # ------------------------------------------------------------------
    def resolved_kernel(self) -> str:
        """The effective kernel name (validated)."""
        from repro.sim.kernels import KERNELS

        choice = self.kernel if self.kernel is not None else KERNELS[0]
        if choice not in KERNELS:
            raise ValueError(f"kernel {choice!r} not in {KERNELS}")
        return choice

    def open_store(self):
        """The live :class:`~repro.campaign.store.ResultStore` this run
        persists to, or ``None``.  Accepts every ``store=`` spelling."""
        from repro.campaign.store import open_store

        return open_store(self.store)

    def with_overrides(self, **fields: Any) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **fields)
