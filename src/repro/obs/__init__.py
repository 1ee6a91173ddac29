"""repro.obs — observability for the sim/campaign/DSE stack.

Everything here is *operational* visibility, strictly separated from the
scientific results: nothing in this package writes into
:class:`~repro.stats.StatCounters`, result records, or stored campaign
cells, so enabling any of it cannot perturb golden bit-identity (the obs
identity tests pin this).  Everything is opt-in and off by default, and
switched off it costs nothing: the default kernel variant carries no
observation code at all (``test_default_variant_carries_no_observation_code``).

Four pillars, one module each:

:mod:`repro.obs.metrics`
    Counter/gauge/histogram registry (cells/sec, wheel events, worker
    utilisation); no-op unless :func:`repro.obs.metrics.enable` ran.
:mod:`repro.obs.collector` / :mod:`repro.obs.attribution`
    Per-run cycle classification (categories partition the run and sum to
    total cycles) plus energy-per-structure breakdowns — the ``repro
    report`` command.
:mod:`repro.obs.traceevent`
    Chrome trace-event (catapult) JSON export — wall-clock campaign/DSE
    spans and sampled simulator timelines — with a checked-in schema and a
    dependency-free validator.
:mod:`repro.obs.logs` / :mod:`repro.obs.progress`
    Run-scoped stdlib logging behind ``--verbose/--quiet/--log-json`` and
    the TTY progress line for sweeps.

Plus the durable layer on top (PR 9):

:mod:`repro.obs.telemetry` / :mod:`repro.obs.hostinfo`
    The append-only per-cell ``telemetry.jsonl`` journal written next to
    every campaign store, the cross-run ``repro obs`` queries
    (history/compare/cells/export), and the host-identity block stamped
    into every journal run header and every ``perfbench`` record.
"""

from repro.obs import metrics, telemetry
from repro.obs.hostinfo import detect_revision, host_metadata
from repro.obs.attribution import RunAttribution, attribute_run, format_attribution
from repro.obs.collector import CYCLE_CATEGORIES, RunCollector
from repro.obs.logs import configure as configure_logging
from repro.obs.logs import get_logger, run_context
from repro.obs.progress import ProgressReporter, make_progress
from repro.obs.traceevent import (
    SCHEMA_PATH,
    SchemaError,
    TraceEventLog,
    validate_trace_events,
)

__all__ = [
    "metrics",
    "telemetry",
    "detect_revision",
    "host_metadata",
    "RunAttribution",
    "attribute_run",
    "format_attribution",
    "CYCLE_CATEGORIES",
    "RunCollector",
    "configure_logging",
    "get_logger",
    "run_context",
    "ProgressReporter",
    "make_progress",
    "SCHEMA_PATH",
    "SchemaError",
    "TraceEventLog",
    "validate_trace_events",
]
