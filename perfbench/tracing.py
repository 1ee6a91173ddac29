"""Span tracing of the ``repro`` layers, wrapped from the benchmark's side.

The benchmark changes nothing under ``src/``: a :class:`Tracer` replaces the
public entry point of each layer (module functions, methods, classmethods)
with a wrapper that records a span — name, start, end, parent span, process,
thread and the pass it belongs to — and restores the originals on
:meth:`Tracer.uninstall`.  Untraced runs never install it, so the end-to-end
numbers come from the unmodified code path.

Pool workers forked while the wrappers are installed inherit them.  A worker
cannot hand its spans back through the executor, so each time its span stack
empties it appends the finished spans to ``spans-<pid>.jsonl`` in the
tracer's spool directory, which :meth:`Tracer.collect` merges afterwards.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

SpanName = Union[str, Callable[[tuple], str]]
AfterHook = Callable[[tuple, object], dict]


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self, spool_dir: Union[str, Path]) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans: List[dict] = []
        #: wrap targets that do not exist in this version of the package
        self.missing: List[str] = []
        #: label stamped on every span (the harness sets one per pass)
        self.current_pass = "setup"
        self._root_pid = os.getpid()
        self._pid = self._root_pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # Forked worker: the parent's buffered spans and open stacks
            # belong to the parent, not to this process.
            self._pid = pid
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **extra: object) -> Iterator[dict]:
        """Record one span around the ``with`` body; yields the record, whose
        ``extra`` dict the body may fill in."""
        stack = self._stack()
        pid = os.getpid()
        record = {
            "id": f"{pid}:{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "pass": self.current_pass,
            "pid": pid,
            "tid": threading.get_ident(),
            "epoch": time.time(),
            "start": time.perf_counter(),
            "end": None,
            "extra": dict(extra),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)
            if not stack and pid != self._root_pid:
                self._spool()

    def _spool(self) -> None:
        lines = "".join(json.dumps(span) + "\n" for span in self.spans)
        self.spans = []
        with open(self.spool_dir / f"spans-{os.getpid()}.jsonl", "a") as handle:
            handle.write(lines)

    def collect(self) -> None:
        """Merge the spans pool workers spooled to disk into :attr:`spans`."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                self.spans.extend(json.loads(line) for line in handle if line.strip())
            path.unlink()

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: SpanName,
        after: Optional[AfterHook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is the span name or a function of the call's positional
        arguments returning it; ``after(args, result)`` may return extra
        facts to store on the span (it runs inside the span).
        """
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if label not in self.missing:
                self.missing.append(label)
            return
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            with tracer.span(label) as record:
                result = func(*args, **kwargs)
                if after is not None:
                    record["extra"].update(after(args, result))
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _store_name(operation: str) -> Callable[[tuple], str]:
    def name(args: tuple) -> str:
        return f"store.{args[0].backend.scheme}.{operation}"

    return name


def _serve_route(args: tuple) -> str:
    method, path = args[1], args[2]
    parts = [part for part in path.split("?")[0].split("/") if part][2:]
    if method == "POST":
        return "serve.submit"
    if parts[:1] == ["cells"]:
        return "serve.cell"
    if parts[-1:] == ["frontier"]:
        return "serve.frontier"
    if parts[:1] == ["campaigns"] and len(parts) == 2:
        return "serve.poll"
    return "serve.other"


def _executor_facts(args: tuple, result: object) -> dict:
    executor = args[0]
    timings = executor.cell_timings
    return {
        "cells": len(timings),
        "workers": len({pid for _cell, pid, _start, _end in timings}),
        "busy_s": sum(end - start for _cell, _pid, start, end in timings),
        "first_start": min((start for _c, _p, start, _e in timings), default=None),
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads cross."""
    from repro import dse, serve
    from repro.campaign import backends, executor, store
    from repro.dse import engine
    from repro.energy import accounting
    from repro.obs import telemetry
    from repro.sim import kernels, simulator
    from repro.workloads import columnar, synthetic, trace

    # workloads: generation (the executor binds the name at import), the
    # .rtrc codec the pool ships traces with, and both decoders
    for module in (synthetic, executor):
        tracer.wrap(module, "generate_trace", "workloads.generate")
    tracer.wrap(
        trace.MemoryTrace, "to_bytes", "workloads.encode",
        after=lambda args, result: {"bytes": len(result)},
    )
    tracer.wrap(columnar.ColumnarTrace, "from_rtrc_bytes", "workloads.decode")
    tracer.wrap(trace.MemoryTrace, "from_bytes", "workloads.decode")
    # sim.kernels: a compile span with a generate child is a cache miss
    for module in (kernels, simulator):
        tracer.wrap(module, "compile_kernel", "kernels.compile")
    tracer.wrap(kernels, "generate_source", "kernels.generate")
    # sim and energy
    tracer.wrap(simulator.Simulator, "__init__", "sim.build")
    tracer.wrap(
        simulator.Simulator, "run", "sim.run",
        after=lambda args, result: {
            "instructions": len(args[1]),
            "cycles": result.cycles,
        },
    )
    tracer.wrap(accounting.EnergyAccountant, "report", "energy.report")
    # campaign.store: cell-level put/get per backend, plus serialization
    tracer.wrap(store.ResultStore, "put", _store_name("put"))
    tracer.wrap(
        store.ResultStore, "get", _store_name("get"),
        after=lambda args, result: {"hit": result is not None},
    )
    tracer.wrap(
        store.ResultStore, "record", _store_name("get"),
        after=lambda args, result: {"hit": result is not None},
    )
    tracer.wrap(store, "result_to_dict", "store.serialize")
    tracer.wrap(
        backends, "_dump_record", "store.serialize",
        after=lambda args, result: {"bytes": len(result.encode("utf-8"))},
    )
    # obs.telemetry, campaign.executor, dse, serve
    tracer.wrap(telemetry.TelemetryJournal, "cell", "telemetry.append")
    tracer.wrap(executor.ParallelExecutor, "run", "executor.run", after=_executor_facts)
    tracer.wrap(engine.Evaluator, "evaluate", "dse.evaluate")
    tracer.wrap(
        dse, "run_dse", "dse.run",
        after=lambda args, result: {"sweep": result.cells_simulated > 0},
    )
    tracer.wrap(serve.ReproServer, "dispatch", _serve_route)


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def duration(span: dict) -> float:
    return span["end"] - span["start"]


def nesting_errors(spans: List[dict]) -> List[str]:
    """Violations of span nesting: a child outside its parent, a parent
    missing from the same process and thread, or negative self time."""
    by_id: Dict[str, dict] = {span["id"]: span for span in spans}
    children: Dict[str, float] = {}
    errors = []
    for span in spans:
        if span["end"] < span["start"]:
            errors.append(f"{span['id']} {span['name']}: ends before it starts")
        parent_id = span["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None or (parent["pid"], parent["tid"]) != (span["pid"], span["tid"]):
            errors.append(f"{span['id']} {span['name']}: parent {parent_id} not in its thread")
            continue
        if span["start"] < parent["start"] or span["end"] > parent["end"]:
            errors.append(f"{span['id']} {span['name']}: outside parent {parent['name']}")
        children[parent_id] = children.get(parent_id, 0.0) + duration(span)
    for span_id, covered in children.items():
        # Children of one thread run one after another, so they never cover
        # more than their parent (1 ns slack for float rounding).
        if duration(by_id[span_id]) - covered < -1e-9:
            errors.append(f"{span_id} {by_id[span_id]['name']}: negative self time")
    return errors


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    covered: Dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + duration(span)
    totals: Dict[str, float] = {}
    for span in spans:
        own = duration(span) - covered.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals
