"""Cycle-level out-of-order pipeline driving an L1 interface model.

The pipeline implements the processor-side behaviour the paper's evaluation
depends on (Table II): a 168-entry ROB, 6-wide fetch/dispatch, 8-wide issue
and in-order commit.  Memory instructions are handed to an *L1 interface
model* (Base1ldst, Base2ld1st or MALEC) which owns the address-computation
slots, the load/store/merge buffers, translation and the cache; the pipeline
only sees per-cycle slot availability and load-completion notifications.

The interface object must provide the following methods (duck-typed so the
interface package does not need to import this module)::

    begin_cycle(cycle)
    can_accept_load() / can_accept_store()        -> bool
    reserve_load_slot() / reserve_store_slot()    -> bool   (per-cycle slots)
    submit_load(tag, address, size, cycle)
    submit_store(tag, address, size, cycle)
    commit_store(tag, cycle)
    tick(cycle)  -> list[(tag, data_ready_cycle)]
    finalize(cycle)                                (drain write buffers)
    quiescent() -> bool                            (optional, idle detection)

Execution time is the cycle in which the last instruction commits, which is
what Fig. 4a normalizes across configurations.

Reference loop and kernels
--------------------------
:meth:`OutOfOrderPipeline._run_cycle_driven` is the reference model: one
readable loop over Instruction objects that runs the five stages in a fixed
order every cycle —

1. retire completions due this cycle (a one-cycle bucket for computes,
   stores and L1 hits, a min-heap for longer latencies);
2. issue ready instructions oldest first, up to the issue width, claiming
   the interface's per-cycle address-computation slots;
3. tick the L1 interface and schedule the load completions it reports;
4. commit in order, up to the commit width (committing a store hands it to
   the store buffer);
5. fetch/dispatch into the ROB.

When the machine is fully stalled on a future completion and the interface
reports itself quiescent, the loop jumps the clock to that completion
(*idle fast-forward*); skipped cycles are accounted into
``pipeline.cycles`` exactly as if they had been simulated, so results are
bit-identical with ``enable_fast_forward=False``, which polls every cycle.

The fast path is a per-configuration generated kernel
(:mod:`repro.sim.kernels`): an event-driven rendering of the same stages with
the interface tick fused in, attached through the ``kernel`` argument.  When
the kernel's runtime guards decline, the reference loop runs instead; the
differential tests hold the two to bit-identical results, and an attached
:class:`~repro.obs.collector.RunCollector` sees identical cycle categories,
completion-event counts and occupancy samples from either.

Hot-path notes
--------------
The reference loop's bookkeeping is arrays indexed by sequence number
rather than dictionaries (``in_flight``, ``produced``, ``consumers``), and
per-cycle statistics are accumulated in locals and flushed once at the end
of the run (sums of integers, so the flushed totals are bit-identical to
per-cycle accumulation).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Tuple

from repro.cpu.instruction import Instruction, build_pipeline_arrays
from repro.stats import StatCounters


class RobEntry:
    """Reorder-buffer book-keeping for one in-flight instruction (slotted).

    The ROB itself is the reference loop's program-order deque of these
    entries: dispatch appends at the tail while it holds fewer than
    ``rob_entries``, and commit pops completed entries from the head, up to
    the commit width per cycle.
    """

    __slots__ = (
        "instruction",
        "dispatch_cycle",
        "issued",
        "issue_cycle",
        "completed",
        "complete_cycle",
        "pending_deps",
    )

    def __init__(self, instruction: Instruction, dispatch_cycle: int) -> None:
        self.instruction = instruction
        self.dispatch_cycle = dispatch_cycle
        self.issued = False
        self.issue_cycle: Optional[int] = None
        self.completed = False
        self.complete_cycle: Optional[int] = None
        #: number of producers whose results are still outstanding
        self.pending_deps = 0


@dataclass
class PipelineParametersLite:
    """Pipeline widths (Table II defaults); kept separate from sim config to
    allow unit tests to build tiny pipelines."""

    rob_entries: int = 168
    fetch_width: int = 6
    issue_width: int = 8
    commit_width: int = 6
    compute_latency: int = 1


@dataclass
class PipelineResult:
    """Summary of one pipeline run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    computes: int


class OutOfOrderPipeline:
    """Dependency-driven, resource-limited out-of-order execution model."""

    def __init__(
        self,
        interface,
        params: PipelineParametersLite = PipelineParametersLite(),
        stats: Optional[StatCounters] = None,
        max_cycles: Optional[int] = None,
        enable_fast_forward: bool = True,
        collector=None,
        kernel=None,
    ) -> None:
        self.interface = interface
        self.params = params
        self.stats = stats if stats is not None else StatCounters()
        self.max_cycles = max_cycles
        if params.rob_entries <= 0:
            raise ValueError("the ROB needs at least one entry")
        self.enable_fast_forward = enable_fast_forward
        #: optional repro.obs.collector.RunCollector (duck-typed so this
        #: module does not import obs).  Strictly observational: category
        #: counts and occupancy samples accumulate in loop locals and flush
        #: once per run, and nothing it collects feeds back into stats or
        #: results — attaching one cannot perturb bit-identity.
        self.collector = collector
        #: optional specialized kernel entry point (see repro.sim.kernels):
        #: kernel_run(pipeline, seqs, total, capacity, trace_arrays) returning
        #: a PipelineResult, or None to decline (runtime guard mismatch), in
        #: which case the reference loop runs instead.  Ignored when
        #: ``enable_fast_forward`` is off (that switch pins the reference
        #: loop's every-cycle polling).
        self.kernel = kernel
        #: whether the last run() executed through the specialized kernel
        self.kernel_used = False
        #: whether a kernel was attached but declined (guards returned None)
        self.kernel_fallback = False
        #: idle cycles skipped (fast-forward / event jumps) in the last run()
        self.fast_forwarded_cycles = 0

    # ------------------------------------------------------------------
    def run(self, trace: Iterable[Instruction]) -> PipelineResult:
        """Execute ``trace`` to completion and return the cycle count.

        Columnar input — a :class:`~repro.workloads.columnar.ColumnarTrace`
        or one of its windows (``run_slice``) — is recognised by its
        ``columnar_pipeline_plan()`` protocol and reaches the kernel without
        any Instruction objects at all: the kernel's fetch stage walks a
        ``range`` of sequence numbers and every fact comes from the
        column-built arrays.  The reference loop keeps its per-instruction
        shape, so it materializes objects first.
        """
        self.kernel_used = False
        self.kernel_fallback = False
        self.fast_forwarded_cycles = 0
        kernel = self.kernel if self.enable_fast_forward else None
        plan = getattr(trace, "columnar_pipeline_plan", None)
        if plan is not None:
            seqs, total, capacity, trace_arrays = plan()
            if total == 0:
                return PipelineResult(
                    cycles=0, instructions=0, loads=0, stores=0, computes=0
                )
            if kernel is not None:
                result = kernel(self, seqs, total, capacity, trace_arrays)
                if result is not None:
                    self.kernel_used = True
                    return result
                self.kernel_fallback = True
            return self._run_cycle_driven(
                trace.materialize_instructions(), total, capacity
            )
        instructions = list(trace)
        total = len(instructions)
        if total == 0:
            return PipelineResult(cycles=0, instructions=0, loads=0, stores=0, computes=0)
        # Sequence numbers need not start at zero (a warmed-up run receives a
        # slice of a trace whose seqs are global positions); the seq-indexed
        # arrays are sized to the largest seq in this run, and the kernel's
        # fetch stage walks the seq list built here instead of touching
        # Instruction attributes again.
        seqs = []
        seq_append = seqs.append
        capacity = total
        for position, instruction in enumerate(instructions):
            seq = instruction.seq
            if seq < 0:
                seq = instruction.seq = position
            seq_append(seq)
            if seq >= capacity:
                capacity = seq + 1
        if kernel is not None:
            trace_arrays = build_pipeline_arrays(instructions, capacity)
            result = kernel(self, seqs, total, capacity, trace_arrays)
            if result is not None:
                self.kernel_used = True
                return result
            self.kernel_fallback = True
        return self._run_cycle_driven(instructions, total, capacity)

    # ------------------------------------------------------------------
    # Cycle-driven reference loop
    # ------------------------------------------------------------------
    def _run_cycle_driven(
        self, instructions: List[Instruction], total: int, capacity: int
    ) -> PipelineResult:
        """The reference model: every stage polled every cycle.

        ``kernel="generic"`` selects it, and it runs whenever a kernel's
        runtime guards decline.
        """
        params = self.params
        max_cycles = self.max_cycles or (200 * total + 100_000)
        issue_width = params.issue_width
        fetch_width = params.fetch_width
        commit_width = params.commit_width
        compute_latency = params.compute_latency

        interface = self.interface
        begin_cycle = interface.begin_cycle
        can_accept_load = interface.can_accept_load
        can_accept_store = interface.can_accept_store
        reserve_load_slot = interface.reserve_load_slot
        reserve_store_slot = interface.reserve_store_slot
        submit_load = interface.submit_load
        submit_store = interface.submit_store
        tick = interface.tick
        # Optional protocol extension: interfaces without quiescent() simply
        # never fast-forward and count as active every cycle (unit-test stubs
        # keep working unchanged).
        quiescent = getattr(interface, "quiescent", None)
        fast_forward = self.enable_fast_forward and quiescent is not None

        # The reorder buffer: in-flight entries in program order.
        rob_entries = params.rob_entries
        rob_buffer: Deque[RobEntry] = deque()
        heappush = heapq.heappush
        heappop = heapq.heappop

        next_fetch = 0
        committed = 0
        cycle = 0
        last_commit_cycle = 0

        #: seq -> in-flight RobEntry (None once committed / not yet dispatched)
        in_flight: List[Optional[RobEntry]] = [None] * capacity
        #: seq -> 1 once the instruction's result is available
        produced = bytearray(capacity)
        #: seq -> entries waiting on that producer (None when nobody waits)
        consumers: List[Optional[List[RobEntry]]] = [None] * capacity
        #: min-heap of ready-to-issue sequence numbers (oldest first)
        ready_heap: List[int] = []
        #: memory ops that were ready but found no slot this cycle
        deferred: List[int] = []
        #: entries completing exactly next cycle (computes, stores, L1 hits)
        due_next: List[RobEntry] = []
        #: min-heap of (completion_cycle, seq, entry) for longer latencies;
        #: seq breaks ties so the entry itself is never compared
        completion_events: List[Tuple[int, int, RobEntry]] = []
        #: stores must claim store-buffer entries in program order (as real
        #: store queues allocate at dispatch); otherwise younger stores can
        #: fill the SB and deadlock an older store at the ROB head.
        store_order: List[int] = []
        store_order_head = 0

        loads = stores = computes = 0
        # Per-cycle counters accumulated locally, flushed at the end of run().
        cycles_counted = 0
        issued_total = 0
        dispatched_total = 0

        bucket_latency_ok = compute_latency == 1

        # Observation plumbing: every counted cycle is classified into exactly
        # one category (deltas of the loop's own counters decide which),
        # tallied in locals and flushed into the collector once after the
        # run; the kernels' observe variant reproduces these exactly.
        collector = self.collector
        collecting = collector is not None
        cat_commit = cat_issue = cat_frontend = 0
        cat_memory = cat_buffer = cat_idle = cat_ff = 0
        #: completion events retired (one-cycle bucket plus heap pops)
        events_seen = 0
        sample_every = collector.sample_every if collecting else 0
        next_sample = sample_every if sample_every else float("inf")
        if sample_every:
            occ_lq = getattr(interface, "load_queue", None)
            occ_sb = getattr(interface, "store_buffer", None)
            occ_mb = getattr(interface, "merge_buffer", None)

        # Whether the interface has work: live from the start of the run
        # unless it reports itself idle (it may carry warm-up state), re-armed
        # by every submit and store commit, and disarmed after a cycle that
        # leaves it quiescent.  The interface ticks every cycle regardless (a
        # quiescent tick is a no-op); the flag decides ``memory_wait``.
        interface_active = quiescent is None or not quiescent()

        while committed < total:
            if cycle > max_cycles:
                raise RuntimeError(
                    f"pipeline exceeded {max_cycles} cycles; likely deadlock "
                    f"({committed}/{total} committed)"
                )
            if collecting:
                commit_before = committed
                issue_before = issued_total
                fetch_before = next_fetch
            begin_cycle(cycle)

            # ----------------------------------------------------------
            # 1. Retire completions scheduled for this cycle.  Processing
            #    order within one cycle does not affect outcomes (waking a
            #    consumer only pushes onto the ready heap), so the bucket
            #    of one-cycle completions is drained before the heap.
            # ----------------------------------------------------------
            if due_next:
                due_now = due_next
                due_next = []
                if collecting:
                    events_seen += len(due_now)
                for entry in due_now:
                    if entry.completed:
                        continue
                    entry.completed = True
                    entry.complete_cycle = cycle
                    seq = entry.instruction.seq
                    produced[seq] = 1
                    waiting = consumers[seq]
                    if waiting is not None:
                        consumers[seq] = None
                        for consumer in waiting:
                            consumer.pending_deps -= 1
                            if consumer.pending_deps == 0 and not consumer.issued:
                                heappush(ready_heap, consumer.instruction.seq)
            while completion_events and completion_events[0][0] <= cycle:
                entry = heappop(completion_events)[2]
                if collecting:
                    events_seen += 1
                if entry.completed:
                    continue
                entry.completed = True
                entry.complete_cycle = cycle
                seq = entry.instruction.seq
                produced[seq] = 1
                waiting = consumers[seq]
                if waiting is not None:
                    consumers[seq] = None
                    for consumer in waiting:
                        consumer.pending_deps -= 1
                        if consumer.pending_deps == 0 and not consumer.issued:
                            heappush(ready_heap, consumer.instruction.seq)

            # ----------------------------------------------------------
            # 2. Issue ready instructions (oldest first, up to issue width).
            # ----------------------------------------------------------
            if deferred:
                for seq in deferred:
                    heappush(ready_heap, seq)
                deferred = []
            issued = 0
            postponed: List[int] = []
            postponed_load = False
            loads_blocked = stores_blocked = False
            while ready_heap and issued < issue_width:
                seq = heappop(ready_heap)
                entry = in_flight[seq]
                if entry is None or entry.issued:
                    continue
                instruction = entry.instruction
                if not instruction.is_memory:
                    entry.issued = True
                    entry.issue_cycle = cycle
                    if bucket_latency_ok:
                        due_next.append(entry)
                    else:
                        heappush(
                            completion_events, (cycle + compute_latency, seq, entry)
                        )
                    issued += 1
                elif instruction.is_load:
                    if (
                        not loads_blocked
                        and can_accept_load()
                        and reserve_load_slot()
                    ):
                        entry.issued = True
                        entry.issue_cycle = cycle
                        submit_load(seq, instruction.address, instruction.size, cycle)
                        interface_active = True
                        issued += 1
                    else:
                        # Out of load slots this cycle: keep the load for the
                        # next cycle but let younger compute work proceed.
                        loads_blocked = True
                        postponed.append(seq)
                        postponed_load = True
                else:  # store
                    in_store_order = (
                        store_order_head < len(store_order)
                        and store_order[store_order_head] == seq
                    )
                    if (
                        not stores_blocked
                        and in_store_order
                        and can_accept_store()
                        and reserve_store_slot()
                    ):
                        store_order_head += 1
                        entry.issued = True
                        entry.issue_cycle = cycle
                        submit_store(seq, instruction.address, instruction.size, cycle)
                        interface_active = True
                        # Stores produce no register value: they are complete
                        # (for commit purposes) once their address is computed.
                        due_next.append(entry)
                        issued += 1
                    else:
                        stores_blocked = True
                        postponed.append(seq)
            deferred = postponed  # drained into ready_heap above
            deferred_has_load = postponed_load
            issued_total += issued

            # ----------------------------------------------------------
            # 3. Advance the interface; schedule load completions.
            # ----------------------------------------------------------
            for tag, ready_cycle in tick(cycle):
                entry = in_flight[tag] if 0 <= tag < capacity else None
                if entry is None or entry.completed:
                    continue
                if ready_cycle <= cycle + 1:
                    due_next.append(entry)
                else:
                    heappush(completion_events, (ready_cycle, tag, entry))

            # ----------------------------------------------------------
            # 4. Commit in order, up to the commit width.
            # ----------------------------------------------------------
            if rob_buffer and rob_buffer[0].completed:
                commits = 0
                while (
                    commits < commit_width
                    and rob_buffer
                    and rob_buffer[0].completed
                ):
                    entry = rob_buffer.popleft()
                    commits += 1
                    committed += 1
                    last_commit_cycle = cycle
                    instruction = entry.instruction
                    if instruction.is_load:
                        loads += 1
                    elif instruction.is_store:
                        stores += 1
                        interface.commit_store(instruction.seq, cycle)
                        # The committed store must now drain SB -> MB -> cache.
                        interface_active = True
                    else:
                        computes += 1
                    in_flight[instruction.seq] = None
                    consumers[instruction.seq] = None
            cycles_counted += 1

            # ----------------------------------------------------------
            # 5. Fetch / dispatch into the ROB while it has room.
            # ----------------------------------------------------------
            if next_fetch < total:
                fetched = 0
                while (
                    fetched < fetch_width
                    and next_fetch < total
                    and len(rob_buffer) < rob_entries
                ):
                    instruction = instructions[next_fetch]
                    entry = RobEntry(instruction, cycle)
                    rob_buffer.append(entry)
                    seq = instruction.seq
                    in_flight[seq] = entry
                    if instruction.is_store:
                        store_order.append(seq)
                    pending = 0
                    if instruction.deps:
                        for distance in instruction.deps:
                            producer = seq - distance
                            if (
                                producer < 0
                                or produced[producer]
                                or in_flight[producer] is None
                            ):
                                continue
                            waiting = consumers[producer]
                            if waiting is None:
                                waiting = consumers[producer] = []
                            waiting.append(entry)
                            pending += 1
                        entry.pending_deps = pending
                    if pending == 0:
                        heappush(ready_heap, seq)
                    next_fetch += 1
                    fetched += 1
                dispatched_total += fetched

            # ----------------------------------------------------------
            # Observation: classify this cycle (one category per counted
            # cycle; first match wins) and sample structure occupancy.
            # ``interface_active`` still reflects activity *during* this
            # cycle — the disarm check below runs after classification.
            # ----------------------------------------------------------
            if collecting:
                if committed > commit_before:
                    cat_commit += 1
                elif issued_total > issue_before:
                    cat_issue += 1
                elif next_fetch > fetch_before:
                    cat_frontend += 1
                elif interface_active:
                    cat_memory += 1
                elif deferred:
                    cat_buffer += 1
                else:
                    cat_idle += 1
                if cycles_counted >= next_sample:
                    next_sample += sample_every
                    collector.sample(
                        cycle,
                        len(rob_buffer),
                        occ_lq.occupancy if occ_lq is not None else 0,
                        occ_sb.occupancy if occ_sb is not None else 0,
                        occ_mb.occupancy if occ_mb is not None else 0,
                    )

            cycle += 1
            if interface_active and quiescent is not None and quiescent():
                interface_active = False

            # ----------------------------------------------------------
            # 6. Idle fast-forward: if the machine is fully stalled waiting
            #    for a future completion event, jump the clock to it.  Each
            #    skipped cycle would have been a complete no-op (nothing to
            #    retire/issue/tick/commit/fetch), so only the cycle counter
            #    needs advancing — results stay bit-identical.
            #
            #    Deferred memory ops require care: their issue attempt used
            #    *pre-tick* state, but this cycle's tick may have released
            #    the back-pressure that blocked them.  A quiescent interface
            #    holds no unserviced loads, so its load queue is drained and
            #    a deferred *load* would always issue next cycle — never
            #    skip then.  A deferred *store* can only issue next cycle if
            #    it heads the program-order store sequence and the store
            #    buffer has room; both are stable until a commit or a
            #    completion event, so anything else is safe to skip across.
            # ----------------------------------------------------------
            if (
                fast_forward
                and not ready_heap
                and not due_next
                and completion_events
                and completion_events[0][0] > cycle
                and (next_fetch >= total or len(rob_buffer) >= rob_entries)
                and committed < total
                and not (rob_buffer and rob_buffer[0].completed)
                and (
                    not deferred
                    or (
                        not deferred_has_load
                        and (
                            store_order_head >= len(store_order)
                            or store_order[store_order_head] not in deferred
                            or not can_accept_store()
                        )
                    )
                )
                and quiescent()
            ):
                target = completion_events[0][0]
                skipped = target - cycle
                cycles_counted += skipped
                self.fast_forwarded_cycles += skipped
                if collecting:
                    cat_ff += skipped
                cycle = target

        total_cycles = last_commit_cycle + 1
        interface.finalize(total_cycles)
        # Flush the locally accumulated per-cycle counters in one shot.
        stats = self.stats
        stats.add("pipeline.issued", issued_total)
        stats.add("pipeline.cycles", cycles_counted)
        stats.add("pipeline.dispatched", dispatched_total)
        stats.set("pipeline.total_cycles", total_cycles)
        stats.set("pipeline.committed", committed)
        if collecting:
            # Every loop iteration classified exactly one counted cycle and
            # every jump accounted its skipped stretch, so the categories sum
            # to ``cycles_counted`` == ``total_cycles`` by construction.
            collector.record_categories(
                cat_commit,
                cat_issue,
                cat_frontend,
                cat_memory,
                cat_buffer,
                cat_idle,
                cat_ff,
            )
            collector.record_run(total_cycles, total, events_seen)
        return PipelineResult(
            cycles=total_cycles,
            instructions=total,
            loads=loads,
            stores=stores,
            computes=computes,
        )
