"""Measurement harness: setup probes, the output check, timed passes, the
traced run and the report.

One run of one workload:

1. ``setup_s`` samples (untraced runs only): the workload is set up in
   :data:`SETUP_SAMPLES` fresh processes, each timing ``import repro``, trace
   generation, kernel compilation and opening the store or server.
2. The workload is set up in this process (inside a span when traced).
3. The output check: fig4-mini at the golden's parameters must reproduce
   ``tests/golden/fig4_mini.json`` byte for byte.  This checks the model
   against itself, not against the paper's Fig. 4.
4. Timed passes, closed loop, until the next pass would overrun
   ``--seconds`` (at least the workload's ``min_passes``).  With ``--trace 1`` passes
   alternate untraced/traced and only the traced ones carry the layer
   wrappers; their wall times give ``trace.overhead_frac``.
5. Checks: every pass's records equal the first pass's (where the workload
   repeats identical work), plus each workload's own checks.  Every
   mismatch, exception or non-2xx reply is one failed operation.

Timings are reported as median, tail (the highest percentile of
:data:`LADDER` with at least ten samples beyond it) and sample count.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.tracing import Tracer, duration, install_layers, nesting_errors, self_times
from perfbench.workloads import PassResult, Workload, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "fig4_mini.json"
#: scratch space of a run (stores, spooled spans), removed when it ends
TMP_ROOT = ROOT / ".perfbench_tmp"

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150
MAX_CONSECUTIVE_ERRORS = 3

#: end-to-end metrics (untraced runs): name -> (unit, higher is better)
END_TO_END = {
    "sim_kips": ("kinstr/s", True),
    "cell_p50_ms": ("ms", False),
    "cell_tail_ms": ("ms", False),
    "peak_rss_mb": ("MB", False),
    "setup_s": ("s", False),
}

#: per-layer metrics (traced runs): name -> unit
PER_LAYER = {
    "workloads.generate_ms": "ms",
    "workloads.encode_ms": "ms",
    "workloads.decode_ms": "ms",
    "workloads.trace_kib": "KiB",
    "kernels.compile_ms": "ms",
    "kernels.compiled": "count",
    "sim.build_ms": "ms",
    "sim.run_ms": "ms",
    "sim.us_per_instr": "us",
    "sim.ns_per_cycle": "ns",
    "sim.share": "frac",
    "cache.l1_load_mpki": "1/kinstr",
    "cache.l1_fill_pki": "1/kinstr",
    "cache.l2_access_pki": "1/kinstr",
    "memory.dram_read_pki": "1/kinstr",
    "tlb.utlb_mpki": "1/kinstr",
    "tlb.walk_pki": "1/kinstr",
    "interfaces.merged_load_frac": "frac",
    "core.way_known_frac": "frac",
    "buffers.sb_drain_pki": "1/kinstr",
    "energy.report_ms": "ms",
    "store.serialize_ms": "ms",
    "store.record_kib": "KiB",
    "store.sqlite.put_ms": "ms",
    "store.sqlite.get_ms": "ms",
    "store.json.put_ms": "ms",
    "store.json.get_ms": "ms",
    "telemetry.append_ms": "ms",
    "telemetry.bytes_per_cell": "B",
    "executor.overhead_ms_per_cell": "ms",
    "executor.worker_util": "frac",
    "executor.first_cell_ms": "ms",
    "dse.evaluate_ms": "ms",
    "dse.strategy_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.poll_ms": "ms",
    "serve.cell_ms": "ms",
    "serve.frontier_ms": "ms",
    "trace.overhead_frac": "frac",
}

#: exact counts per kilo-instruction read from SimulationResult.stats:
#: metric -> (numerator stat, denominator stat or None for per-kinstr)
STAT_COUNTS = {
    "cache.l1_load_mpki": ("l1.load_miss", None),
    "cache.l1_fill_pki": ("l1.fill", None),
    "cache.l2_access_pki": ("l2.access", None),
    "memory.dram_read_pki": ("dram.read", None),
    "tlb.utlb_mpki": ("utlb.miss", None),
    "tlb.walk_pki": ("tlb.walk", None),
    "buffers.sb_drain_pki": ("sb.drain", None),
    "core.way_known_frac": ("malec.way_known", "malec.way_lookup"),
}

SELF_CHECK_NOTE = (
    "output check: the model against itself (golden fig4-mini records and "
    "repeat-to-repeat identity), not against the paper's Fig. 4"
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def tail_percentile(count: int) -> float:
    """The highest :data:`LADDER` percentile with >= 10 samples beyond it
    (the median when there are fewer than 20 samples)."""
    eligible = [pct for pct in LADDER if count * (100.0 - pct) / 100.0 >= 10.0]
    return max(eligible, default=50.0)


def summarize(
    values: List[float], unit: str, higher_is_better: bool = False, basis: Optional[int] = None
) -> dict:
    """Median, tail (on the bad side) and sample count of ``values``.

    The tail percentile is chosen for ``basis`` samples (default: all of
    them).  Passing the count a run is guaranteed to reach keeps the
    percentile the same in every run: a percentile that moved with the pass
    count would step between cell kinds of very different cost.
    """
    if not values:
        return {"median": 0.0, "tail": 0.0, "tail_pct": None, "n": 0, "unit": unit}
    pct = tail_percentile(basis if basis is not None else len(values))
    bad_side = 100.0 - pct if higher_is_better else pct
    return {
        "median": statistics.median(values),
        "tail": percentile(values, bad_side) if pct > 50.0 else statistics.median(values),
        "tail_pct": bad_side,
        "n": len(values),
        "unit": unit,
    }


# ----------------------------------------------------------------------
# Identity of what was measured
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over the package sources: names the code even outside git."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
            sha.update(path.read_bytes())
    return sha.hexdigest()


def commit() -> str:
    """Short git revision of the checkout, or ``unknown`` outside git."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def golden_payload(records: List[dict], spec) -> str:
    """The golden file's exact text for a fig4-mini store's records."""
    payload = {
        "preset": spec.name,
        "instructions": spec.instructions,
        "warmup_fraction": spec.warmup_fraction,
        "seed": spec.seed,
        "records": {record["key"]: record for record in records},
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def check_golden(tmp: Path, golden: Path = GOLDEN, tamper=None) -> Tuple[bool, str]:
    """Run fig4-mini serially into a fresh store and compare with the golden
    file byte for byte.  ``tamper(records)`` lets the self-tests alter the
    fresh records to prove a mismatch is caught."""
    from repro.api import RunOptions
    from repro.campaign import ParallelExecutor, campaign_preset
    from repro.campaign.store import open_store

    spec = campaign_preset("fig4-mini")
    store = open_store(f"json:{tmp / 'golden'}")
    try:
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(spec)
        records = list(store.records())
    finally:
        store.close()
    if tamper is not None:
        tamper(records)
    expected = golden.read_bytes()
    produced = golden_payload(records, spec).encode("utf-8")
    if produced == expected:
        return True, "golden fig4-mini: identical"
    return False, (
        f"golden fig4-mini differs from {golden.name} "
        f"({len(produced)} vs {len(expected)} bytes)"
    )


def json_store_probe(records: List[dict], tmp: Path) -> PassResult:
    """Put every record into a fresh ``json:`` store and read it back (the
    traced run's measurement of the JSON-directory backend)."""
    from repro.campaign import CampaignCell
    from repro.campaign.spec import config_from_dict
    from repro.campaign.store import open_store, result_from_dict, result_to_dict

    outcome = PassResult(wall_s=0.0, kinstr=0.0, compute_s=0.0)
    store = open_store(f"json:{tmp / 'json-probe'}")
    try:
        for record in records:
            cell = CampaignCell(
                benchmark=record["benchmark"],
                config=config_from_dict(record["config"]),
                instructions=record["instructions"],
                warmup_fraction=record["warmup_fraction"],
                seed=record["seed"],
                trace_hash=record.get("trace_hash", ""),
            )
            outcome.check(
                cell.key() == record["key"], f"record {record['key']} rebuilt a different key"
            )
            store.put(cell, result_from_dict(record["result"]))
            back = store.get(cell)
            outcome.check(
                back is not None and result_to_dict(back) == record["result"],
                f"json store round trip changed {record['key']}",
            )
    finally:
        store.close()
    return outcome


# ----------------------------------------------------------------------
# Setup probes
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int, scale: str) -> float:
    """Set ``workload`` up in this (fresh) process; returns the seconds."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=TMP_ROOT))
    instance: Optional[Workload] = None
    try:
        start = time.perf_counter()
        import repro  # noqa: F401  (the import is part of what is timed)

        instance = make_workload(workload, seed, scale, tmp)
        instance.setup()
        return time.perf_counter() - start
    finally:
        if instance is not None:
            instance.teardown()
        _remove_scratch(tmp)


def setup_samples(workload: str, seed: int, scale: str, count: int) -> List[float]:
    """``count`` setup times, each from a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--scale", scale],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """Everything one benchmark run measured; :meth:`final_line` is the
    driver-facing result, :meth:`detail` the full record."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.setup_s: List[float] = []
        self.untraced: List[PassResult] = []
        self.traced: List[PassResult] = []
        self.spans: List[dict] = []
        self.missing_wraps: List[str] = []
        self.measured_s = 0.0
        self.peak_rss_mb = 0.0
        self.metrics: Dict[str, dict] = {}
        self.extra_metrics: Dict[str, dict] = {}

    def count(self, outcome: PassResult) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def fail(self, message: str) -> None:
        self.check(False, message)

    # ------------------------------------------------------------------
    def final_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in self.metrics.items()
            },
        }

    def layer_shares(self) -> Dict[str, float]:
        """Self time of each span name during the traced passes, as a share
        of their wall (worker spans included, so shares can sum past 1)."""
        wall = sum(p.wall_s for p in self.traced)
        spans = [span for span in self.spans if span["pass"].startswith("pass-")]
        if not wall or not spans:
            return {}
        totals = self_times(spans)
        return {name: totals[name] / wall for name in sorted(totals)}

    def detail(self) -> dict:
        from repro.obs.hostinfo import host_metadata

        revision = commit()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "scale": self.scale,
            "commit": revision,
            "source_sha256": source_digest(),
            "host": host_metadata(revision=revision),
            "passes": {"untraced": len(self.untraced), "traced": len(self.traced)},
            "pass_wall_s": {
                "untraced": [p.wall_s for p in self.untraced],
                "traced": [p.wall_s for p in self.traced],
            },
            "pass_sim_kips": [p.kinstr / p.compute_s for p in self.untraced if p.compute_s > 0],
            "measured_s": self.measured_s,
            "error_rate": _ratio(self.failed, self.attempted),
            "errors": self.errors[:20],
            "missing_wraps": self.missing_wraps,
            "layer_self_share": self.layer_shares(),
            "metrics": self.metrics,
            "workload_metrics": self.extra_metrics,
            "note": SELF_CHECK_NOTE,
        }


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    golden: bool = True,
    samples: int = SETUP_SAMPLES,
) -> Run:
    """Run one workload as ``run.py`` does and return the :class:`Run`."""
    run = Run(workload, seed, seconds, trace, scale)
    if not trace:
        run.setup_s = setup_samples(workload, seed, scale, samples)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    instance = make_workload(workload, seed, scale, tmp)
    tracer = Tracer(tmp / "spool") if trace else None
    try:
        if tracer is not None:
            install_layers(tracer)
            run.missing_wraps = list(tracer.missing)
            try:
                with tracer.span("setup"):
                    instance.setup()
            finally:
                tracer.uninstall()
        else:
            instance.setup()
        if golden:
            ok, message = check_golden(tmp)
            run.check(ok, message)
        _measure(run, instance, tracer)
        extra = instance.verify()
        if extra is not None:
            run.count(extra)
        if tracer is not None and instance.records():
            tracer.current_pass = "probe"
            install_layers(tracer)
            try:
                with tracer.span("probe.json_store"):
                    run.count(json_store_probe(instance.records(), tmp))
            finally:
                tracer.uninstall()
        if tracer is not None:
            tracer.collect()
            run.spans = tracer.spans
            for error in nesting_errors(run.spans):
                run.fail(f"span nesting: {error}")
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _compute_metrics(run, instance)
    finally:
        if tracer is not None:
            tracer.uninstall()
        instance.teardown()
        _remove_scratch(tmp)
    return run


def _remove_scratch(tmp: Path) -> None:
    """Delete a run's scratch directory, and the scratch root once empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass  # another run's scratch is still there


def _measure(run: Run, instance: Workload, tracer: Optional[Tracer]) -> None:
    """The timed closed loop."""
    first_digests: Optional[Dict[str, str]] = None
    walls: List[float] = []
    consecutive_errors = 0
    # warm-up, then min_passes untraced (or one untraced and one traced)
    needed = 1 + (2 if tracer is not None else instance.min_passes)
    start = time.perf_counter()
    index = 0
    while True:
        if index == 1:
            # Pass 0 warms what the program builds lazily per process (trace
            # views, address memos); it is checked but not measured.
            start = time.perf_counter()
        traced = tracer is not None and index % 2 == 0 and index > 0
        began = time.perf_counter()
        outcome: Optional[PassResult] = None
        try:
            if traced:
                tracer.current_pass = f"pass-{index}"
                install_layers(tracer)
                try:
                    with tracer.span("pass"):
                        outcome = instance.run_pass(index)
                finally:
                    tracer.uninstall()
            else:
                outcome = instance.run_pass(index)
        except Exception:  # a failed pass is a failed operation, not a crash
            run.fail(f"pass {index}: {traceback.format_exc(limit=4)}")
            consecutive_errors += 1
        if outcome is not None:
            consecutive_errors = 0
            instance.finish_pass(outcome)
            run.count(outcome)
            if index > 0:
                (run.traced if traced else run.untraced).append(outcome)
            if instance.same_records_every_pass:
                if first_digests is None:
                    first_digests = outcome.digests
                for key in sorted(set(first_digests) | set(outcome.digests)):
                    run.check(
                        first_digests.get(key) == outcome.digests.get(key),
                        f"pass {index}: record {key} differs from pass 0",
                    )
        index += 1
        if consecutive_errors >= MAX_CONSECUTIVE_ERRORS:
            break
        if index == 1:
            continue
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if index >= needed and elapsed + statistics.median(walls) > run.seconds:
            break
    run.measured_s = time.perf_counter() - start


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _compute_metrics(run: Run, instance: Workload) -> None:
    passes = run.untraced

    def pooled(field: str) -> Tuple[List[float], Optional[int]]:
        """All passes' samples of ``field``, and the count every run is
        guaranteed to reach (the basis of the tail percentile)."""
        values = [value for p in passes for value in getattr(p, field)]
        basis = instance.min_passes * len(getattr(passes[0], field)) if passes else None
        return values, basis

    requests, request_basis = pooled("request_ms")
    request_summary = summarize(requests, "ms", basis=request_basis)
    resume_summary = summarize(pooled("resume_s")[0], "s")
    error_rate = _ratio(run.failed, run.attempted)
    run.extra_metrics = {
        "resume_s": dict(resume_summary, value=resume_summary["median"]),
        "request_p50_ms": dict(request_summary, value=request_summary["median"]),
        "request_tail_ms": dict(request_summary, value=request_summary["tail"]),
        "error_rate": {
            "value": error_rate, "median": error_rate, "n": run.attempted, "unit": "frac"
        },
    }
    if run.trace:
        run.metrics = layer_metrics(run, instance)
        return
    kips = [p.kinstr / p.compute_s for p in passes if p.compute_s > 0 and p.kinstr > 0]
    kips_summary = summarize(kips, "kinstr/s", higher_is_better=True)
    cells, cell_basis = pooled("cell_ms")
    cell_summary = summarize(cells, "ms", basis=cell_basis)
    setup_summary = summarize(run.setup_s, "s")
    run.metrics = {
        "sim_kips": dict(kips_summary, value=kips_summary["median"]),
        "cell_p50_ms": dict(cell_summary, value=cell_summary["median"]),
        "cell_tail_ms": dict(cell_summary, value=cell_summary["tail"]),
        "peak_rss_mb": {"value": run.peak_rss_mb, "median": run.peak_rss_mb, "n": 1, "unit": "MB"},
        "setup_s": dict(setup_summary, value=setup_summary["median"]),
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(run: Run, instance: Workload) -> Dict[str, dict]:
    """Every :data:`PER_LAYER` metric from the traced run's spans and the
    workload's results.  A layer the workload never enters reads 0 with
    ``n`` 0."""
    named: Dict[str, List[dict]] = {}
    children: Dict[str, List[dict]] = {}
    for span in run.spans:
        named.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def anywhere(name: str) -> List[dict]:
        return named.get(name, [])

    def in_pass(name: str) -> List[dict]:
        return [span for span in anywhere(name) if span["pass"].startswith("pass-")]

    def child_duration(span: dict, name: str) -> float:
        return sum(duration(c) for c in children.get(span["id"], []) if c["name"] == name)

    metrics: Dict[str, dict] = {}

    def timing(name: str, chosen: List[dict]) -> None:
        metrics[name] = summarize([duration(span) * 1000.0 for span in chosen], PER_LAYER[name])

    def value(name: str, number: float, n: int) -> None:
        metrics[name] = {"median": number, "n": n, "unit": PER_LAYER[name]}

    # workloads (setup included: that is where traces are generated)
    timing("workloads.generate_ms", anywhere("workloads.generate"))
    timing("workloads.encode_ms", anywhere("workloads.encode"))
    timing("workloads.decode_ms", anywhere("workloads.decode"))
    sizes = instance.trace_sizes()
    value("workloads.trace_kib", _mean(sizes) / 1024.0, len(sizes))
    # sim.kernels: a compile that generated code was a cache miss
    generates = anywhere("kernels.generate")
    missed = {span["parent"] for span in generates}
    timing("kernels.compile_ms", [s for s in anywhere("kernels.compile") if s["id"] in missed])
    value("kernels.compiled", float(len(generates)), len(generates))
    # sim
    runs = in_pass("sim.run")
    timing("sim.build_ms", in_pass("sim.build"))
    timing("sim.run_ms", runs)
    run_s = sum(duration(span) for span in runs)
    instructions = sum(span["extra"].get("instructions", 0) for span in runs)
    cycles = sum(span["extra"].get("cycles", 0) for span in runs)
    value("sim.us_per_instr", _ratio(run_s * 1e6, instructions), len(runs))
    value("sim.ns_per_cycle", _ratio(run_s * 1e9, cycles), len(runs))
    value("sim.share", _ratio(run_s, sum(p.wall_s for p in run.traced)), len(runs))
    # cache, tlb, memory, interfaces, core, buffers: exact counts
    results = instance.results()

    def total(stat: str) -> float:
        return sum(result["stats"].get(stat, 0.0) for result in results)

    measured = sum(result["instructions"] for result in results)
    for name, (stat, denominator) in STAT_COUNTS.items():
        if denominator is None:
            value(name, _ratio(total(stat) * 1000.0, measured), len(results))
        else:
            value(name, _ratio(total(stat), total(denominator)), len(results))
    merged = total("interface.loads_merged")
    merged_frac = _ratio(merged, merged + total("interface.load_accesses"))
    value("interfaces.merged_load_frac", merged_frac, len(results))
    # energy
    timing("energy.report_ms", in_pass("energy.report"))
    # campaign.store: serialization inside each put, then put/get per backend
    puts = anywhere("store.sqlite.put") + anywhere("store.json.put")
    metrics["store.serialize_ms"] = summarize(
        [child_duration(put, "store.serialize") * 1000.0 for put in puts], "ms"
    )
    dumped = [s["extra"]["bytes"] for s in anywhere("store.serialize") if "bytes" in s["extra"]]
    value("store.record_kib", _mean(dumped) / 1024.0, len(dumped))
    for backend in ("sqlite", "json"):
        timing(f"store.{backend}.put_ms", anywhere(f"store.{backend}.put"))
        hits = [s for s in anywhere(f"store.{backend}.get") if s["extra"].get("hit")]
        timing(f"store.{backend}.get_ms", hits)
    # obs.telemetry
    timing("telemetry.append_ms", in_pass("telemetry.append"))
    line_sizes = instance.journal_cell_bytes()
    value("telemetry.bytes_per_cell", _mean(line_sizes), len(line_sizes))
    # campaign.executor: the runs that computed cells
    executed = [s for s in in_pass("executor.run") if s["extra"].get("cells")]
    capacity = sum(duration(s) * max(1, s["extra"]["workers"]) for s in executed)
    busy = sum(s["extra"]["busy_s"] for s in executed)
    computed = sum(s["extra"]["cells"] for s in executed)
    value("executor.overhead_ms_per_cell", _ratio((capacity - busy) * 1000.0, computed), computed)
    value("executor.worker_util", _ratio(busy, capacity), len(executed))
    metrics["executor.first_cell_ms"] = summarize(
        [(s["extra"]["first_start"] - s["epoch"]) * 1000.0 for s in executed], "ms"
    )
    # dse: batches, and the strategy's own time around them in each sweep
    timing("dse.evaluate_ms", in_pass("dse.evaluate"))
    metrics["dse.strategy_ms"] = summarize(
        [
            (duration(s) - child_duration(s, "dse.evaluate")) * 1000.0
            for s in in_pass("dse.run")
            if s["extra"].get("sweep")
        ],
        "ms",
    )
    # serve: server-side handling per route
    for route in ("submit", "poll", "cell", "frontier"):
        timing(f"serve.{route}_ms", in_pass(f"serve.{route}"))
    # tracing overhead: traced over untraced pass wall
    traced = [p.wall_s for p in run.traced]
    untraced = [p.wall_s for p in run.untraced]
    overhead = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced
        else 0.0
    )
    value("trace.overhead_frac", overhead, min(len(traced), len(untraced)))

    for entry in metrics.values():
        entry["value"] = entry["median"]
    return {name: metrics[name] for name in PER_LAYER}


def _number(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def format_table(run: Run) -> str:
    """Human-readable report: every metric with unit, median, tail and n."""
    kind = "per-layer (traced run)" if run.trace else "end-to-end (untraced run)"
    lines = [
        f"perfbench {run.workload} seed={run.seed} {kind}: "
        f"{len(run.untraced)} untraced + {len(run.traced)} traced passes in {run.measured_s:.1f} s",
        SELF_CHECK_NOTE,
        f"{'metric':32} {'unit':>9} {'median':>12} {'tail':>12} {'tail pct':>8} {'n':>6}",
    ]
    for name, entry in list(run.metrics.items()) + list(run.extra_metrics.items()):
        lines.append(
            f"{name:32} {entry['unit']:>9} {_number(entry['median']):>12} "
            f"{_number(entry.get('tail')):>12} {_number(entry.get('tail_pct')):>8} {entry['n']:>6}"
        )
    lines.append(f"operations: {run.attempted} attempted, {run.failed} failed")
    lines.extend(f"  failed: {error}" for error in run.errors[:10])
    return "\n".join(lines)
