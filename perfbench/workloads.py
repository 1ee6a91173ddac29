"""The benchmark's workloads: closed loops over the public ``repro`` API.

Each workload drives the calls the CLI makes after argument parsing —
``ParallelExecutor.run`` for ``repro sweep``, ``run_dse`` for ``repro dse``,
an in-process ``ReproServer`` plus one HTTP client for ``repro serve`` — with
one caller that waits for every result.  ``setup()`` does what a user pays
once per process (traces, kernels, store or server); ``run_pass()`` is one
timed, repeatable unit of work and returns what the harness aggregates.
Imports of ``repro`` happen inside the methods, so the setup probe times
them too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: trace length of the two Fig. 4 grid workloads (instructions, 30% warm-up)
FIG4_INSTRUCTIONS = {"full": 10_000, "toy": 600}
#: DSE: malec-mini's 72 points, all of them entering the halving ladder
DSE_BUDGET = {"full": 72, "toy": 3}
DSE_INSTRUCTIONS = {"full": 2_000, "toy": 500}
#: warm-store passes per DSE sweep (each one is a ``resume_s`` sample)
DSE_RESUMES = {"full": 3, "toy": 1}
#: serve: fig4-mini submissions at this trace length, pool of 2 workers
SERVE_INSTRUCTIONS = {"full": 5_000, "toy": 400}
#: benchmark override of the submissions (None keeps fig4-mini's three)
SERVE_BENCHMARKS = {"full": None, "toy": ["gzip"]}
SERVE_JOBS = 2
SERVE_POLL_S = 0.01
WARMUP_FRACTION = 0.3


def digest(record: object) -> str:
    """Canonical content digest of a JSON-able record."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_trace_key(cell) -> tuple:
    """The executor's trace-cache key of ``cell``."""
    return (cell.benchmark, cell.instructions, cell.trace_seed(), cell.trace_hash)


def generate_cell_trace(cell):
    """Generate ``cell``'s synthetic trace (through the module attribute, so
    the traced run sees the call)."""
    from repro.workloads import synthetic
    from repro.workloads.suites import benchmark_profile

    return synthetic.generate_trace(
        benchmark_profile(cell.benchmark),
        instructions=cell.instructions,
        seed=cell.trace_seed(),
    )


@dataclass
class PassResult:
    """What one timed pass produced."""

    #: wall time of the whole pass (what trace.overhead_frac compares)
    wall_s: float
    #: simulated kilo-instructions (warm-up included) and the computing wall
    kinstr: float
    compute_s: float
    cell_ms: List[float] = field(default_factory=list)
    resume_s: List[float] = field(default_factory=list)
    request_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: key -> digest, compared across passes when the workload allows it
    digests: Dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


class Workload:
    """Base class: a named closed loop with setup, passes and teardown."""

    name = ""
    #: timed passes every run makes, even past ``--seconds``; sized so the
    #: cell-time tail percentile has at least ten samples beyond it
    min_passes = 2
    #: True when every pass must reproduce the first pass's records exactly
    same_records_every_pass = True

    def __init__(self, seed: int, scale: str, tmp: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = Path(tmp)
        self.traces: list = []
        if scale == "toy":
            self.min_passes = 2

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish_pass(self, outcome: PassResult) -> None:
        """Untimed, untraced bookkeeping after a pass (digests, results)."""

    def verify(self) -> Optional[PassResult]:
        """Untimed checks after the last pass (``None`` when there are none)."""
        return None

    def results(self) -> List[dict]:
        """The last pass's results, as ``result_to_dict`` dictionaries."""
        raise NotImplementedError

    def records(self) -> List[dict]:
        """The last pass's full store records (empty without a store)."""
        return []

    def journal_cell_bytes(self) -> List[int]:
        """Line length of each computed-cell telemetry record of the last
        pass (empty without a journal)."""
        return []

    def trace_sizes(self) -> List[int]:
        """Encoded ``.rtrc`` size of each of the workload's traces."""
        return [len(trace.to_bytes()) for trace in self.traces]

    def teardown(self) -> None:
        pass


def _journal_records(path: Path, offset: int = 0) -> tuple:
    """Records appended to a telemetry journal since byte ``offset``, each
    with its line length under ``"_bytes"``; returns ``(records, new offset)``."""
    if not path.exists():
        return [], offset
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read()
    records = []
    for line in data.splitlines(keepends=True):
        record = json.loads(line)
        record["_bytes"] = len(line)
        records.append(record)
    return records, offset + len(data)


def _computed_cells(records: List[dict], run_id: Optional[str] = None) -> List[dict]:
    """The journal's records of freshly computed cells (of one run, if given)."""
    return [
        record
        for record in records
        if record.get("record") == "cell"
        and record.get("source") == "computed"
        and (run_id is None or record.get("run_id") == run_id)
    ]


# ----------------------------------------------------------------------
# fig4_hits / fig4_misses
# ----------------------------------------------------------------------
class Fig4Grid(Workload):
    """The five Fig. 4 configurations over three benchmarks, serial, no store."""

    benchmarks: tuple = ()

    def setup(self) -> None:
        from repro.campaign import CampaignSpec
        from repro.sim.config import SimulationConfig
        from repro.sim.kernels import prewarm

        self.spec = CampaignSpec(
            name=f"perfbench-{self.name}",
            configurations=tuple(SimulationConfig.figure4_suite()),
            benchmarks=self.benchmarks,
            instructions=FIG4_INSTRUCTIONS[self.scale],
            warmup_fraction=WARMUP_FRACTION,
            seed=self.seed,
        )
        #: handed to the executor as its trace cache, so passes reuse them
        self.trace_cache: dict = {}
        for cell in self.spec.cells():
            key = cell_trace_key(cell)
            if key not in self.trace_cache:
                self.trace_cache[key] = generate_cell_trace(cell)
        self.traces = list(self.trace_cache.values())
        prewarm(self.spec.configurations)
        self._results: List[dict] = []

    def run_pass(self, index: int) -> PassResult:
        from repro.api import RunOptions
        from repro.campaign import ParallelExecutor

        executor = ParallelExecutor(
            options=RunOptions(jobs=1), trace_cache=self.trace_cache
        )
        start = time.perf_counter()
        results = executor.run(self.spec)
        wall = time.perf_counter() - start
        self._last = results
        return PassResult(
            wall_s=wall,
            kinstr=len(executor.completed_cells) * self.spec.instructions / 1000.0,
            compute_s=wall,
            cell_ms=[(end - begin) * 1000.0 for _c, _p, begin, end in executor.cell_timings],
        )

    def finish_pass(self, outcome: PassResult) -> None:
        from repro.campaign.store import result_to_dict

        self._results = []
        for run in self._last.runs:
            for config_name, result in run.results.items():
                payload = result_to_dict(result)
                self._results.append(payload)
                outcome.digests[f"{run.benchmark}/{config_name}"] = digest(payload)

    def results(self) -> List[dict]:
        return self._results


class Fig4Hits(Fig4Grid):
    name = "fig4_hits"
    min_passes = 7
    benchmarks = ("gzip", "djpeg", "swim")


class Fig4Misses(Fig4Grid):
    name = "fig4_misses"
    min_passes = 3
    benchmarks = ("mcf", "ptrchase", "tlbthrash")


# ----------------------------------------------------------------------
# dse_resume
# ----------------------------------------------------------------------
class DseResume(Workload):
    """``run_dse`` halving over malec-mini into a fresh SQLite store with the
    metrics registry on (so the telemetry journal is written), then the same
    call again against the warm store."""

    name = "dse_resume"

    def setup(self) -> None:
        from repro.campaign import CampaignCell
        from repro.campaign import executor as executor_module
        from repro.dse import SuccessiveHalving, space_preset
        from repro.obs import metrics
        from repro.sim.kernels import prewarm
        from repro.workloads.registry import workload_trace_hash

        self._metrics_were_on = metrics.enabled()
        metrics.enable()
        space = space_preset("malec-mini").with_overrides(
            instructions=DSE_INSTRUCTIONS[self.scale]
        )
        self.space = dataclasses.replace(space, seed=self.seed)
        self.budget = DSE_BUDGET[self.scale]
        # Every rung's traces go into the executor's process-wide cache, the
        # one run_dse's executors read; without it they are generated by the
        # first sweep instead.
        cache = getattr(executor_module, "_PROCESS_TRACES", {})
        ladder = SuccessiveHalving().rung_instructions(self.space.instructions, self.budget)
        for length in ladder:
            for benchmark in self.space.benchmarks:
                cell = CampaignCell(
                    benchmark=benchmark,
                    config=self.space.baseline,
                    instructions=length,
                    warmup_fraction=self.space.warmup_fraction,
                    seed=self.space.seed,
                    trace_hash=workload_trace_hash(benchmark),
                )
                trace = generate_cell_trace(cell)
                cache[cell_trace_key(cell)] = trace
                self.traces.append(trace)
        configs = [self.space.baseline]
        configs += [self.space.candidate(i).config for i in range(self.space.size)]
        prewarm(configs)
        self._open_store(0)
        self._records: List[dict] = []
        self._cell_bytes: List[int] = []

    def _open_store(self, index: int) -> None:
        from repro.campaign.store import open_store

        self.store_dir = self.tmp / f"dse-{index}"
        self.store = open_store(f"sqlite:{self.store_dir / 'store.db'}")

    def _search(self):
        from repro.dse import run_dse

        return run_dse(
            self.space,
            strategy="halving",
            budget=self.budget,
            jobs=1,
            store=self.store,
            seed=self.seed,
        )

    @staticmethod
    def _frontier(result) -> dict:
        described = result.describe()
        described.pop("cells_simulated")
        described.pop("cells_resumed")
        return described

    def run_pass(self, index: int) -> PassResult:
        from repro.obs import metrics

        # A fresh `repro --metrics dse` process starts from an empty registry.
        metrics.registry.clear()
        start = time.perf_counter()
        sweep = self._search()
        compute = time.perf_counter() - start
        resumes = []
        for _ in range(DSE_RESUMES[self.scale]):
            begin = time.perf_counter()
            resumed = self._search()
            resumes.append((time.perf_counter() - begin, resumed))
        wall = time.perf_counter() - start

        records, _ = _journal_records(self.store.telemetry_path)
        computed = _computed_cells(records)
        self._cell_bytes = [cell["_bytes"] for cell in computed]
        outcome = PassResult(
            wall_s=wall,
            kinstr=sum(cell["instructions"] for cell in computed) / 1000.0,
            compute_s=compute,
            cell_ms=[cell["wall_seconds"] * 1000.0 for cell in computed],
            resume_s=[seconds for seconds, _ in resumes],
        )
        outcome.check(
            sweep.cells_simulated == len(computed) > 0,
            f"sweep simulated {sweep.cells_simulated} cells, journal has {len(computed)}",
        )
        frontier = self._frontier(sweep)
        for _seconds, resumed in resumes:
            outcome.check(
                resumed.cells_simulated == 0
                and resumed.cells_resumed == sweep.cells_simulated + sweep.cells_resumed,
                f"resume simulated {resumed.cells_simulated} cells",
            )
            outcome.check(self._frontier(resumed) == frontier, "resume changed the frontier")
        self._records = list(self.store.records())
        outcome.digests = {record["key"]: digest(record) for record in self._records}
        outcome.digests["frontier"] = digest(frontier)
        # The next pass sweeps into a fresh store again (opened untimed).
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self._open_store(index + 1)
        return outcome

    def results(self) -> List[dict]:
        return [record["result"] for record in self._records]

    def records(self) -> List[dict]:
        return self._records

    def journal_cell_bytes(self) -> List[int]:
        return self._cell_bytes

    def teardown(self) -> None:
        from repro.obs import metrics

        store = getattr(self, "store", None)
        if store is not None:
            store.close()
        if not getattr(self, "_metrics_were_on", True):
            metrics.registry.clear()
            metrics.disable()


# ----------------------------------------------------------------------
# serve_pool
# ----------------------------------------------------------------------
class ServePool(Workload):
    """One HTTP client against an in-process ``ReproServer`` (SQLite store,
    ``jobs=2``): submit fig4-mini at a fresh seed, poll, GET every cell and
    the frontier, resubmit (nothing recomputed), GET again."""

    name = "serve_pool"
    # Five, not seven: how many passes hit CPU contention (two workers and
    # the server share two CPUs) varies from run to run, and the p90 tail
    # that seven passes allow spread by 0.23 over ten seeds.  Five passes
    # make the tail p75.
    min_passes = 5
    #: every pass submits at a fresh seed, so records differ between passes
    same_records_every_pass = False

    def setup(self) -> None:
        from repro.serve import ReproServer
        from repro.sim.config import SimulationConfig
        from repro.sim.kernels import prewarm

        prewarm(SimulationConfig.figure4_suite())
        self.store_url = f"sqlite:{self.tmp / 'serve' / 'store.db'}"
        self.server = ReproServer(store=self.store_url, jobs=SERVE_JOBS)
        self.server.start()
        self.conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=120)
        self.journal_offset = 0
        self.submissions: List[dict] = []
        self._records: List[dict] = []
        self._cell_bytes: List[int] = []

    def pass_seed(self, index: int) -> int:
        """The campaign seed of pass ``index``: fresh per pass and per run."""
        return self.seed * 1000 + index

    def _request(self, outcome: PassResult, method: str, path: str, body=None):
        """One request on the client's connection; non-2xx counts as failed."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        outcome.check(200 <= response.status < 300, f"{method} {path} -> {response.status}")
        return json.loads(data), elapsed

    def _submit_and_wait(self, outcome: PassResult, body: dict) -> dict:
        job, _ = self._request(outcome, "POST", "/api/v1/campaigns", body)
        while job.get("state") not in ("done", "failed"):
            time.sleep(SERVE_POLL_S)
            job, _ = self._request(outcome, "GET", f"/api/v1/campaigns/{job['id']}")
        outcome.check(job["state"] == "done", f"campaign {job['id']} {job['state']}")
        return job

    def _fetch(self, outcome: PassResult, job: dict) -> Dict[str, dict]:
        fetched = {}
        for key in job.get("keys", []):
            fetched[key], elapsed = self._request(outcome, "GET", f"/api/v1/cells/{key}")
            outcome.request_ms.append(elapsed * 1000.0)
        frontier, elapsed = self._request(
            outcome, "GET", f"/api/v1/campaigns/{job['id']}/frontier"
        )
        outcome.request_ms.append(elapsed * 1000.0)
        fetched["frontier"] = {key: frontier.get(key) for key in ("points", "frontier")}
        return fetched

    def run_pass(self, index: int) -> PassResult:
        body = {
            "preset": "fig4-mini",
            "seed": self.pass_seed(index),
            "instructions": SERVE_INSTRUCTIONS[self.scale],
        }
        if SERVE_BENCHMARKS[self.scale] is not None:
            body["benchmarks"] = SERVE_BENCHMARKS[self.scale]
        outcome = PassResult(wall_s=0.0, kinstr=0.0, compute_s=0.0)
        start = time.perf_counter()
        job = self._submit_and_wait(outcome, body)
        first = self._fetch(outcome, job)
        begin = time.perf_counter()
        again = self._submit_and_wait(outcome, body)
        outcome.resume_s.append(time.perf_counter() - begin)
        second = self._fetch(outcome, again)
        outcome.wall_s = time.perf_counter() - start

        total = job.get("total", 0)
        outcome.kinstr = job.get("cells_computed", 0) * body["instructions"] / 1000.0
        records, self.journal_offset = _journal_records(
            self.server.store.telemetry_path, self.journal_offset
        )
        computed = _computed_cells(records, job.get("run_id"))
        self._cell_bytes = [cell["_bytes"] for cell in computed]
        outcome.cell_ms = [cell["wall_seconds"] * 1000.0 for cell in computed]
        # Simulation throughput counts the server's executor run, not the
        # client's polling granularity around it.
        ends = [
            record for record in records
            if record.get("record") == "run_end" and record.get("run_id") == job.get("run_id")
        ]
        outcome.compute_s = ends[0]["elapsed_seconds"] if ends else 0.0
        outcome.check(len(ends) == 1, "journal lacks the run_end of the submission")
        outcome.check(
            job.get("cells_computed") == total > 0,
            f"first submission computed {job.get('cells_computed')} of {total} cells",
        )
        outcome.check(
            again.get("cells_computed") == 0,
            f"resubmission computed {again.get('cells_computed')} cells",
        )
        outcome.check(first == second, "resubmission served different records")
        outcome.check(len(outcome.cell_ms) == total, "journal lacks the computed cells")
        self._records = [record for key, record in first.items() if key != "frontier"]
        if not self.submissions:
            self._first_records = {record["key"]: record for record in self._records}
        self.submissions.append(body)
        return outcome

    @staticmethod
    def _spec(body: dict):
        """The campaign a submission body describes (as the server builds it)."""
        from repro.campaign import campaign_preset

        return campaign_preset(body["preset"]).with_overrides(
            benchmarks=body.get("benchmarks"),
            instructions=body["instructions"],
            seed=body["seed"],
        )

    def verify(self) -> Optional[PassResult]:
        """Recompute the first submission serially in-process and require
        the served records to equal it (pool vs serial, HTTP vs store)."""
        from repro.api import RunOptions
        from repro.campaign import ParallelExecutor
        from repro.campaign.store import open_store

        if not self.submissions:
            return None
        outcome = PassResult(wall_s=0.0, kinstr=0.0, compute_s=0.0)
        spec = self._spec(self.submissions[0])
        reference = open_store(f"sqlite:{self.tmp / 'serial' / 'store.db'}")
        try:
            ParallelExecutor(options=RunOptions(jobs=1, store=reference)).run(spec)
            for cell in spec.cells():
                served = self._first_records.get(cell.key())
                outcome.check(
                    served is not None and served == reference.record(cell.key()),
                    f"served record {cell.key()} differs from the serial run",
                )
        finally:
            reference.close()
        return outcome

    def results(self) -> List[dict]:
        return [record["result"] for record in self._records]

    def records(self) -> List[dict]:
        return self._records

    def journal_cell_bytes(self) -> List[int]:
        return self._cell_bytes

    def trace_sizes(self) -> List[int]:
        spec = self._spec(self.submissions[-1])
        cells = {cell_trace_key(cell): cell for cell in spec.cells()}
        return [len(generate_cell_trace(cell).to_bytes()) for cell in cells.values()]

    def teardown(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.shutdown()
            server.store.close()


WORKLOADS = {cls.name: cls for cls in (Fig4Hits, Fig4Misses, DseResume, ServePool)}


def make_workload(name: str, seed: int, scale: str, tmp: Path) -> Workload:
    """Instantiate the named workload (``KeyError`` for unknown names)."""
    return WORKLOADS[name](seed, scale, tmp)
