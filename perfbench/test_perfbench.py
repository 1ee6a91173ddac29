"""Self-tests of the benchmark: every workload at toy size, the metric
contract of ``BENCHMARK.json``, span nesting of the traced run, and the
output checks failing loudly on altered records.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracing import nesting_errors, self_times
from perfbench.workloads import WORKLOADS, Fig4Grid

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy_run(workload: str, trace: bool) -> harness.Run:
    return harness.run_benchmark(
        workload, seed=3, seconds=0.1, trace=trace, scale="toy", golden=False, samples=1
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request) -> harness.Run:
    return toy_run(request.param, trace=False)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request) -> harness.Run:
    return toy_run(request.param, trace=True)


# ----------------------------------------------------------------------
# BENCHMARK.json matches the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _higher) in harness.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    for metric in SPEC["end_to_end"]:
        higher = harness.END_TO_END[metric["name"]][1]
        assert metric["better"] == ("higher" if higher else "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# Every workload at toy size
# ----------------------------------------------------------------------
def test_untraced_run_emits_every_end_to_end_metric(untraced):
    line = untraced.final_line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name
    detail = untraced.detail()
    assert detail["seed"] == 3 and detail["host"]["cpu_count"] >= 1
    assert len(detail["source_sha256"]) == 64


def test_traced_run_emits_every_per_layer_metric(traced):
    line = traced.final_line()
    assert line["correct"], traced.errors
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert traced.traced and traced.untraced
    assert not traced.missing_wraps
    # the layers every workload crosses were actually measured (kernels may
    # already sit in this test process's cache, so compiles can read 0)
    for name in ("sim.run_ms", "sim.build_ms", "energy.report_ms", "sim.us_per_instr"):
        assert line["metrics"][name]["value"] > 0, name


def test_traced_spans_nest(traced):
    spans = traced.spans
    assert spans
    assert nesting_errors(spans) == []
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    assert all(seconds >= -1e-9 for seconds in self_times(spans).values())


def test_layer_spans_cover_the_workloads_path(traced):
    names = {span["name"] for span in traced.spans}
    assert {"setup", "pass", "sim.run", "executor.run", "kernels.compile"} <= names
    if traced.workload == "dse_resume":
        assert {"dse.run", "dse.evaluate", "store.sqlite.put", "telemetry.append",
                "store.json.put"} <= names
    if traced.workload == "serve_pool":
        # worker-side spans come back through the spool
        assert {"serve.submit", "serve.cell", "workloads.decode"} <= names
        assert len({span["pid"] for span in traced.spans}) > 1


def test_nesting_errors_flags_a_child_outside_its_parent():
    parent = {"id": "1:1", "parent": None, "name": "a", "pid": 1, "tid": 1,
              "start": 0.0, "end": 1.0}
    child = {"id": "1:2", "parent": "1:1", "name": "b", "pid": 1, "tid": 1,
             "start": 0.5, "end": 1.5}
    assert nesting_errors([parent, child])


# ----------------------------------------------------------------------
# Output checks fail loudly
# ----------------------------------------------------------------------
def test_golden_check_passes_then_catches_an_altered_record(tmp_path):
    ok, message = harness.check_golden(tmp_path / "clean")
    assert ok, message

    def alter(records):
        records[0]["result"]["cycles"] += 1

    ok, message = harness.check_golden(tmp_path / "altered", tamper=alter)
    assert not ok and "differs" in message


def test_a_pass_with_an_altered_record_is_a_failed_operation(monkeypatch):
    original = Fig4Grid.finish_pass
    calls = []

    def altering(self, outcome):
        original(self, outcome)
        calls.append(outcome)
        if len(calls) == 2:
            key = sorted(outcome.digests)[0]
            outcome.digests[key] = "0" * 64

    monkeypatch.setattr(Fig4Grid, "finish_pass", altering)
    run = toy_run("fig4_hits", trace=False)
    line = run.final_line()
    assert not line["correct"] and line["failed"] == 1
    assert "differs from pass 0" in run.errors[0]


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fig4_hits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
