"""Tests for the campaign subsystem: spec hashing, store, executor, aggregate."""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.api import RunOptions
from repro.campaign import executor as executor_module
from repro.campaign.aggregate import results_from_store, summarize_store
from repro.campaign.executor import CellExecutionError, ParallelExecutor
from repro.obs import metrics as obs_metrics
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    campaign_preset,
    cell_key,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import ResultStore, result_from_dict, result_to_dict
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 600
WARMUP = 0.25
BENCHMARKS = ("gzip", "swim", "djpeg")
CONFIGS = (SimulationConfig.base_1ldst(), SimulationConfig.malec())


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        configurations=CONFIGS,
        benchmarks=BENCHMARKS,
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def a_cell(**overrides) -> CampaignCell:
    defaults = dict(
        benchmark="gzip",
        config=CONFIGS[0],
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignCell(**defaults)


def assert_results_equal(left, right) -> None:
    assert left.config_name == right.config_name
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.loads == right.loads
    assert left.stores == right.stores
    assert left.stats == right.stats
    assert left.energy.cycles == right.energy.cycles
    assert set(left.energy.structures) == set(right.energy.structures)
    for name, item in left.energy.structures.items():
        other = right.energy.structures[name]
        assert item.dynamic_pj == pytest.approx(other.dynamic_pj)
        assert item.leakage_pj == pytest.approx(other.leakage_pj)


class TestSpec:
    def test_cells_cover_the_full_grid(self):
        cells = small_spec().cells()
        assert len(cells) == len(BENCHMARKS) * len(CONFIGS)
        assert len({cell.key() for cell in cells}) == len(cells)

    def test_config_dict_round_trip(self):
        config = SimulationConfig.malec(
            l1_hit_latency=3,
            malec_options=MalecParameters(result_buses=2, way_determination="wdu"),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_cell_key_is_stable_across_instances(self):
        assert cell_key(a_cell()) == cell_key(a_cell())

    def test_cell_key_tracks_every_identity_field(self):
        base = a_cell()
        assert cell_key(a_cell(benchmark="swim")) != cell_key(base)
        assert cell_key(a_cell(instructions=INSTRUCTIONS + 1)) != cell_key(base)
        assert cell_key(a_cell(warmup_fraction=0.3)) != cell_key(base)
        assert cell_key(a_cell(seed=1)) != cell_key(base)
        renamed = replace(CONFIGS[0], name="other")
        assert cell_key(a_cell(config=renamed)) != cell_key(base)
        retuned = replace(CONFIGS[1], malec_options=MalecParameters(result_buses=1))
        assert cell_key(a_cell(config=retuned)) != cell_key(a_cell(config=CONFIGS[1]))

    def test_duplicate_configuration_names_rejected(self):
        with pytest.raises(ValueError):
            small_spec(configurations=(CONFIGS[0], CONFIGS[0]))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            small_spec(benchmarks=("gzip", "not-a-benchmark"))

    def test_presets_build(self):
        for name in ("fig4", "fig4-mini", "sec6d"):
            spec = campaign_preset(name)
            assert spec.cells()
        assert len(campaign_preset("fig4").benchmarks) == 38
        with pytest.raises(KeyError):
            campaign_preset("nope")


class TestStore:
    def test_round_trip_preserves_the_result(self, tmp_path):
        cell = a_cell()
        trace = generate_trace(
            benchmark_profile(cell.benchmark), INSTRUCTIONS, seed=cell.trace_seed()
        )
        result = run_configuration(cell.config, trace, warmup_fraction=WARMUP)
        restored = result_from_dict(result_to_dict(result))
        assert_results_equal(result, restored)

        store = ResultStore(tmp_path / "camp")
        assert not store.contains(cell)
        store.put(cell, result)
        assert store.contains(cell)
        assert_results_equal(store.get(cell), result)
        assert len(store) == 1

    def test_get_missing_cell_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(a_cell()) is None

    def test_records_carry_full_provenance(self, tmp_path):
        cell = a_cell(benchmark="djpeg", config=CONFIGS[1])
        trace = generate_trace(
            benchmark_profile("djpeg"), INSTRUCTIONS, seed=cell.trace_seed()
        )
        store = ResultStore(tmp_path)
        store.put(cell, run_configuration(cell.config, trace, warmup_fraction=WARMUP))
        (record,) = list(store.records())
        assert record["benchmark"] == "djpeg"
        assert record["suite"] == "MB2"
        assert record["config_name"] == "MALEC"
        assert config_from_dict(record["config"]) == CONFIGS[1]
        assert record["key"] == cell.key()


class TestExecutor:
    def test_serial_sweep_writes_one_record_per_cell(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        executor = ParallelExecutor(options=RunOptions(jobs=1, store=store))
        results = executor.run(small_spec())
        assert len(executor.completed_cells) == len(BENCHMARKS) * len(CONFIGS)
        assert not executor.skipped_cells
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        assert store.manifest()["name"] == "test"
        assert results.configurations == [config.name for config in CONFIGS]

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        first = ParallelExecutor(options=RunOptions(jobs=1, store=store))
        baseline = first.run(spec)

        events = []
        second = ParallelExecutor(
            options=RunOptions(jobs=1, store=store),
            progress=lambda e, c, d, t: events.append(e),
        )
        resumed = second.run(spec)
        assert not second.completed_cells
        assert len(second.skipped_cells) == len(spec.cells())
        assert events == ["skipped"] * len(spec.cells())
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    resumed.run_for(benchmark).results[config.name],
                    baseline.run_for(benchmark).results[config.name],
                )

    def test_partial_store_runs_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        cells = spec.cells()
        seeded = ParallelExecutor(options=RunOptions(jobs=1, store=store))
        # Pre-compute only the first benchmark's cells.
        mini = small_spec(benchmarks=BENCHMARKS[:1])
        seeded.run(mini)

        executor = ParallelExecutor(options=RunOptions(jobs=1, store=store))
        executor.run(spec)
        assert len(executor.skipped_cells) == len(CONFIGS)
        assert len(executor.completed_cells) == len(cells) - len(CONFIGS)

    def test_parallel_results_equal_serial(self, tmp_path):
        spec = small_spec()
        serial = ParallelExecutor(options=RunOptions(jobs=1)).run(spec)
        executor = ParallelExecutor(
            options=RunOptions(jobs=2, store=ResultStore(tmp_path / "par"))
        )
        parallel = executor.run(spec)
        if not executor.used_pool:
            pytest.skip("process pool unavailable on this platform")
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    parallel.run_for(benchmark).results[config.name],
                    serial.run_for(benchmark).results[config.name],
                )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(options=RunOptions(jobs=0))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the patched cell runner only when forked",
    )
    def test_failing_pool_cell_is_not_a_pool_failure(self, tmp_path, monkeypatch):
        """A cell that raises in a worker surfaces as that cell's error: no
        pool-fallback warning or counter, and no cell runs a second time."""
        spec = small_spec()
        bad = spec.cells()[3]
        calls = tmp_path / "calls"
        real_execute = executor_module._execute_cell

        def execute(cell, cache, kernel=None):
            with open(calls, "a") as log:
                log.write(f"{os.getpid()} {cell.key()}\n")
            if cell.key() == bad.key():
                raise RuntimeError("pipeline exceeded 10 cycles; likely deadlock")
            return real_execute(cell, cache, kernel)

        warnings = []
        monkeypatch.setattr(executor_module, "_execute_cell", execute)
        monkeypatch.setattr(
            executor_module.logger, "warning", lambda *args: warnings.append(args)
        )
        obs_metrics.registry.clear()
        obs_metrics.enable()
        try:
            executor = ParallelExecutor(options=RunOptions(jobs=2))
            with pytest.raises(CellExecutionError) as failure:
                executor.run(spec)
            fallbacks = obs_metrics.registry.dump().get("campaign.pool_fallbacks")
        finally:
            obs_metrics.disable()
            obs_metrics.registry.clear()
        assert executor.used_pool
        error = failure.value
        assert error.key == bad.key()
        assert error.error_type == "RuntimeError"
        assert "likely deadlock" in error.message
        assert bad.key() in str(error)
        assert "likely deadlock" in error.traceback_text
        assert warnings == []
        assert fallbacks is None
        executed = [line.split() for line in calls.read_text().splitlines()]
        keys = [key for _pid, key in executed]
        assert len(keys) == len(set(keys))
        assert str(os.getpid()) not in {pid for pid, _key in executed}


class TestAggregate:
    def test_results_rebuilt_from_store_match_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        live = ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(spec)
        rebuilt = results_from_store(store)
        assert rebuilt.configurations == live.configurations
        assert [run.benchmark for run in rebuilt.runs] == [
            run.benchmark for run in live.runs
        ]
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            live.geomean_normalized_cycles(base)
        )
        assert rebuilt.geomean_normalized_energy(base) == pytest.approx(
            live.geomean_normalized_energy(base)
        )

    def test_summarize_store_reports_geomeans(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(small_spec())
        text = summarize_store(store)
        assert "geo. mean all (time)" in text
        assert "Base1ldst" in text and "MALEC" in text

    def test_ambiguous_store_raises(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(small_spec(benchmarks=("gzip",)))
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(
            small_spec(benchmarks=("gzip",), instructions=INSTRUCTIONS + 100)
        )
        with pytest.raises(ValueError):
            results_from_store(store)
        # Filtering by trace length disambiguates.
        assert results_from_store(store, instructions=INSTRUCTIONS).runs


class TestRunnerIntegration:
    def test_experiment_runner_delegates_to_the_executor(self, tmp_path):
        from repro.analysis.experiments import ExperimentRunner

        store = ResultStore(tmp_path / "camp")
        runner = ExperimentRunner(
            instructions=INSTRUCTIONS, benchmarks=list(BENCHMARKS), warmup_fraction=WARMUP
        )
        results = runner.run(list(CONFIGS), store=store)
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        rebuilt = results_from_store(store)
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            results.geomean_normalized_cycles(base)
        )

    def test_run_for_uses_index_and_raises_for_unknown(self):
        from repro.analysis.experiments import ExperimentRunner

        runner = ExperimentRunner(
            instructions=INSTRUCTIONS, benchmarks=list(BENCHMARKS), warmup_fraction=WARMUP
        )
        results = runner.run([CONFIGS[0]])
        assert results.run_for("swim").benchmark == "swim"
        # Repeated lookups hit the cached index.
        assert results.run_for("swim") is results.run_for("swim")
        with pytest.raises(KeyError):
            results.run_for("not-a-benchmark")
