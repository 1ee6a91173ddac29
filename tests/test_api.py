"""Tests for :mod:`repro.api`: RunOptions fields and resolution, and
``options=`` as the only way to configure runs and the executor."""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.store import ResultStore
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


class TestRunOptions:
    def test_fields(self):
        names = [field.name for field in dataclasses.fields(RunOptions)]
        assert names == ["kernel", "collector", "jobs", "store"]

    @pytest.mark.parametrize("field", ["scheduler", "frontend"])
    def test_retired_fields_rejected(self, field):
        with pytest.raises(TypeError):
            RunOptions(**{field: "object"})

    def test_defaults_resolve(self):
        assert RunOptions().resolved_kernel() == "specialized"
        assert RunOptions(kernel="generic").resolved_kernel() == "generic"

    def test_bad_kernel_is_loud(self):
        with pytest.raises(ValueError, match="kernel"):
            RunOptions(kernel="quantum").resolved_kernel()

    def test_open_store_from_url(self, tmp_path):
        options = RunOptions(store=f"sqlite:{tmp_path / 's.db'}")
        store = options.open_store()
        assert isinstance(store, ResultStore)
        store.close()
        assert RunOptions().open_store() is None


class TestSimulatorOptions:
    def test_generic_kernel_via_options_matches_default(self):
        config = SimulationConfig.base_1ldst()
        trace = generate_trace(benchmark_profile("gzip"), 1500)
        default = run_configuration(config, trace, options=RunOptions())
        generic = run_configuration(
            config, trace, options=RunOptions(kernel="generic")
        )
        assert default.cycles == generic.cycles
        assert default.stats == generic.stats


    @pytest.mark.parametrize("kwarg", ["collector", "frontend", "kernel"])
    def test_loose_run_kwargs_rejected(self, kwarg):
        # Everything that configures a run travels in ``options=``.
        config = SimulationConfig.base_1ldst()
        trace = generate_trace(benchmark_profile("gzip"), 200)
        with pytest.raises(TypeError):
            Simulator(config).run(trace, **{kwarg: None})
        with pytest.raises(TypeError):
            run_configuration(config, trace, **{kwarg: None})


class TestExecutorOptions:
    @pytest.mark.parametrize("kwarg", ["jobs", "store"])
    def test_loose_executor_kwargs_rejected(self, kwarg):
        # Worker count and store travel in ``options=`` like every run knob.
        with pytest.raises(TypeError):
            ParallelExecutor(**{kwarg: None})

    def test_executor_options_store_url(self, tmp_path):
        executor = ParallelExecutor(
            options=RunOptions(jobs=1, store=f"json:{tmp_path / 'store'}")
        )
        assert executor.jobs == 1
        assert executor.store is not None
        assert executor.store.url.startswith("json:")

    def test_default_jobs_is_one_worker_per_cpu(self):
        """``jobs=None`` means a worker per CPU, not serial execution."""
        assert ParallelExecutor(options=RunOptions()).jobs == (os.cpu_count() or 1)
