"""Integration tests: configuration, simulator, experiment runner, reporting,
and coarse checks of the paper's headline claims on small traces."""

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.analysis.reporting import format_table, geometric_mean, normalize
from repro.energy.energy_model import EnergyModelConfig
from repro.sim.config import InterfaceKind, MalecParameters, SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


class TestReportingHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize(self):
        values = {"a": 2.0, "b": 4.0}
        assert normalize(values, "a") == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            normalize({"a": 0.0}, "a")

    def test_format_table(self):
        text = format_table(["name", "value"], [["x", 1.23456], ["y", 2]])
        assert "name" in text and "x" in text and "1.235" in text
        assert len(text.splitlines()) == 4


class TestSimulationConfig:
    def test_factories_and_names(self):
        assert SimulationConfig.base_1ldst().name == "Base1ldst"
        assert SimulationConfig.base_2ld1st().name == "Base2ld1st"
        assert SimulationConfig.malec().name == "MALEC"
        assert SimulationConfig.malec(l1_hit_latency=3).name == "MALEC_3cycleL1"
        assert SimulationConfig.base_2ld1st(l1_hit_latency=1).name == "Base2ld1st_1cycleL1"

    def test_figure4_suite_has_five_configurations(self):
        names = [config.name for config in SimulationConfig.figure4_suite()]
        assert len(names) == 5 and len(set(names)) == 5
        assert "Base1ldst" in names and "MALEC" in names

    def test_table1_ports(self):
        """Table I: port counts of the three interfaces."""
        base1 = SimulationConfig.base_1ldst()
        base2 = SimulationConfig.base_2ld1st()
        malec = SimulationConfig.malec()
        assert base1.l1_read_ports == 1 and base1.tlb_ports == 1
        assert base2.l1_read_ports == 2 and base2.tlb_ports == 3
        assert malec.l1_read_ports == 1 and malec.tlb_ports == 1
        assert base2.table1_row()["addr_comp_per_cycle"] == "2 ld + 1 st"
        assert malec.table1_row()["addr_comp_per_cycle"] == "1 ld + 2 ld/st"

    def test_energy_model_config_derivation(self):
        malec = SimulationConfig.malec()
        config = malec.energy_model_config()
        assert isinstance(config, EnergyModelConfig)
        assert config.has_way_tables and config.wdu_entries == 0
        wdu = SimulationConfig.malec(
            malec_options=MalecParameters(way_determination="wdu", wdu_entries=32)
        )
        assert wdu.energy_model_config().wdu_entries == 32
        base = SimulationConfig.base_2ld1st().energy_model_config()
        assert base.l1_ports == 2 and not base.has_way_tables

    def test_with_name(self):
        config = SimulationConfig.malec().with_name("MALEC-ablation")
        assert config.name == "MALEC-ablation"
        assert config.interface is InterfaceKind.MALEC


class TestSimulator:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(benchmark_profile("gzip"), instructions=1500)

    def test_result_fields(self, trace):
        result = run_configuration(SimulationConfig.base_1ldst(), trace)
        assert result.cycles > 0
        assert result.instructions == len(trace)
        assert result.loads > 0 and result.stores > 0
        assert 0 < result.ipc <= 6
        assert result.energy.total_pj > 0
        assert 0 <= result.l1_load_miss_rate <= 1

    def test_all_interfaces_run_the_same_trace(self, trace):
        for config in SimulationConfig.figure4_suite():
            result = run_configuration(config, trace)
            assert result.instructions == len(trace)

    def test_determinism(self, trace):
        a = run_configuration(SimulationConfig.malec(), trace)
        b = run_configuration(SimulationConfig.malec(), trace)
        assert a.cycles == b.cycles
        assert a.energy.total_pj == pytest.approx(b.energy.total_pj)

    def test_warmup_reduces_measured_instructions(self, trace):
        full = run_configuration(SimulationConfig.base_1ldst(), trace)
        warmed = run_configuration(SimulationConfig.base_1ldst(), trace, warmup_fraction=0.5)
        assert warmed.instructions < full.instructions
        assert warmed.cycles < full.cycles

    def test_invalid_warmup_rejected(self, trace):
        with pytest.raises(ValueError):
            run_configuration(SimulationConfig.base_1ldst(), trace, warmup_fraction=1.0)

    def test_malec_counts_way_lookups_and_merges(self, trace):
        result = run_configuration(SimulationConfig.malec(), trace)
        assert result.stats["malec.way_lookup"] > 0
        assert 0 <= result.way_coverage <= 1
        assert 0 <= result.merged_load_fraction < 1

    def test_baselines_never_use_way_determination(self, trace):
        result = run_configuration(SimulationConfig.base_2ld1st(), trace)
        assert result.way_coverage == 0.0
        assert result.stats.get("l1.reduced_access", 0) == 0


class TestPaperClaims:
    """Coarse trend checks of the headline results on a small, fast workload."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = generate_trace(benchmark_profile("djpeg"), instructions=3000)
        out = {}
        for config in SimulationConfig.figure4_suite():
            out[config.name] = run_configuration(config, trace, warmup_fraction=0.3)
        return out

    def test_multi_access_interfaces_are_faster(self, results):
        base = results["Base1ldst"].cycles
        assert results["Base2ld1st"].cycles < base
        assert results["MALEC"].cycles < base

    def test_malec_close_to_base2ld1st_performance(self, results):
        """Sec. VI-B: MALEC performs within a few percent of Base2ld1st."""
        ratio = results["MALEC"].cycles / results["Base2ld1st"].cycles
        assert ratio < 1.08

    def test_shorter_l1_latency_helps_and_longer_hurts(self, results):
        assert results["Base2ld1st_1cycleL1"].cycles <= results["Base2ld1st"].cycles
        assert results["MALEC_3cycleL1"].cycles >= results["MALEC"].cycles

    def test_base2ld1st_costs_more_energy_than_base1ldst(self, results):
        """Fig. 4b: the multi-ported interface pays in dynamic and leakage energy."""
        base = results["Base1ldst"].energy
        multi = results["Base2ld1st"].energy
        assert multi.dynamic_pj > 1.2 * base.dynamic_pj
        assert multi.total_pj > 1.2 * base.total_pj

    def test_malec_saves_energy_relative_to_both_baselines(self, results):
        base = results["Base1ldst"].energy.total_pj
        multi = results["Base2ld1st"].energy.total_pj
        malec = results["MALEC"].energy.total_pj
        assert malec < base < multi

    def test_malec_dynamic_energy_reduction(self, results):
        """Sec. VI-C: MALEC saves a large share of dynamic energy."""
        base = results["Base1ldst"].energy.dynamic_pj
        malec = results["MALEC"].energy.dynamic_pj
        assert malec < 0.85 * base

    def test_way_coverage_majority_of_accesses(self, results):
        assert results["MALEC"].way_coverage > 0.5

    def test_l2_traffic_roughly_unchanged(self, results):
        """Sec. VI-A: MALEC does not significantly change L2 access counts."""
        base = results["Base1ldst"].stats.get("l2.access", 0)
        malec = results["MALEC"].stats.get("l2.access", 0)
        assert base > 0
        assert abs(malec - base) / base < 0.35


class TestExperimentRunner:
    def test_runner_over_two_benchmarks(self):
        runner = ExperimentRunner(instructions=1200, benchmarks=["gzip", "djpeg"], warmup_fraction=0.2)
        configs = [SimulationConfig.base_1ldst(), SimulationConfig.malec()]
        results = runner.run(configs)
        assert results.configurations == ["Base1ldst", "MALEC"]
        assert len(results.runs) == 2
        run = results.run_for("gzip")
        assert set(run.results) == {"Base1ldst", "MALEC"}
        normalized = run.normalized_cycles("Base1ldst")
        assert normalized["Base1ldst"] == pytest.approx(1.0)
        geomeans = results.geomean_normalized_cycles("Base1ldst")
        assert geomeans["Base1ldst"] == pytest.approx(1.0)
        energy = results.geomean_normalized_energy("Base1ldst")
        assert energy["MALEC"] > 0
        assert results.suites() == ["SPEC-INT", "MB2"]
        with pytest.raises(KeyError):
            results.run_for("missing")

    def test_trace_cache_reused(self):
        runner = ExperimentRunner(instructions=500, benchmarks=["gzip"])
        config = SimulationConfig.base_1ldst()
        runner.run([config], jobs=1)
        cached = dict(runner._trace_cache)
        assert len(cached) == 1
        runner.run([config], jobs=1)
        assert runner._trace_cache.keys() == cached.keys()
        for key, trace in cached.items():
            assert runner._trace_cache[key] is trace

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExperimentRunner(instructions=0)
