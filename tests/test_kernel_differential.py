"""Differential net: the specialized kernels against the reference loop.

The simulator has exactly two execution paths: the per-configuration
generated kernel (the default, fed the trace's columnar view) and the
cycle-driven reference loop over Instruction objects (``kernel="generic"``,
also what runs whenever a kernel's runtime guards decline).  These tests hold
the fast path to *bit-identical* results against the reference — every
``StatCounters`` counter and every per-structure energy value, not just
cycles — and hold the kernels' observe variant to the exact cycle
attribution the reference loop reports.

The reference runs are fed the trace's own Instruction objects
(``list(trace)``), so they share no code with the columnar decode the fast
path consumes.  Coverage spans the fig4-mini grid (all five Fig. 4
configurations), randomized configurations, traces and profiles, tiny
pipelines, the adversarial ``STRESS`` profiles (whose absolute results are
pinned to ``tests/golden/stress_profiles.json``) and the observed-run facts
pinned to ``tests/golden/attribution.json``.

Regenerating the golden files is a deliberate act::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.api import RunOptions
from repro.cpu.instruction import compute, load, store
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.obs import RunCollector
from repro.sim.config import MalecParameters, PipelineParameters, SimulationConfig
from repro.sim.kernels import compile_kernel, content_hash, kernel_source, prewarm
from repro.sim.kernels.generator import build_spec
from repro.sim.simulator import Simulator
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import (
    STRESS_BENCHMARKS,
    SYNTHETIC_BENCHMARKS,
    benchmark_profile,
)
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace

GOLDEN_DIR = Path(__file__).parent / "golden"
STRESS_GOLDEN_PATH = GOLDEN_DIR / "stress_profiles.json"
ATTRIBUTION_GOLDEN_PATH = GOLDEN_DIR / "attribution.json"

#: the fig4-mini benchmark picks (one per suite; mirrors the campaign preset)
FIG4_MINI_BENCHMARKS = ("gzip", "swim", "djpeg")

#: the attribution golden's benchmarks (mirrors tests/golden/regenerate.py)
ATTRIBUTION_BENCHMARKS = FIG4_MINI_BENCHMARKS + STRESS_BENCHMARKS

FIG4_CONFIGS = SimulationConfig.figure4_suite()


def trace_for(name: str, instructions: int = 1200):
    return generate_trace(benchmark_profile(name), instructions=instructions)


def assert_results_identical(fast, reference, label: str) -> None:
    """Full-payload equality with a field-first report of what drifted."""
    for field in ("cycles", "instructions", "loads", "stores"):
        assert getattr(fast, field) == getattr(reference, field), (label, field)
    assert fast.stats == reference.stats, label
    assert fast.energy == reference.energy, label


def run_fast(config, trace, warmup=0.0, collector=None):
    """The default path; fails if the kernel silently fell back, which would
    make the differential vacuous."""
    simulator = Simulator(config)
    result = simulator.run(
        trace, warmup_fraction=warmup, options=RunOptions(collector=collector)
    )
    assert simulator.kernel_used, f"{config.name} fell back: " + str(
        simulator.kernel_fallback_reason
    )
    return result


def run_reference(config, trace, warmup=0.0, collector=None):
    """The reference loop, fed the trace's own Instruction objects."""
    simulator = Simulator(config)
    result = simulator.run(
        list(trace),
        warmup_fraction=warmup,
        options=RunOptions(kernel="generic", collector=collector),
    )
    assert not simulator.kernel_used
    return result


class TestFig4GridIdentity:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS)
    def test_fig4_mini_grid_bit_identical(self, config, bench):
        trace = trace_for(bench)
        assert_results_identical(
            run_fast(config, trace, warmup=0.3),
            run_reference(config, trace, warmup=0.3),
            f"{bench}/{config.name}",
        )

    @pytest.mark.parametrize("bench", SYNTHETIC_BENCHMARKS)
    def test_synthetic_extremes_bit_identical(self, bench):
        trace = trace_for(bench)
        config = SimulationConfig.malec()
        assert_results_identical(
            run_fast(config, trace), run_reference(config, trace), bench
        )

    @pytest.mark.parametrize("bench", STRESS_BENCHMARKS)
    def test_stress_profiles_bit_identical(self, bench):
        trace = trace_for(bench)
        config = SimulationConfig.malec()
        assert_results_identical(
            run_fast(config, trace, warmup=0.3),
            run_reference(config, trace, warmup=0.3),
            bench,
        )

    def test_fig4_pick_bit_identical(self):
        trace = trace_for("gzip")
        config = SimulationConfig.base_2ld1st()
        assert_results_identical(
            run_fast(config, trace), run_reference(config, trace), "gzip"
        )


def random_trace(seed: int, length: int = 350) -> MemoryTrace:
    """Mixed loads/stores/computes with random deps, bursts and far pages."""
    rng = random.Random(seed)
    pages = [0x4000 * (1 + p) for p in range(4)] + [
        (1 << 21) * (3 + p) for p in range(5)
    ]
    instructions = []
    for index in range(length):
        roll = rng.random()
        address = rng.choice(pages) + rng.randrange(0, 4096, 4)
        deps = ()
        if index and rng.random() < 0.45:
            deps = (rng.randrange(1, min(index, 10) + 1),)
        if roll < 0.4:
            instructions.append(load(address, deps=deps))
        elif roll < 0.6:
            instructions.append(store(address, deps=deps))
        else:
            instructions.append(compute(deps=deps))
    return MemoryTrace(name=f"rand-{seed}", instructions=instructions)


def random_config(seed: int) -> SimulationConfig:
    """A randomized configuration drawn from all three interface families."""
    rng = random.Random(1000 + seed)
    family = rng.choice(["base1", "base2", "malec"])
    latency = rng.choice([1, 2, 3])
    if family == "base1":
        return SimulationConfig.base_1ldst(l1_hit_latency=latency)
    if family == "base2":
        return SimulationConfig.base_2ld1st(l1_hit_latency=latency)
    options = MalecParameters(
        way_determination=rng.choice(["wt", "wdu", "none"]),
        result_buses=rng.choice([2, 4]),
        input_buffer_capacity=rng.choice([1, 2, 3]),
    )
    return SimulationConfig.malec(l1_hit_latency=latency, malec_options=options)


class TestRandomizedIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_config_and_trace_identical(self, seed):
        """Randomized configs and traces: the kernel fed columns and fed an
        Instruction list both match the reference, field for field."""
        config = random_config(seed)
        trace = random_trace(seed)
        reference = run_reference(config, trace)
        assert_results_identical(run_fast(config, trace), reference, f"columns/{seed}")
        assert_results_identical(
            run_fast(config, list(trace)), reference, f"objects/{seed}"
        )

    @pytest.mark.parametrize("bench_name", ["gzip", "mcf", "djpeg"])
    def test_real_benchmark_traces_identical_with_warmup(self, bench_name):
        """Warmed benchmark runs (the campaign shape) stay bit-identical."""
        trace = generate_trace(benchmark_profile(bench_name), instructions=900)
        config = SimulationConfig.malec()
        assert_results_identical(
            run_fast(config, trace, warmup=0.3),
            run_reference(config, trace, warmup=0.3),
            bench_name,
        )

    def test_kernel_skips_idle_stretches(self):
        """Pointer chasing: the kernel must actually jump the clock, and land
        where the reference loop polling every cycle lands."""
        instructions = []
        for index in range(50):
            instructions.append(
                load(0x10000 + index * (1 << 20), deps=(1,) if index else ())
            )
            instructions.append(compute(deps=(1,)))
        config = SimulationConfig.base_1ldst()
        outcomes = {}
        for kernel in (compile_kernel(config).entry, None):
            simulator = Simulator(config)
            pipeline = OutOfOrderPipeline(
                simulator.interface,
                params=simulator._pipeline_parameters(),
                stats=simulator.stats,
                enable_fast_forward=kernel is not None,
                kernel=kernel,
            )
            result = pipeline.run(list(instructions))
            assert pipeline.kernel_used == (kernel is not None)
            outcomes[kernel is not None] = (pipeline, result, simulator.stats.as_dict())
        fast_pipeline, fast, fast_stats = outcomes[True]
        _, reference, reference_stats = outcomes[False]
        assert fast_pipeline.fast_forwarded_cycles > fast.cycles // 2
        assert fast.cycles == reference.cycles
        assert fast_stats == reference_stats

    def test_tiny_pipelines_identical(self):
        """Narrow widths force deferrals and width-exhaustion leftovers."""
        config = dataclasses.replace(
            SimulationConfig.base_2ld1st(),
            pipeline=PipelineParameters(
                rob_entries=8, fetch_width=2, issue_width=2, commit_width=1
            ),
        )
        trace = random_trace(99, length=200)
        assert_results_identical(
            run_fast(config, trace), run_reference(config, trace), "tiny"
        )


def random_profile(seed: int) -> BenchmarkProfile:
    """A randomized-but-seeded profile drawing from every stream kind."""
    rng = random.Random(seed)
    kinds = list(StreamKind)
    streams = tuple(
        StreamSpec(
            kind=rng.choice(kinds),
            weight=rng.uniform(0.3, 1.5),
            footprint_pages=rng.choice((2, 6, 40, 400, 2000)),
            stride_bytes=rng.choice((4, 8, 16, 64, 136)),
            page_stay_probability=rng.uniform(0.1, 0.95),
            store_fraction=rng.uniform(0.0, 0.8),
        )
        for _ in range(rng.randint(1, 4))
    )
    return BenchmarkProfile(
        name=f"kfuzz{seed}",
        suite="SYN",
        memory_fraction=rng.uniform(0.25, 0.55),
        streams=streams,
        stream_switch_probability=rng.uniform(0.1, 0.7),
        pointer_chase_dependency=rng.uniform(0.0, 0.9),
        load_use_dependency=rng.uniform(0.1, 0.7),
        seed=seed * 977 + 13,
    )


class TestRandomizedProfiles:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_profiles_bit_identical(self, seed):
        rng = random.Random(seed ^ 0x5EED)
        trace = generate_trace(random_profile(seed), instructions=700)
        config = FIG4_CONFIGS[rng.randrange(len(FIG4_CONFIGS))]
        warmup = rng.choice((0.0, 0.25))
        assert_results_identical(
            run_fast(config, trace, warmup=warmup),
            run_reference(config, trace, warmup=warmup),
            f"kfuzz{seed}/{config.name}",
        )


RUNNERS = {"specialized": run_fast, "generic": run_reference}


def run_reference_on_columns(config, trace, warmup=0.0):
    """The reference loop fed the trace's columnar windows — the input a
    declined kernel hands it — which it materializes into Instructions."""
    simulator = Simulator(config)
    result = simulator.run(
        trace, warmup_fraction=warmup, options=RunOptions(kernel="generic")
    )
    assert not simulator.kernel_used
    return result


def observed_record(collector) -> dict:
    """The facts an observed run reports, in the attribution golden's shape."""
    return {
        "total_cycles": collector.total_cycles,
        "cycles": collector.cycle_categories,
        "events_dispatched": collector.events_dispatched,
        # samples are tuples live, lists on disk
        "samples": [list(sample) for sample in collector.samples],
    }


def stress_records(kernel: str) -> dict:
    """The golden payload's records, computed live with ``kernel``."""
    records = {}
    for bench in STRESS_BENCHMARKS:
        trace = trace_for(bench)
        for config in FIG4_CONFIGS:
            result = RUNNERS[kernel](config, trace, warmup=0.3)
            records[f"{bench}/{config.name}"] = {
                "cycles": result.cycles,
                "instructions": result.instructions,
                "loads": result.loads,
                "stores": result.stores,
                "stats": result.stats,
                "energy": {
                    name: {
                        "dynamic_pj": item.dynamic_pj,
                        "leakage_pj": item.leakage_pj,
                    }
                    for name, item in sorted(result.energy.structures.items())
                },
            }
    return records


class TestStressGolden:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(STRESS_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("kernel", ("specialized", "generic"))
    def test_stress_results_match_golden(self, golden, kernel):
        # Both paths must land on the recorded results — this pins the
        # STRESS profiles' absolute behaviour *and* re-checks the
        # differential property through an independently stored oracle.
        fresh = stress_records(kernel)
        assert set(fresh) == set(golden["records"])
        for key, golden_record in golden["records"].items():
            record = fresh[key]
            for field in ("cycles", "instructions", "loads", "stores"):
                assert record[field] == golden_record[field], (key, field, kernel)
            assert record["stats"] == golden_record["stats"], (key, kernel)
            assert record["energy"] == golden_record["energy"], (key, kernel)

    def test_golden_covers_full_grid(self, golden):
        assert len(golden["records"]) == len(STRESS_BENCHMARKS) * len(FIG4_CONFIGS)
        assert golden["instructions"] == 1200
        assert golden["warmup_fraction"] == 0.3

    def test_golden_covers_mlpladder(self, golden):
        assert "mlpladder" in STRESS_BENCHMARKS
        assert any(key.startswith("mlpladder/") for key in golden["records"])


class TestAttributionGolden:
    """Observed runs: cycle categories, completion-event counts and
    occupancy samples, recorded from the event-driven loop the kernels were
    transcribed from, reproduced exactly by both paths."""

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(ATTRIBUTION_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("kernel", ("specialized", "generic"))
    def test_observed_runs_match_golden(self, golden, kernel):
        for bench in ATTRIBUTION_BENCHMARKS:
            trace = trace_for(bench, golden["instructions"])
            for config in FIG4_CONFIGS:
                key = f"{bench}/{config.name}"
                collector = RunCollector(sample_every=golden["sample_every"])
                result = RUNNERS[kernel](
                    config, trace, warmup=golden["warmup_fraction"], collector=collector
                )
                record = observed_record(collector)
                assert record == golden["records"][key], (key, kernel)
                assert collector.attributed_cycles == result.cycles, (key, kernel)

    def test_golden_covers_grid(self, golden):
        assert set(golden["records"]) == {
            f"{bench}/{config.name}"
            for bench in ATTRIBUTION_BENCHMARKS
            for config in FIG4_CONFIGS
        }
        assert all(record["samples"] for record in golden["records"].values())
        assert golden["sample_every"] > 0


class TestInputFormIdentity:
    """Both paths take a trace with a columnar view or a plain list of
    Instructions; the form of the input never changes a result."""

    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS)
    def test_fig4_mini_grid_kernel_on_objects_bit_identical(self, config, bench):
        trace = trace_for(bench)
        assert_results_identical(
            run_fast(config, list(trace), warmup=0.3),
            run_reference(config, trace, warmup=0.3),
            f"objects/{bench}/{config.name}",
        )

    @pytest.mark.parametrize("bench", STRESS_BENCHMARKS + SYNTHETIC_BENCHMARKS)
    def test_reference_on_columns_bit_identical(self, bench):
        trace = trace_for(bench)
        config = SimulationConfig.malec()
        assert_results_identical(
            run_reference_on_columns(config, trace, warmup=0.3),
            run_reference(config, trace, warmup=0.3),
            bench,
        )

    def test_fig4_pick_reference_on_columns_bit_identical(self):
        trace = trace_for("gzip")
        config = SimulationConfig.base_2ld1st()
        assert_results_identical(
            run_reference_on_columns(config, trace),
            run_reference(config, trace),
            "gzip",
        )


def observed_runs(config, trace, warmup=0.0, sample_every=40):
    """Observed runs of both paths: ``({kernel: result}, {kernel: record})``."""
    results, records = {}, {}
    for kernel, runner in RUNNERS.items():
        collector = RunCollector(sample_every=sample_every)
        results[kernel] = runner(config, trace, warmup=warmup, collector=collector)
        records[kernel] = observed_record(collector)
        assert collector.attributed_cycles == results[kernel].cycles, kernel
    return results, records


def assert_observed_identical(config, trace, label, warmup=0.0) -> None:
    results, records = observed_runs(config, trace, warmup=warmup)
    assert_results_identical(results["specialized"], results["generic"], label)
    assert records["specialized"] == records["generic"], label
    # guard against a vacuous comparison of two empty observations
    assert records["generic"]["events_dispatched"] > 0, label
    assert records["generic"]["samples"], label


class TestObservedIdentity:
    """The observe variant against the reference loop's own attribution on
    inputs beyond the golden grid: randomized configurations and traces,
    warmed benchmark runs and tiny pipelines."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_config_and_trace_observed_identical(self, seed):
        assert_observed_identical(
            random_config(seed), random_trace(seed), f"observed/{seed}"
        )

    @pytest.mark.parametrize("bench_name", ["gzip", "mcf", "djpeg"])
    def test_real_benchmark_traces_observed_identical_with_warmup(self, bench_name):
        trace = generate_trace(benchmark_profile(bench_name), instructions=900)
        assert_observed_identical(
            SimulationConfig.malec(), trace, bench_name, warmup=0.3
        )

    def test_tiny_pipelines_observed_identical(self):
        config = dataclasses.replace(
            SimulationConfig.base_2ld1st(),
            pipeline=PipelineParameters(
                rob_entries=8, fetch_width=2, issue_width=2, commit_width=1
            ),
        )
        assert_observed_identical(config, random_trace(99, length=200), "tiny")

    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    def test_observation_does_not_perturb_results(self, config):
        trace = trace_for("swim")
        assert_results_identical(
            run_fast(config, trace, warmup=0.3, collector=RunCollector(sample_every=25)),
            run_fast(config, trace, warmup=0.3),
            config.name,
        )


class TestFallbackContract:
    def test_observed_run_stays_on_the_kernel(self):
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        observed = run_fast(config, trace, collector=RunCollector(sample_every=50))
        assert_results_identical(observed, run_reference(config, trace), "observed")

    def test_default_kernel_declines_a_collector(self):
        # The default variant carries no hooks, so its guard refuses an
        # attached collector rather than silently dropping the observation.
        trace = trace_for("gzip", instructions=300)
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        view = trace.columnar()
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator._pipeline_parameters(),
            stats=simulator.stats,
            collector=RunCollector(),
            kernel=compile_kernel(config).entry,
        )
        pipeline.run(view.run_slice(0, len(view)))
        assert not pipeline.kernel_used
        assert pipeline.kernel_fallback

    def test_foreign_kernel_rejected_by_runtime_guards(self):
        # A kernel compiled for MALEC attached to a baseline pipeline must
        # refuse to run (guards return None) and leave the reference loop to
        # produce the exact same result as a plain reference run.
        trace = trace_for("gzip")
        config = SimulationConfig.base_1ldst()
        foreign = compile_kernel(SimulationConfig.malec()).entry
        simulator = Simulator(config)
        view = trace.columnar()
        view.precompute_decompositions(config.cache.layout)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator._pipeline_parameters(),
            stats=simulator.stats,
            kernel=foreign,
        )
        result = pipeline.run(view.run_slice(0, len(view)))
        assert not pipeline.kernel_used
        assert pipeline.kernel_fallback
        assert simulator.stats.as_dict() == run_reference(config, trace).stats
        assert result.instructions > 0

    def test_declined_observe_kernel_leaves_attribution_to_the_reference(self):
        # A declined observe variant must not have touched the collector:
        # the reference loop that runs instead reports the whole attribution.
        trace = trace_for("gzip")
        config = SimulationConfig.base_1ldst()
        foreign = compile_kernel(SimulationConfig.malec(), observe=True).entry
        simulator = Simulator(config)
        view = trace.columnar()
        view.precompute_decompositions(config.cache.layout)
        collector = RunCollector(sample_every=50)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator._pipeline_parameters(),
            stats=simulator.stats,
            collector=collector,
            kernel=foreign,
        )
        pipeline.run(view.run_slice(0, len(view)))
        assert not pipeline.kernel_used
        assert pipeline.kernel_fallback
        reference = RunCollector(sample_every=50)
        run_reference(config, trace, collector=reference)
        assert observed_record(collector) == observed_record(reference)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            RunOptions(kernel="bogus").resolved_kernel()


class TestKernelCache:
    def test_content_hash_ignores_name_and_seed(self):
        malec = SimulationConfig.malec()
        assert content_hash(malec) == content_hash(malec.with_name("renamed"))

    def test_compile_is_cached_per_content_hash(self):
        malec = SimulationConfig.malec()
        assert compile_kernel(malec) is compile_kernel(malec.with_name("other"))

    def test_distinct_configs_get_distinct_kernels(self):
        hashes = {content_hash(config) for config in FIG4_CONFIGS}
        assert len(hashes) == len(FIG4_CONFIGS)

    def test_prewarm_deduplicates(self):
        malec = SimulationConfig.malec()
        assert prewarm([malec, malec.with_name("again")]) == 1

    def test_source_is_dumpable_and_compiles(self):
        source = kernel_source(SimulationConfig.malec())
        assert "def kernel_run(" in source
        compile(source, "<dump>", "exec")

    def test_observe_variant_is_a_separate_program(self):
        malec = SimulationConfig.malec()
        assert "observe" not in build_spec(malec)
        assert content_hash(malec, observe=True) != content_hash(malec)
        assert compile_kernel(malec, observe=True) is not compile_kernel(malec)

    def test_default_variant_carries_no_observation_code(self):
        for config in FIG4_CONFIGS:
            default = kernel_source(config)
            observe = kernel_source(config, observe=True)
            assert "collector.sample(" not in default
            assert "cat_memory" not in default
            assert "collector.sample(" in observe
            assert "collector.record_run(" in observe
            compile(observe, "<dump>", "exec")
