"""The paired perfbench gate's verdict (``benchmarks/perf/gate.py``).

The verdict is a pure function of perfbench final lines, so it is tested on
synthetic ones: no benchmark runs here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BASE_VALUES = {
    "sim_kips": 100.0,
    "cell_p50_ms": 100.0,
    "cell_tail_ms": 100.0,
    "setup_s": 1.0,
    "peak_rss_mb": 50.0,
}


def final_line(failed=0, correct=None, **scale):
    """A perfbench final line; ``scale`` multiplies named base metric values."""
    metrics = {
        name: {"value": value * scale.get(name, 1.0), "unit": "x"}
        for name, value in BASE_VALUES.items()
    }
    return {
        "correct": failed == 0 if correct is None else correct,
        "attempted": 10,
        "failed": failed,
        "metrics": metrics,
    }


def judge(*heads, base=None):
    """Verdict of one workload: one pair per head line, all against ``base``."""
    base = base or final_line()
    return gate.verdict({"fig4_hits": [(base, head) for head in heads]})


def test_identical_runs_pass_with_one_row_per_metric():
    rows, failures = judge(final_line(), final_line(), final_line())
    assert failures == []
    assert [(row[1], row[2]) for row in rows] == [(name, 1.0) for name in gate.THRESHOLDS]


def test_median_of_per_pair_ratios_ignores_one_outlier_pair():
    # One pair at half throughput: the mean ratio (0.83) would fail, the median (1.0) passes.
    rows, failures = judge(final_line(sim_kips=0.5), final_line(), final_line())
    assert failures == []
    assert dict((row[1], row[2]) for row in rows)["sim_kips"] == 1.0
    # Two slow pairs of three move the median, and the gate fails.
    _, failures = judge(final_line(sim_kips=0.5), final_line(sim_kips=0.5), final_line())
    assert len(failures) == 1 and "sim_kips" in failures[0]


def test_each_pair_is_its_own_ratio():
    # Base and head both drift 2x between pairs; every per-pair ratio is 1.
    slow_base, slow_head = final_line(cell_p50_ms=2.0), final_line(cell_p50_ms=2.0)
    pairs = [(final_line(), final_line()), (slow_base, slow_head), (final_line(), final_line())]
    _, failures = gate.verdict({"fig4_misses": pairs})
    assert failures == []


@pytest.mark.parametrize("metric", ["cell_p50_ms", "cell_tail_ms", "setup_s", "peak_rss_mb"])
def test_lower_is_better_metrics_fail_only_when_they_rise(metric):
    assert judge(final_line(**{metric: 0.5}))[1] == []
    _, failures = judge(final_line(**{metric: 1.5}))
    assert len(failures) == 1 and metric in failures[0]


def test_higher_is_better_metric_fails_only_when_it_falls():
    assert judge(final_line(sim_kips=1.5))[1] == []
    _, failures = judge(final_line(sim_kips=0.5))
    assert len(failures) == 1 and "sim_kips" in failures[0]


@pytest.mark.parametrize(
    "metric,at_bound,past_bound",
    [
        ("sim_kips", 0.80, 0.799),
        ("cell_p50_ms", 1.20, 1.201),
        ("cell_tail_ms", 1.20, 1.201),
        ("setup_s", 1.20, 1.201),
        ("peak_rss_mb", 1.10, 1.101),
    ],
)
def test_thresholds_at_their_edges(metric, at_bound, past_bound):
    assert judge(final_line(**{metric: at_bound}))[1] == []
    _, failures = judge(final_line(**{metric: past_bound}))
    assert len(failures) == 1 and metric in failures[0]


def test_rise_in_failed_operations_fails():
    base = final_line(failed=1, correct=True)
    assert judge(final_line(failed=1, correct=True), base=base)[1] == []
    _, failures = judge(final_line(failed=2, correct=True), base=base)
    assert failures == ["fig4_hits: head failed 2, base 1"]


def test_head_correct_false_fails_even_without_more_failures():
    base = final_line(failed=1)
    _, failures = judge(final_line(failed=1), base=base)
    assert failures == ["fig4_hits: head reports correct: false"]


def test_missing_metric_fails():
    head = final_line()
    del head["metrics"]["cell_tail_ms"]
    rows, failures = judge(head)
    assert failures == ["fig4_hits: cell_tail_ms missing or zero"]
    assert "cell_tail_ms" not in [row[1] for row in rows]


def test_crashed_run_fails_every_check():
    # gate.run_side stands in an empty line for a run that printed no result.
    _, failures = judge({})
    assert failures[0] == "fig4_hits: head reports correct: false"
    assert len(failures) == 1 + len(gate.THRESHOLDS)
