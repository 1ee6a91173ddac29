"""Golden-result regression net for the fig4-mini sweep.

``tests/golden/fig4_mini.json`` was produced by the seed code (PR 1, commit
560284a) via the campaign store; every hot-path rewrite since must leave the
records *bit-identical* — cycles, instruction/load/store counts, every
statistics counter and every per-structure energy value.  The test drives
the real CLI (``repro sweep fig4-mini --store json:<tmp>``), so it also covers the
executor, store serialisation and cell-key stability end to end.

Regenerating the golden file is a deliberate act (a behaviour change must be
explained in the PR that makes it)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset
from repro.campaign.store import ResultStore
from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "golden" / "fig4_mini.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh_store(tmp_path_factory) -> ResultStore:
    """One fig4-mini sweep through the real CLI, persisted to a tmp store."""
    out = tmp_path_factory.mktemp("fig4_mini_store")
    exit_code = main(["sweep", "fig4-mini", "--store", f"json:{out}", "--quiet"])
    assert exit_code == 0
    return ResultStore(out)


class TestGoldenFig4Mini:
    def test_golden_file_matches_preset_shape(self, golden):
        spec = campaign_preset("fig4-mini")
        assert golden["preset"] == "fig4-mini"
        assert golden["instructions"] == spec.instructions
        assert golden["warmup_fraction"] == spec.warmup_fraction
        assert golden["seed"] == spec.seed
        assert len(golden["records"]) == len(spec.cells())

    def test_cell_keys_are_stable(self, golden):
        # Key stability is what makes store resume work across code versions.
        expected = {cell.key() for cell in campaign_preset("fig4-mini").cells()}
        assert set(golden["records"]) == expected

    def test_sweep_records_bit_identical_to_golden(self, golden, fresh_store):
        fresh = {record["key"]: record for record in fresh_store.records()}
        assert set(fresh) == set(golden["records"])
        for key, golden_record in golden["records"].items():
            record = fresh[key]
            label = f"{golden_record['benchmark']}/{golden_record['config_name']}"
            golden_result = golden_record["result"]
            result = record["result"]
            # Compare the big blocks field by field first so a regression
            # reports *what* drifted, then require full equality.
            for field in ("cycles", "instructions", "loads", "stores"):
                assert result[field] == golden_result[field], (label, field)
            assert result["stats"] == golden_result["stats"], label
            assert result["energy"] == golden_result["energy"], label
            assert record == golden_record, label

    def test_serial_executor_matches_golden_without_cli(self, golden, tmp_path):
        # The same records must fall out of the Python API (no CLI layer).
        store = ResultStore(tmp_path / "api_store")
        ParallelExecutor(options=RunOptions(jobs=1, store=store)).run(campaign_preset("fig4-mini"))
        fresh = {record["key"]: record for record in store.records()}
        assert fresh == golden["records"]
