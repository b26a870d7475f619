"""The extended-workloads comparison driver, end to end at tiny scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.eval.extended import EXTENDED_MODES, extended_table, run_extended
from repro.eval.table import render_tables
from repro.sim import PrefetchMode, SimEngine
from repro.workloads import registry


class TestExtendedComparison:
    def test_all_new_kernels_under_all_modes(self):
        engine = SimEngine()
        data = run_extended(scale="tiny", config=SystemConfig.scaled(), engine=engine)

        assert sorted(data.speedups) == sorted(registry.extended_names())
        for name, row in data.speedups.items():
            for mode in EXTENDED_MODES:
                assert row.get(mode.value) is not None, (name, mode)
            assert row[PrefetchMode.NONE.value] == 1.0
            # The manual PPU kernels must beat the no-prefetching baseline.
            assert row[PrefetchMode.MANUAL.value] > 1.0

        # Dedup + cache statistics come back from the batch engine.
        stats = data.engine_stats
        assert stats is not None
        assert stats.submitted == len(registry.extended_names()) * len(EXTENDED_MODES)
        assert stats.executed == stats.unique - stats.memo_hits - stats.cache_hits
        assert "deduplicated" in stats.summary() and "cache hits" in stats.summary()

    def test_shared_engine_deduplicates_against_prior_runs(self):
        engine = SimEngine()
        run_extended(scale="tiny", engine=engine)
        again = run_extended(scale="tiny", engine=engine)
        assert again.engine_stats is not None
        assert again.engine_stats.executed == 0
        assert again.engine_stats.memo_hits == again.engine_stats.unique

    def test_table_reports_speedups_and_stats(self):
        data = run_extended(
            workloads=["spmv"], modes=[PrefetchMode.NONE, PrefetchMode.MANUAL], scale="tiny"
        )
        text = render_tables([extended_table(data)])
        assert "| benchmark | none  | manual |" in text
        assert "spmv" in text
        assert "geomean" in text
        assert "Batch engine:" in text


@pytest.mark.parametrize("arguments, message", [
    (["--jobs", "0"], "argument --jobs: must be at least 1"),
    (["--parallel"], "unrecognized arguments: --parallel"),
])
def test_driver_rejects_bad_runner_arguments(arguments, message):
    root = Path(__file__).resolve().parents[1]
    driver = subprocess.run(
        [sys.executable, str(root / "examples" / "extended_workloads.py"), *arguments],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert driver.returncode == 2
    assert message in driver.stderr
