"""Tests for the evaluation harness (figures, tables, report rendering)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.eval.figure7 import format_figure7, run_figure7
from repro.eval.figure8 import format_figure8, run_figure8
from repro.eval.figure9 import format_figure9, run_figure9
from repro.eval.figure10 import format_figure10, run_figure10
from repro.eval.figure11 import format_figure11, run_figure11
from repro.eval.memtraffic import format_memtraffic, run_memtraffic
from repro.eval.report import build_engine, render_markdown, run_report
from repro.eval.table1 import format_table1, run_table1
from repro.eval.table2 import format_table2, run_table2
from repro.sim import MultiprocessRunner, PrefetchMode, SimRequest, run_comparison
from repro.sim.modes import FIGURE7_MODES
from repro.workloads import registry

WORKLOAD_SUBSET = ["intsort", "randacc"]
PAPER_WORKLOADS = registry.paper_names()
PAPER_SEED = 42

#: The conventional schemes the paper's manual kernels beat on every workload.
CONVENTIONAL_MODES = [
    PrefetchMode.STRIDE,
    PrefetchMode.GHB_REGULAR,
    PrefetchMode.GHB_LARGE,
    PrefetchMode.SOFTWARE,
]


@pytest.fixture(scope="module")
def comparison():
    """One shared tiny comparison reused by the figure tests."""

    modes = list(FIGURE7_MODES) + [PrefetchMode.MANUAL_BLOCKED]
    return run_comparison(WORKLOAD_SUBSET, modes, config=SystemConfig.scaled(), scale="tiny")


class TestTables:
    def test_table1_groups(self):
        table = run_table1()
        assert set(table) == {"Main Core", "Memory & OS", "Prefetcher"}
        text = format_table1(table)
        assert "PPUs" in text and "L1 cache" in text

    def test_table1_reflects_config(self):
        table = run_table1(SystemConfig.paper())
        assert "32 KB" in table["Memory & OS"]["L1 cache"]

    def test_table2_rows(self):
        rows = run_table2(workloads=WORKLOAD_SUBSET)
        assert len(rows) == 2
        assert rows[0]["name"] == "intsort"
        assert "Stride-indirect" in format_table2(rows)


class TestFigures:
    def test_figure7_speedups_and_overhead(self, comparison):
        data = run_figure7(workloads=WORKLOAD_SUBSET, comparison=comparison)
        assert set(data.speedups) == set(WORKLOAD_SUBSET)
        manual = data.speedups["intsort"][PrefetchMode.MANUAL.value]
        assert manual is not None and manual > 1.0
        assert data.geomean(PrefetchMode.MANUAL) > 1.0
        assert "intsort" in data.software_overhead
        text = format_figure7(data)
        assert "geomean" in text and "intsort" in text

    def test_figure8_rates(self, comparison):
        data = run_figure8(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert 0 <= data.utilisation[name] <= 1
            before, after = data.hit_rates[name]
            assert after >= before
        assert "utilisation" in format_figure8(data)

    def test_figure10_activity(self, comparison):
        data = run_figure10(workloads=WORKLOAD_SUBSET, comparison=comparison)
        summary = data.summary("intsort")
        assert summary["max"] >= summary["median"] >= summary["min"]
        assert data.unused_ppus("intsort") >= 0
        assert "median" in format_figure10(data)

    def test_figure11_blocked_vs_events(self, comparison):
        data = run_figure11(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert data.events[name] >= data.blocked[name] * 0.8
        assert "events" in format_figure11(data)

    def test_memtraffic(self, comparison):
        data = run_memtraffic(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert data.extra[name] < 0.5
        assert "%" in format_memtraffic(data)

    def test_figure9_sweeps_small(self):
        data = run_figure9(
            workloads=["randacc"],
            scale="tiny",
            frequencies=[0.5, 1.0],
            counts=[3, 12],
            count_sweep_workload="randacc",
        )
        assert set(data.frequency_sweeps["randacc"]) == {0.5, 1.0}
        assert (3, 1.0) in data.count_sweep
        assert "GHz" in format_figure9(data)


class TestReport:
    def test_run_report_and_render(self):
        report = run_report(
            workloads=WORKLOAD_SUBSET, scale="tiny", include_figure9=False
        )
        markdown = render_markdown(report)
        assert "Figure 7" in markdown
        assert "intsort" in markdown
        console = report.format_console()
        assert "Table 1" in console
        assert report.figure7.geomean(PrefetchMode.MANUAL) > 0

    def test_build_engine_refuses_parallel_only_arguments_without_parallel(self):
        for name, value in (("workers", 4), ("max_attempts", 2)):
            with pytest.raises(ValueError, match=name):
                build_engine(trace_store_dir="off", **{name: value})
        engine = build_engine(parallel=True, workers=2, max_attempts=2, trace_store_dir="off")
        assert isinstance(engine.runner, MultiprocessRunner)
        assert (engine.runner.workers, engine.runner.max_attempts) == (2, 2)

        root = Path(__file__).resolve().parents[1]
        driver = subprocess.run(
            [sys.executable, str(root / "examples" / "reproduce_paper.py"),
             "--scale", "tiny", "--max-attempts", "5"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert driver.returncode == 2
        assert "max_attempts" in driver.stderr


@pytest.fixture(scope="module")
def paper_engine():
    """A serial engine with the trace store off, shared by the shape checks."""

    return build_engine(trace_store_dir="off")


@pytest.fixture(scope="module")
def paper_report(paper_engine):
    """The full tiny reproduction plan, Figure 9 included, run once."""

    return run_report(
        scale="tiny", seed=PAPER_SEED, include_figure9=True, engine=paper_engine
    )


class TestPaperShape:
    """The evaluation's qualitative claims, checked on the full tiny plan.

    The paper's results are mostly orderings rather than absolute numbers,
    so these assert the orderings, one workload per test where a claim is
    made per workload, so that a failure names the workload.
    """

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_figure7_manual_beats_conventional_prefetching(self, paper_report, name):
        row = paper_report.figure7.speedups[name]
        manual = row[PrefetchMode.MANUAL.value]
        assert manual >= 1.2
        for mode in CONVENTIONAL_MODES:
            other = row[mode.value]
            if other is not None:  # e.g. PageRank has no software prefetching
                assert other < manual, mode.value

    def test_figure7_manual_geomean_beats_ghb(self, paper_report):
        figure7 = paper_report.figure7
        assert figure7.geomean(PrefetchMode.MANUAL) >= figure7.geomean(
            PrefetchMode.GHB_REGULAR
        )

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_figure8_prefetching_does_not_hurt_the_l1(self, paper_report, name):
        before, after = paper_report.figure8.hit_rates[name]
        assert after >= before - 0.02
        assert 0.0 <= paper_report.figure8.utilisation[name] <= 1.0

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_figure9_faster_ppus_are_never_much_worse(self, paper_report, name):
        sweep = paper_report.figure9.frequency_sweeps[name]
        assert sweep[max(sweep)] >= 0.9 * sweep[min(sweep)]

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_figure10_lowest_free_id_loads_the_low_ppus(self, paper_report, name):
        factors = paper_report.figure10.activity[name]
        assert len(factors) == SystemConfig.scaled().prefetcher.num_ppus
        assert factors[0] >= factors[-1]
        assert all(0.0 <= factor <= 1.0 for factor in factors)

    def test_figure11_events_beat_blocking_overall(self, paper_report):
        data = paper_report.figure11
        better = sum(1 for name, events in data.events.items() if events >= data.blocked[name])
        assert better >= len(data.events) - 1

    @pytest.mark.parametrize("name", ["hj8", "g500-csr"])
    def test_figure11_events_beat_blocking_on_chained_patterns(self, paper_report, name):
        assert paper_report.figure11.events[name] > paper_report.figure11.blocked[name]

    @pytest.mark.parametrize("name", PAPER_WORKLOADS)
    def test_memtraffic_extra_traffic_stays_small(self, paper_report, name):
        # The graph traversals may over-fetch (paper: 16-40 %).
        bound = 0.8 if name.startswith("g500") else 0.25
        assert paper_report.memtraffic.extra[name] < bound


class TestRandaccAblations:
    """Design-choice ablations of the programmable prefetcher on RandomAccess."""

    @staticmethod
    def manual(engine, *, config=None, policy=None):
        return engine.simulate(
            SimRequest(
                "randacc", PrefetchMode.MANUAL, scale="tiny", seed=PAPER_SEED,
                config=config or SystemConfig.scaled(), policy=policy,
            )
        )

    def test_round_robin_scheduling_does_not_change_performance(self, paper_engine):
        lowest_free_id = self.manual(paper_engine)
        round_robin = self.manual(paper_engine, policy="round-robin")
        assert round_robin.cycles == pytest.approx(lowest_free_id.cycles, rel=0.1)

    def test_two_entry_queues_degrade_gracefully(self, paper_engine):
        full = self.manual(paper_engine)
        starved = self.manual(
            paper_engine,
            config=SystemConfig.scaled().with_prefetcher(
                observation_queue_entries=2, prefetch_queue_entries=4
            ),
        )
        assert starved.cycles >= full.cycles * 0.95

    def test_single_ppu_still_helps(self, paper_engine):
        baseline = paper_engine.simulate(
            SimRequest("randacc", PrefetchMode.NONE, scale="tiny", seed=PAPER_SEED)
        )
        single = self.manual(
            paper_engine, config=SystemConfig.scaled().with_prefetcher(num_ppus=1)
        )
        assert single.cycles < baseline.cycles
