"""Tests for the evaluation harness (figures, tables, report rendering)."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.eval import paper_values
from repro.eval.figure7 import figure7_tables, run_figure7
from repro.eval.figure8 import figure8_table, run_figure8
from repro.eval.figure9 import figure9_tables, run_figure9
from repro.eval.figure10 import figure10_table, run_figure10
from repro.eval.figure11 import figure11_table, run_figure11
from repro.eval.memtraffic import memtraffic_table, run_memtraffic
from repro.eval.report import build_engine, render_markdown, run_report
from repro.eval.table import MISSING, render_tables
from repro.eval.table1 import run_table1, table1_table
from repro.eval.table2 import run_table2, table2_table
from repro.sim import MultiprocessRunner, PrefetchMode, SimPlan, SimRequest, run_comparison
from repro.sim.engine.pool import WorkerPool, default_workers
from repro.sim.modes import FIGURE7_MODES
from repro.workloads import registry

REPO_ROOT = Path(__file__).resolve().parents[1]

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


def table_rows(markdown: str, title: str) -> dict[str, dict[str, str]]:
    """The cells of the rendered table whose title starts with ``title``,
    keyed by the row's first cell, then by column."""

    section = markdown.split(f"## {title}", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    header, *rows = [[cell.strip() for cell in line.strip("|").split("|")]
                     for line in lines[:1] + lines[2:]]
    return {row[0]: dict(zip(header, row)) for row in rows}


@pytest.fixture(scope="module")
def comparison():
    """One shared tiny comparison reused by the figure tests."""

    modes = list(FIGURE7_MODES) + [PrefetchMode.MANUAL_BLOCKED]
    return run_comparison(WORKLOAD_SUBSET, modes, config=SystemConfig.scaled(), scale="tiny")


class TestTables:
    def test_table1_groups(self):
        table = run_table1()
        assert set(table) == {"Main Core", "Memory & OS", "Prefetcher"}
        text = render_tables([table1_table(table)])
        assert "PPUs" in text and "L1 cache" in text

    def test_table1_reflects_config(self):
        table = run_table1(SystemConfig.paper())
        assert "32 KB" in table["Memory & OS"]["L1 cache"]

    def test_table2_rows(self):
        rows = run_table2(workloads=WORKLOAD_SUBSET)
        assert len(rows) == 2
        assert rows[0]["name"] == "intsort"
        assert "Stride-indirect" in render_tables([table2_table(rows)])


class TestFigures:
    def test_figure7_speedups_and_overhead(self, comparison):
        data = run_figure7(workloads=WORKLOAD_SUBSET, comparison=comparison)
        assert set(data.speedups) == set(WORKLOAD_SUBSET)
        manual = data.speedups["intsort"][PrefetchMode.MANUAL.value]
        assert manual is not None and manual > 1.0
        assert data.geomean(PrefetchMode.MANUAL) > 1.0
        assert "intsort" in data.software_overhead
        text = render_tables(figure7_tables(data))
        assert "geomean" in text and "intsort" in text

    def test_figure8_rates(self, comparison):
        data = run_figure8(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert 0 <= data.utilisation[name] <= 1
            before, after = data.hit_rates[name]
            assert after >= before
        assert "utilisation" in render_tables([figure8_table(data)])

    def test_figure10_activity(self, comparison):
        data = run_figure10(workloads=WORKLOAD_SUBSET, comparison=comparison)
        summary = data.summary("intsort")
        assert summary["max"] >= summary["median"] >= summary["min"]
        assert data.unused_ppus("intsort") >= 0
        assert "median" in render_tables([figure10_table(data)])

    def test_figure11_blocked_vs_events(self, comparison):
        data = run_figure11(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert data.events[name] >= data.blocked[name] * 0.8
        assert "events" in render_tables([figure11_table(data)])

    def test_memtraffic(self, comparison):
        data = run_memtraffic(workloads=WORKLOAD_SUBSET, comparison=comparison)
        for name in WORKLOAD_SUBSET:
            assert data.extra[name] < 0.5
        assert "%" in render_tables([memtraffic_table(data)])

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
        assert "GHz" in render_tables(figure9_tables(data))


class TestReport:
    def test_run_report_and_render(self):
        report = run_report(
            workloads=WORKLOAD_SUBSET, scale="tiny", include_figure9=False
        )
        markdown = render_markdown(report)
        assert "Figure 7" in markdown
        assert "intsort" in markdown
        assert "Table 1" in markdown
        assert report.figure7.geomean(PrefetchMode.MANUAL) > 0

    def test_run_report_runs_the_engine_once(self):
        engine = build_engine(trace_store_dir="off")
        plans = []
        run_plan = engine.run
        engine.run = lambda plan: plans.append(plan) or run_plan(plan)
        report = run_report(
            workloads=["randacc"], scale="tiny", include_figure9=True, engine=engine
        )
        assert len(plans) == 1

        # The figures read off the one batch equal the standalone drivers'.
        modes = list(FIGURE7_MODES) + [PrefetchMode.MANUAL_BLOCKED]
        alone = run_comparison(["randacc"], modes, config=SystemConfig.scaled(),
                               scale="tiny", engine=engine)
        read = report.figure7.comparison
        assert (read.baselines, read.results) == (alone.baselines, alone.results)
        assert report.figure9 == run_figure9(workloads=["randacc"], scale="tiny",
                                             engine=engine)

    def test_build_engine_runs_local_plans_on_the_multiprocess_runner(self):
        engine = build_engine(trace_store_dir="off")
        assert isinstance(engine.runner, MultiprocessRunner)
        assert engine.runner.workers == default_workers()
        assert build_engine(workers=2, trace_store_dir="off").runner.workers == 2
        with pytest.raises(ValueError, match="at least one worker"):
            build_engine(workers=0, trace_store_dir="off")
        with pytest.raises(TypeError, match="parallel"):
            build_engine(parallel=True)

    def test_default_workers_count_only_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_workers() == 3
        assert MultiprocessRunner().workers == WorkerPool().workers == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_workers() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1

    def test_build_engine_on_one_allowed_cpu_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def refuse(process):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        engine = build_engine(trace_store_dir="off")
        assert engine.runner.workers == 1
        plan = SimPlan(
            SimRequest(workload=w, mode=m, scale="tiny", config=SystemConfig.scaled())
            for w in WORKLOAD_SUBSET for m in ("none", "stride")
        )
        batch = engine.run(plan)
        assert batch.stats.runner == "serial"
        assert batch.stats.executed == len(plan) and not batch.failures

    def test_driver_prints_the_report_once_and_writes_what_it_prints(self, tmp_path):
        written = tmp_path / "EXPERIMENTS.md"
        driver = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "reproduce_paper.py"),
             "--scale", "tiny", "--workloads", "intsort", "--jobs", "1",
             "--trace-store", "off", "--write-experiments", str(written)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert driver.returncode == 0, driver.stderr
        out = driver.stdout
        titles = [line[3:] for line in out.splitlines() if line.startswith("## ")]
        assert [title.split(":")[0] for title in titles] == [
            "Table 1", "Table 2", "Figure 7", "Section 7.1", "Figure 8",
            "Figure 10", "Figure 11", "Section 7.2",
        ]
        for title in titles:
            assert out.count(title) == 1, title
        assert out.count("Batch-engine statistics") == 1
        assert out.index("Batch-engine statistics") > out.index(titles[-1])
        assert out.startswith(written.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("arguments, message", [
        (["--jobs", "0"], "argument --jobs: must be at least 1"),
        (["--parallel"], "unrecognized arguments: --parallel"),
    ])
    def test_driver_rejects_bad_runner_arguments(self, arguments, message):
        driver = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "reproduce_paper.py"), *arguments],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert driver.returncode == 2
        assert message in driver.stderr


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


class TestReportTables:
    """The rendered report, checked on the full tiny plan."""

    def test_every_paper_reading_sits_beside_its_cell(self, paper_report):
        markdown = render_markdown(paper_report)

        def beside(title, row, column, reading):
            cell = table_rows(markdown, title)[row][column]
            assert cell.endswith(f"(paper {reading})"), (title, row, column, cell)

        for name, row in paper_values.FIGURE7_SPEEDUPS.items():
            for mode, paper in row.items():
                beside("Figure 7", name, mode, f"{paper:.2f}×")
        for mode, paper in paper_values.PAPER_GEOMEAN.items():
            beside("Figure 7", "geomean", mode, f"{paper:.2f}×")
        for name, paper in paper_values.FIGURE8A_UTILISATION.items():
            beside("Figure 8", name, "utilisation (a)", f"{paper:.2f}")
        for name, (before, after) in paper_values.FIGURE8B_HIT_RATES.items():
            beside("Figure 8", name, "L1 hit, no PF (b)", f"{before:.2f}")
            beside("Figure 8", name, "L1 hit, manual (b)", f"{after:.2f}")
        for name, paper in paper_values.SOFTWARE_PREFETCH_OVERHEAD.items():
            beside("Section 7.1", name, "overhead", f"{paper:+.1%}")
        for name, paper in paper_values.EXTRA_MEMORY_ACCESSES.items():
            beside("Section 7.2", name, "extra", f"{paper:+.1%}")
        for name, paper in paper_values.FIGURE11_BLOCKED_SPEEDUPS.items():
            beside("Figure 11", name, "blocked", f"{paper:.2f}×")

    def test_figure7_paper_error_is_perfbench_paper_err(self, paper_report):
        errors = [
            abs(math.log(measured / paper))
            for name, row in paper_report.figure7.speedups.items()
            for mode, paper in paper_values.FIGURE7_SPEEDUPS.get(name, {}).items()
            if (measured := row.get(mode)) is not None
        ]
        assert len(errors) == 37
        section = render_markdown(paper_report).split("## Figure 7", 1)[1].split("\n## ", 1)[0]
        assert f"paper_err {sum(errors) / len(errors):.4f}" in section
        assert f"over the {len(errors)} measured cells" in section

    def test_a_mode_without_bars_has_no_geomean(self, paper_report, paper_engine):
        report = run_report(workloads=["pagerank"], scale="tiny", seed=PAPER_SEED,
                            include_figure9=False, engine=paper_engine)
        geomean = table_rows(render_markdown(report), "Figure 7")["geomean"]
        measured = {mode: cell.split(" (paper ")[0] for mode, cell in geomean.items()}
        assert measured["software"] == measured["converted"] == MISSING
        manual = report.figure7.speedups["pagerank"][PrefetchMode.MANUAL.value]
        assert geomean["manual"].startswith(f"{manual:.2f}×")

    def test_a_failed_count_sweep_point_renders_as_missing(self, paper_report):
        full = paper_report.figure9
        failed = (6, 2.0)
        data = dataclasses.replace(
            full, count_sweep={k: v for k, v in full.count_sweep.items() if k != failed}
        )
        rows = table_rows(render_tables(figure9_tables(data)), "Figure 9(b)")
        assert rows["6"]["2 GHz"] == MISSING
        assert rows["12"]["2 GHz"] == f"{full.count_sweep[(12, 2.0)]:.2f}×"


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
