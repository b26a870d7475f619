"""Figure 9: PPU clock-frequency and PPU-count scaling.

The whole figure — per-benchmark frequency sweeps, the count × clock sweep,
and the shared no-prefetch references — is declared as one
:class:`~repro.sim.engine.SimPlan` and executed in a single engine run, so
the count-sweep workload's baseline is simulated once (not once per sweep)
and a parallel runner can spread every swept point across cores.
:func:`figure9_plan` exposes the plan so the full-report driver can merge it
with the Figure 7 comparison plan and execute everything together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..config import SystemConfig
from ..sim.engine import BatchResult, SimEngine, SimPlan, SimRequest, SerialRunner
from ..sim.results import geometric_mean
from ..sim.sweeps import (
    FIGURE9A_FREQUENCIES,
    FIGURE9B_COUNTS,
    FIGURE9B_FREQUENCIES,
    baseline_request,
    count_frequency_sweep_requests,
    frequency_sweep_requests,
)
from ..workloads import registry
from ..workloads.base import Workload


@dataclass
class Figure9Data:
    """Clock-speed sweep per benchmark (9a) and count×clock sweep for G500-CSR (9b)."""

    frequency_sweeps: dict[str, dict[float, float]] = field(default_factory=dict)
    count_sweep: dict[tuple[int, float], float] = field(default_factory=dict)
    count_sweep_workload: str = "g500-csr"

    def geomean_at(self, frequency: float) -> float:
        values = [
            sweep[frequency]
            for sweep in self.frequency_sweeps.values()
            if frequency in sweep
        ]
        return geometric_mean(values)


@dataclass
class _Figure9Requests:
    """The declared requests, kept so results can be read back off a batch."""

    plan: SimPlan
    baselines: dict[str, SimRequest]
    frequency_points: dict[str, dict[float, SimRequest]]
    count_points: dict[tuple[int, float], SimRequest]
    count_sweep_workload: str

    def data(self, batch: BatchResult) -> Figure9Data:
        """Read the figure off a batch that executed (at least) :attr:`plan`."""

        data = Figure9Data(count_sweep_workload=self.count_sweep_workload)
        for name, points in self.frequency_points.items():
            reference = batch[self.baselines[name]]
            data.frequency_sweeps[name] = {
                frequency: batch[request].speedup_over(reference)
                for frequency, request in points.items()
                if batch.get(request) is not None
            }
        count_reference = batch[self.baselines[self.count_sweep_workload]]
        data.count_sweep = {
            key: batch[request].speedup_over(count_reference)
            for key, request in self.count_points.items()
            if batch.get(request) is not None
        }
        return data


def figure9_plan(
    *,
    workloads: Optional[Iterable[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
    frequencies: Optional[Iterable[float]] = None,
    counts: Optional[Iterable[int]] = None,
    count_sweep_frequencies: Optional[Iterable[float]] = None,
    count_sweep_workload: str = "g500-csr",
) -> _Figure9Requests:
    """Declare every Figure 9 simulation point as one deduplicated plan."""

    names = list(workloads) if workloads is not None else registry.paper_names()
    system_config = config if config is not None else SystemConfig.scaled()
    frequency_list = list(frequencies) if frequencies is not None else list(FIGURE9A_FREQUENCIES)
    count_list = list(counts) if counts is not None else list(FIGURE9B_COUNTS)
    count_frequency_list = (
        list(count_sweep_frequencies)
        if count_sweep_frequencies is not None
        else list(FIGURE9B_FREQUENCIES)
    )

    plan = SimPlan()
    baselines: dict[str, SimRequest] = {}
    frequency_points: dict[str, dict[float, SimRequest]] = {}
    for name in names:
        baselines[name] = plan.add(
            baseline_request(name, system_config, scale=scale, seed=seed)
        )
        points = frequency_sweep_requests(
            name, frequency_list, system_config, scale=scale, seed=seed
        )
        frequency_points[name] = {f: plan.add(req) for f, req in points.items()}

    baselines[count_sweep_workload] = plan.add(
        baseline_request(count_sweep_workload, system_config, scale=scale, seed=seed)
    )
    count_points = {
        key: plan.add(req)
        for key, req in count_frequency_sweep_requests(
            count_sweep_workload,
            count_list,
            count_frequency_list,
            system_config,
            scale=scale,
            seed=seed,
        ).items()
    }
    return _Figure9Requests(plan, baselines, frequency_points, count_points, count_sweep_workload)


def run_figure9(
    *,
    workloads: Optional[Iterable[str]] = None,
    config: Optional[SystemConfig] = None,
    scale: str = "default",
    seed: int = 42,
    frequencies: Optional[Iterable[float]] = None,
    counts: Optional[Iterable[int]] = None,
    count_sweep_workload: str = "g500-csr",
    prebuilt: Optional[dict[str, Workload]] = None,
    engine: Optional[SimEngine] = None,
) -> Figure9Data:
    declared = figure9_plan(
        workloads=workloads,
        config=config,
        scale=scale,
        seed=seed,
        frequencies=frequencies,
        counts=counts,
        count_sweep_frequencies=frequencies,
        count_sweep_workload=count_sweep_workload,
    )
    if engine is None:
        engine = SimEngine(runner=SerialRunner(workloads=prebuilt))
    return declared.data(engine.run(declared.plan))


def format_figure9(data: Figure9Data) -> str:
    frequencies = sorted({f for sweep in data.frequency_sweeps.values() for f in sweep})
    header = f"{'benchmark':<12}" + "".join(f"{f:>9.3g}GHz" for f in frequencies)
    lines = ["Figure 9(a): speedup vs PPU clock speed (12 PPUs)", header, "-" * len(header)]
    for name, sweep in data.frequency_sweeps.items():
        cells = "".join(
            f"{sweep[f]:>12.2f}" if f in sweep else f"{'--':>12}" for f in frequencies
        )
        lines.append(f"{name:<12}{cells}")
    lines.append("-" * len(header))
    lines.append(
        f"{'geomean':<12}"
        + "".join(f"{data.geomean_at(f):>12.2f}" for f in frequencies)
    )

    if data.count_sweep:
        counts = sorted({count for count, _ in data.count_sweep})
        sweep_frequencies = sorted({f for _, f in data.count_sweep})
        lines += [
            "",
            f"Figure 9(b): PPU count x clock on {data.count_sweep_workload}",
            f"{'PPUs':<6}" + "".join(f"{f:>9.3g}GHz" for f in sweep_frequencies),
        ]
        for count in counts:
            cells = "".join(
                f"{data.count_sweep.get((count, f), float('nan')):>12.2f}"
                for f in sweep_frequencies
            )
            lines.append(f"{count:<6}{cells}")
    return "\n".join(lines)
