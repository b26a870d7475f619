"""The four benchmark workloads and their correctness checks.

``programmable`` and ``baseline`` call ``repro.sim.system.simulate`` on the
eight paper workloads at ``small`` scale; ``reproduce`` and ``service`` run
the full evaluation plan (``run_report`` with Figure 9) at ``tiny`` scale,
locally through ``build_engine`` or through one spawned ``repro serve``
daemon.  Every simulated point starts with empty modelled caches: each
``simulate`` builds a fresh hierarchy, which is how the paper's figures are
defined.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import subprocess
import time
from statistics import median
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from tracer import Tracer, install

SIM_SCALE = "small"
PLAN_SCALE = "tiny"
PROGRAMMABLE_MODES = ("pragma", "converted", "manual", "manual-blocked")
BASELINE_MODES = ("none", "stride", "ghb-regular", "ghb-large", "software")
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Passes over the points per repetition of a simulation workload: host
#: speed on small shared machines drifts by up to 20 % within a minute, and
#: one ~17 s pass averages too little of that drift.
PASSES_PER_UNIT = 2
#: Warm plan passes after each cold one; ``plan_warm_s`` is their median.
LOCAL_WARM_PASSES = 10
SERVICE_WARM_PASSES = 5
#: The seed ``tests/data/golden_stats.json`` was generated with.
GOLDEN_SEED = 42
#: Allowed gap between the sum of traced self times and the traced wall time.
SELF_TIME_TOLERANCE = 0.01

clock = time.perf_counter


@dataclass
class Run:
    """One benchmark invocation: its inputs and what it has found so far."""

    root: Path
    work: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    import_s: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Failed checks that are not operations (tracer self-checks).
    check_failures: list[str] = field(default_factory=list)
    #: Human-readable lines printed before the result.
    lines: list[str] = field(default_factory=list)
    #: End-to-end metrics: name -> (value, unit).
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced run only): name -> (value, unit).
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    trace_dump: Optional[dict[str, Any]] = None

    def fail(self, label: str) -> None:
        self.failures.append(label)

    @property
    def setup_repeats(self) -> int:
        """A traced run reports no ``setup_s``, so it sets up once."""

        return 1 if self.trace else SETUP_REPEATS

    def workdir(self, name: str) -> str:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return str(path)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak RSS in MiB; with children, the largest reaped descendant counts."""

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def canonical(result) -> Any:
    """A result as plain JSON data, so equality is field for field."""

    return None if result is None else json.loads(json.dumps(result.as_dict()))


def stats_sha256(results: dict[str, Any]) -> str:
    payload = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compare(run: Run, what: str, expected: dict[str, Any], actual: dict[str, Any]) -> None:
    """Count every key whose value differs (or is missing) as a failure."""

    for key in sorted(expected.keys() | actual.keys()):
        if expected.get(key, "missing") != actual.get(key, "missing"):
            run.fail(f"{what}: {key}")


def run_traced(body: Callable[[Tracer], Any]) -> tuple[Tracer, Any, float]:
    """Install the tracer, run ``body`` under a root span, then uninstall.

    Returns the tracer, the body's value and the traced wall time measured
    outside the root span (the self-check compares the two).
    """

    tracer = Tracer()
    install(tracer)
    start = clock()
    try:
        with tracer.span("bench", "traced run"):
            value = body(tracer)
    finally:
        wall = clock() - start
        tracer.uninstall()
    return tracer, value, wall


def repeat_within(run: Run, once: Callable[[], float]) -> None:
    """Call ``once`` (returns its measured seconds) while another fits the budget.

    Garbage left by set-up and earlier repetitions is collected first, so it
    is neither collected inside a timed region nor counted in peak RSS.  A
    traced run makes one untraced repetition: the reference for the traced
    one.
    """

    start = clock()
    gc.collect()
    last = once()
    while not run.trace and (clock() - start) + last <= run.seconds:
        gc.collect()
        last = once()


# --------------------------------------------------------- simulation points


@dataclass
class Prepared:
    seconds: float
    points: list[tuple[Any, Any]]


def configuration_for(workload, mode):
    """The PPU configuration ``simulate`` installs for a programmable mode."""

    from repro.sim.modes import PrefetchMode

    if mode in (PrefetchMode.MANUAL, PrefetchMode.MANUAL_BLOCKED):
        return workload.manual_configuration_for(workload.resolve_kernel_source())
    if mode is PrefetchMode.CONVERTED:
        return workload.converted_configuration()
    return workload.pragma_configuration()


def prepare(run: Run, modes: tuple[str, ...]) -> Prepared:
    """Build the paper workloads, emit traces, configure and compile kernels."""

    from repro.programmable import compiler
    from repro.sim.modes import PrefetchMode, mode_available
    from repro.workloads import registry

    compiler.clear_compiled_cache()
    start = clock()
    points = []
    for name in registry.paper_names():
        workload = registry.get(name).build(scale=SIM_SCALE, seed=run.seed)
        for mode in map(PrefetchMode, modes):
            if not mode_available(workload, mode):
                continue
            points.append((workload, mode))
            workload.trace(mode.trace_variant)
            if mode.uses_programmable_prefetcher:
                for program in configuration_for(workload, mode).kernels.values():
                    compiler.kernel_executor(program)
    return Prepared(clock() - start, points)


def warm_up(run: Run, modes: tuple[str, ...]) -> float:
    """Lazy one-time work (generated replay loops, first calls) on a tiny input."""

    from repro.sim import system
    from repro.sim.modes import PrefetchMode, mode_available
    from repro.workloads import registry

    start = clock()
    workload = registry.get("intsort").build(scale="tiny", seed=run.seed)
    for mode in map(PrefetchMode, modes):
        if mode_available(workload, mode):
            system.simulate(workload, mode)
    return clock() - start


def simulate_points(run: Run, points) -> tuple[float, dict[str, Any], int]:
    """One pass over ``points``; returns seconds, results and instructions."""

    from repro.config import SystemConfig
    from repro.sim import system

    config = SystemConfig.scaled()
    simulate = system.simulate
    results: dict[str, Any] = {}
    start = clock()
    for workload, mode in points:
        key = f"{workload.name}/{mode.value}"
        try:
            results[key] = simulate(workload, mode, config)
        except Exception as error:  # noqa: BLE001 - a failed point is counted, not fatal
            results[key] = None
            run.fail(f"{key}: {type(error).__name__}: {error}")
    seconds = clock() - start
    run.attempted += len(points)
    instructions = sum(r.instructions for r in results.values() if r is not None)
    return seconds, {key: canonical(r) for key, r in results.items()}, instructions


def simulation_workload(run: Run, modes: tuple[str, ...]) -> None:
    prepared = [prepare(run, modes) for _ in range(run.setup_repeats)]
    prepare_s = median([p.seconds for p in prepared])
    warm_up_s = warm_up(run, modes)
    setup_s = run.import_s + prepare_s + warm_up_s
    run.lines.append(f"setup parts       imports {run.import_s:.4f} s, build/emit/configure/"
                     f"compile {prepare_s:.4f} s, warm-up {warm_up_s:.4f} s")
    points = prepared[-1].points
    del prepared

    passes: list[tuple[float, dict[str, Any], int]] = []

    # A traced run needs one untraced pass only, as the overhead reference.
    per_unit = 1 if run.trace else PASSES_PER_UNIT

    def once() -> float:
        for _ in range(per_unit):
            passes.append(simulate_points(run, points))
        return sum(p[0] for p in passes[-per_unit:])

    repeat_within(run, once)
    wall_s = median([p[0] for p in passes])
    reference = passes[0][1]
    for seconds, results, _ in passes[1:]:
        compare(run, "pass differs from first pass", reference, results)
    sha = stats_sha256(reference)
    run.lines.append(f"passes            {len(passes)} x {len(points)} points")
    run.lines.append(f"stats_sha256      {sha}")
    run.metrics.update({
        "wall_s": (wall_s, "s"),
        "sim_ips": (passes[0][2] / wall_s, "instr/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    })
    if not run.trace:
        return

    del points

    def traced_run(tracer: Tracer) -> tuple[float, dict[str, Any], int]:
        with tracer.span("bench.setup", "setup"):
            traced_points = prepare(run, modes).points
        with tracer.span("bench.pass", "pass"):
            return simulate_points(run, traced_points)

    tracer, (traced_s, traced, _), wall = run_traced(traced_run)
    compare(run, "traced result differs from untraced", reference, traced)
    finish_trace(run, tracer, wall, traced_s / wall_s, list(reference.values()))


# ----------------------------------------------------------------- the plan


@contextlib.contextmanager
def first_plan(engine):
    """Capture the first ``(plan, batch)`` the engine runs: the whole plan."""

    captured: list = []
    run_plan = engine.run

    def run(plan, *args, **kwargs):
        batch = run_plan(plan, *args, **kwargs)
        if not captured:
            captured.append((plan, batch))
        return batch

    engine.run = run
    try:
        yield captured
    finally:
        del engine.run


def request_key(request) -> str:
    """A request's identity without the code fingerprint, stable across commits."""

    described = request.describe()
    described.pop("code", None)
    return json.dumps(described, sort_keys=True, separators=(",", ":"))


def plan_results(run: Run, captured: list, what: str) -> tuple[Any, dict[str, Any]]:
    """The captured plan's results by request key; failure labels are failures."""

    if not captured:
        run.fail(f"{what}: the engine ran no plan")
        return None, {}
    plan, batch = captured[0]
    for failure in batch.failures.values():
        run.fail(f"{what}: {failure}")
    return plan, {request_key(request): canonical(batch.get(request))
                  for _digest, request in plan.items()}


def check_golden(run: Run, plan, results: dict[str, Any]) -> int:
    """Compare every point at ``SystemConfig.scaled()`` with the golden file."""

    from repro.config import SystemConfig

    golden = json.loads((run.root / "tests" / "data" / "golden_stats.json").read_text())
    scaled = SystemConfig.scaled()
    checked = 0
    for _digest, request in plan.items():
        if request.config != scaled or request.policy is not None:
            continue
        checked += 1
        expected = golden.get(f"{request.workload}/{request.mode}")
        if results[request_key(request)] != expected:
            run.fail(f"golden mismatch: {request.workload}/{request.mode}")
    return checked


def paper_error(report) -> float:
    """Mean |ln(simulated / paper)| over the Figure 7 cells the paper reports."""

    from repro.eval import paper_values

    errors = [
        abs(math.log(measured / paper))
        for name, row in report.figure7.speedups.items()
        for mode, paper in paper_values.FIGURE7_SPEEDUPS.get(name, {}).items()
        if (measured := row.get(mode)) is not None
    ]
    return sum(errors) / len(errors)


def instructions_of(results: dict[str, Any]) -> int:
    return sum(r["instructions"] for r in results.values() if r is not None)


@dataclass
class PlanRound:
    """One cold plan pass and the warm passes that follow it."""

    cold_s: float
    warm_s: list[float]
    plan: Any
    results: dict[str, Any]
    report: Any
    engine_stats: Any
    warm_stats: list[Any]


def plan_round(run: Run, cold_engine, warm_engine: Callable[[], Any], warm_passes: int,
               what: str) -> PlanRound:
    """Cold plan pass then ``warm_passes`` warm ones; checks warm == cold."""

    from repro.eval import report as report_module
    from repro.programmable.compiler import clear_compiled_cache

    def one(engine, what: str) -> tuple[float, Any, Any, dict[str, Any], Any]:
        with first_plan(engine) as captured:
            start = clock()
            rendered = report_module.run_report(
                scale=PLAN_SCALE, seed=run.seed, include_figure9=True, engine=engine)
            report_module.render_markdown(rendered)
            seconds = clock() - start
        plan, results = plan_results(run, captured, what)
        run.attempted += len(results)
        return seconds, rendered, plan, results, captured[0][1].stats if captured else None

    clear_compiled_cache()  # a cold run starts in a fresh process
    cold_s, rendered, plan, results, stats = one(cold_engine, f"{what} cold")
    warm_s, warm_stats = [], []
    for _ in range(warm_passes):
        seconds, _, _, warm, warm_stat = one(warm_engine(), f"{what} warm")
        warm_s.append(seconds)
        warm_stats.append(warm_stat)
        compare(run, f"{what} warm pass differs from cold", results, warm)
    return PlanRound(cold_s, warm_s, plan, results, rendered, stats, warm_stats)


def report_plan(run: Run, rounds: list[PlanRound], setup_s: float) -> None:
    """End-to-end metrics and the golden/determinism verdict of plan rounds."""

    first = rounds[0]
    for other in rounds[1:]:
        compare(run, "cold round differs from first round", first.results, other.results)
    if run.seed == GOLDEN_SEED and first.plan is not None:
        checked = check_golden(run, first.plan, first.results)
        run.lines.append(f"golden            {checked} points at SystemConfig.scaled() "
                         "compared with tests/data/golden_stats.json")
    cold_s = median([r.cold_s for r in rounds])
    warm_s = median([s for r in rounds for s in r.warm_s])
    run.lines.append(f"rounds            {len(rounds)} cold, {sum(len(r.warm_s) for r in rounds)} warm")
    run.lines.append(f"plan_cold_s       {cold_s:.4f} s")
    run.lines.append(f"plan_warm_s       {warm_s:.4f} s")
    run.lines.append(f"paper_err         {paper_error(first.report):.4f} ln-ratio")
    run.lines.append(f"stats_sha256      {stats_sha256(first.results)}")
    run.metrics.update({
        "wall_s": (cold_s, "s"),
        "sim_ips": (instructions_of(first.results) / cold_s, "instr/s"),
        "setup_s": (setup_s, "s"),
    })


def reproduce_workload(run: Run) -> None:
    from repro.eval import report as report_module

    def dirs(tag: str) -> dict[str, str]:
        return {"cache_dir": run.workdir(f"{tag}/cache"),
                "trace_store_dir": run.workdir(f"{tag}/traces"),
                "checkpoint_dir": run.workdir(f"{tag}/checkpoints")}

    engines, setup = [], []
    for index in range(run.setup_repeats):
        tag = f"plan{index}"
        directories = dirs(tag)
        start = clock()
        engines.append((report_module.build_engine(**directories), directories))
        setup.append(clock() - start)
    setup_s = run.import_s + median(setup)

    def round_on(engine, directories) -> PlanRound:
        return plan_round(run, engine, lambda: report_module.build_engine(**directories),
                          LOCAL_WARM_PASSES, "reproduce")

    rounds: list[PlanRound] = []

    def once() -> float:
        if engines:
            engine, directories = engines.pop()
        else:
            directories = dirs(f"plan{run.setup_repeats + len(rounds)}")
            engine = report_module.build_engine(**directories)
        rounds.append(round_on(engine, directories))
        return rounds[-1].cold_s + sum(rounds[-1].warm_s)

    repeat_within(run, once)
    report_plan(run, rounds, setup_s)
    run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    if not run.trace:
        return

    def traced_run(tracer: Tracer) -> PlanRound:
        directories = dirs("traced")
        with tracer.span("bench.setup", "setup"):
            engine = report_module.build_engine(**directories)
        return round_on(engine, directories)

    tracer, traced, wall = run_traced(traced_run)
    compare(run, "traced plan differs from untraced", rounds[0].results, traced.results)
    finish_trace(run, tracer, wall, traced.cold_s / rounds[0].cold_s,
                 list(rounds[0].results.values()), rounds[0])


# ------------------------------------------------------------------ service


def spawn_daemon(run: Run, stack: contextlib.ExitStack, tag: str) -> tuple[Any, str, float]:
    """Spawn one ``repro serve`` (1 worker, fresh directories) and probe it.

    Returns the process, its address and the set-up seconds: spawn until it
    is listening, plus the first health probe.
    """

    from repro.service import client as service_client
    from repro.service import health

    start = clock()
    process, address = stack.enter_context(service_client.spawn_local_daemon(
        workers=1, cache_dir=run.workdir(f"{tag}/cache"),
        trace_store=run.workdir(f"{tag}/traces")))
    probe = health.probe_endpoint(address)
    seconds = clock() - start
    stack.callback(stop_daemon, process)  # drain before the context's kill
    if not probe.ready:
        raise RuntimeError(f"daemon at {address} not ready: {probe.error}")
    return process, address, seconds


def stop_daemon(process) -> None:
    """Drain the daemon (SIGTERM) and reap it, so its peak RSS is counted."""

    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)


def service_workload(run: Run) -> None:
    from repro.service import ServiceEngine
    from repro.sim.engine import SerialRunner, SimEngine

    rounds: list[PlanRound] = []
    daemon_stats: list[dict] = []
    with contextlib.ExitStack() as stack:
        daemons, setup = [], []
        for index in range(run.setup_repeats):
            process, address, seconds = spawn_daemon(run, stack, f"daemon{index}")
            daemons.append((process, address))
            setup.append(seconds)
        for process, _ in daemons[:-1]:
            stop_daemon(process)
        daemons = daemons[-1:]

        def service_round() -> PlanRound:
            if daemons:
                process, address = daemons.pop()
            else:
                process, address, seconds = spawn_daemon(
                    run, stack, f"daemon{run.setup_repeats + len(rounds)}")
                setup.append(seconds)
            engine = ServiceEngine(address)
            try:
                result = plan_round(run, engine, lambda: engine, SERVICE_WARM_PASSES, "service")
                daemon_stats.append(engine.client.server_stats())
            finally:
                engine.close()
                stop_daemon(process)
            return result

        def once() -> float:
            rounds.append(service_round())
            return rounds[-1].cold_s + sum(rounds[-1].warm_s)

        repeat_within(run, once)
        setup_s = run.import_s + median(setup)
        report_plan(run, rounds, setup_s)
        run.metrics["peak_rss_mb"] = (peak_rss_mb(include_children=True), "MiB")

        if run.trace:
            def traced_run(tracer: Tracer) -> PlanRound:
                with tracer.span("bench.setup", "setup"):
                    daemons.append(spawn_daemon(run, stack, "traced")[:2])
                return service_round()

            tracer, traced, wall = run_traced(traced_run)
            compare(run, "traced plan differs from untraced", rounds[0].results, traced.results)

    # Service results must equal a local cold run of the same plan.
    plan = rounds[0].plan
    if plan is not None:
        local = SimEngine(runner=SerialRunner(trace_store=None))
        with first_plan(local) as captured:
            local.run(plan)
        _, local_results = plan_results(run, captured, "local reference")
        compare(run, "service result differs from local run", local_results, rounds[0].results)
    if run.trace:
        finish_trace(run, tracer, wall, traced.cold_s / rounds[0].cold_s,
                     list(rounds[0].results.values()), rounds[0], daemon_stats[0])


# ------------------------------------------------------------------- layers

#: Host-time layers: each reports ``<layer>.calls`` and/or ``<layer>.self_s``.
CALLS_AND_SELF = (
    "cpu.run", "memory.demand", "memory.prefetch", "vector.replay",
    "prefetch.stride", "prefetch.ghb", "programmable.advance", "programmable.snoop",
    "programmable.kernel", "programmable.compile", "compiler.configure",
    "workloads.emit", "trace_store.get", "trace_store.put", "sim.simulate",
    "engine.cache_get", "engine.cache_put",
)
SELF_ONLY = ("workloads.build", "engine.run", "engine.checkpoint", "eval.report",
             "eval.render", "service.run")

#: Name prefixes of the metrics each workload must read as zero: tripwires
#: against a workload that stops stressing what it claims.  On ``service``
#: the client must never fall back to simulating locally.
PREDICTED_ZERO = {
    "programmable": ("vector.", "prefetch.", "engine.", "trace_store.", "service."),
    "baseline": ("programmable.", "engine.", "trace_store.", "service."),
    "reproduce": ("service.",),
    "service": ("sim.simulate", "trace_store.", "engine.run", "engine.cache_get",
                "engine.cache_put", "engine.checkpoint"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def modelled_metrics(results: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-level statistics summed over every simulated point."""

    results = [r for r in results if r is not None]

    def total(*path: str) -> float:
        value = 0.0
        for result in results:
            node: Any = result
            for key in path:
                node = (node or {}).get(key)  # ``prefetcher`` is None without PPUs
            value += node or 0
        return value

    return {
        "cpu.ipc": (_ratio(total("instructions"), total("cycles")), "instr/cycle"),
        "memory.l1_read_hit_rate": (
            _ratio(total("hierarchy", "l1", "demand_read_hits"),
                   total("hierarchy", "l1", "demand_read_accesses")), "ratio"),
        "memory.l2_read_hit_rate": (
            _ratio(total("hierarchy", "l2", "demand_read_hits"),
                   total("hierarchy", "l2", "demand_read_accesses")), "ratio"),
        "memory.l1_prefetch_utilisation": (
            _ratio(total("hierarchy", "l1", "prefetch_used"),
                   total("hierarchy", "l1", "prefetch_fills")), "ratio"),
        "memory.dram_accesses": (total("hierarchy", "dram", "total_accesses"), "count"),
        "memory.tlb_walks": (total("hierarchy", "tlb", "walks"), "count"),
        "memory.dropped_prefetches": (total("hierarchy", "dropped_prefetches"), "count"),
        "programmable.events_executed": (total("prefetcher", "events_executed"), "count"),
        "programmable.observations_dropped": (
            total("prefetcher", "observations_dropped"), "count"),
        "programmable.prefetches_issued": (total("prefetcher", "prefetches_issued"), "count"),
        "programmable.ppu_instructions": (total("prefetcher", "ppu_instructions"), "count"),
    }


def finish_trace(run: Run, tracer: Tracer, wall: float, overhead: float, results: list[dict],
                 round_: Optional[PlanRound] = None, daemon: Optional[dict] = None) -> None:
    """Per-layer metrics, tracer self-checks and the predicted-zero tripwires."""

    layers = run.layers
    for layer in CALLS_AND_SELF:
        layers[f"{layer}.calls"] = (tracer.calls(layer), "count")
    for layer in CALLS_AND_SELF + SELF_ONLY:
        layers[f"{layer}.self_s"] = (tracer.self_s(layer), "s")
    layers.update(modelled_metrics(results))
    counts = tracer.counts
    events = layers["programmable.events_executed"][0]
    engine_self = sum(tracer.self_s(f"programmable.{part}")
                      for part in ("advance", "snoop", "kernel"))
    layers["cpu.ns_per_op"] = (_ratio(tracer.self_s("cpu.run") * 1e9, counts["cpu.ops"]), "ns")
    layers["programmable.ns_per_event"] = (_ratio(engine_self * 1e9, events), "ns")
    layers["vector.fallbacks"] = (counts["vector.fallbacks"], "count")
    layers["workloads.trace_ops"] = (counts["workloads.trace_ops"], "count")
    layers["trace_store.hit_ratio"] = (
        _ratio(counts["trace_store.hits"], tracer.calls("trace_store.get")), "ratio")
    cold = round_.engine_stats if round_ is not None else None
    warm = [s for s in round_.warm_stats if s is not None] if round_ is not None else []
    layers["engine.dedup_ratio"] = (
        _ratio(cold.deduplicated, cold.submitted) if cold else 0.0, "ratio")
    layers["engine.cache_hit_ratio"] = (
        _ratio(sum(s.cache_hits for s in warm), sum(s.unique for s in warm)), "ratio")
    layers["service.probe_ms"] = (
        _ratio(tracer.total_s("service.probe") * 1e3, tracer.calls("service.probe")), "ms")
    daemon = daemon or {}
    for name in ("executed", "memo_hits", "joined", "requeued"):
        layers[f"service.{name}"] = (daemon.get(name, 0), "count")
    layers["service.rejected"] = (
        daemon.get("rejected_quota", 0) + daemon.get("rejected_queue", 0), "count")
    layers["trace.overhead_ratio"] = (overhead, "ratio")

    # Self-checks: spans closed, no negative self time, self times add up.
    summed = tracer.self_sum()
    run.lines.append(f"traced wall       {wall:.4f} s; self times sum to {summed:.4f} s "
                     f"(tolerance {SELF_TIME_TOLERANCE:.0%})")
    if tracer.stack:
        run.check_failures.append(f"tracer: {len(tracer.stack)} spans left open")
    if abs(summed - wall) > SELF_TIME_TOLERANCE * wall:
        run.check_failures.append(f"tracer: self times {summed:.4f} s != wall {wall:.4f} s")
    negative = [key for key, rec in tracer.aggregate.items() if rec[2] < -1e-6]
    if negative:
        run.check_failures.append(f"tracer: negative self time in {negative}")
    zeros = [name for name in layers if name.startswith(PREDICTED_ZERO[run.workload])]
    nonzero = [name for name in zeros if layers[name][0] != 0]
    run.lines.append(f"predicted zeros   {len(zeros) - len(nonzero)} of {len(zeros)} read zero")
    for name in nonzero:
        run.check_failures.append(f"predicted zero is {layers[name][0]}: {name}")
    run.trace_dump = tracer.dump()


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "programmable": lambda run: simulation_workload(run, PROGRAMMABLE_MODES),
    "baseline": lambda run: simulation_workload(run, BASELINE_MODES),
    "reproduce": reproduce_workload,
    "service": service_workload,
}
