#!/usr/bin/env python3
"""Reproduce the paper's evaluation and (optionally) write EXPERIMENTS.md.

Runs every experiment of Section 7 — Figures 7, 8, 10, 11 and the extra
memory-traffic analysis, plus Tables 1 and 2 — and prints the report once:
one Markdown table per figure, with the paper's reading beside each measured
value, then the batch-engine statistics.  ``--write-experiments`` also
writes the report to a file.  The Figure 9 sweeps are included with
``--figure9`` (they simulate dozens of extra configurations, so they are
optional for quick runs).

All simulations are declared as one shared batch-engine plan, so common
points (every figure's no-prefetch baselines, the Figure 9 reference runs)
are simulated exactly once.  The plan runs on one worker process per CPU
this process may use (``--jobs N`` sets the count, ``--jobs 1`` runs
in-process), and ``--cache DIR`` persists results so a repeated run
simulates nothing.

Long sweeps are durable: ``--checkpoint`` records each completed request in
a run manifest, and after a crash or ``kill -9`` the same command with
``--resume`` executes only the missing requests (see docs/resilience.md).
``--deadline`` bounds the run; the exit code is nonzero when any request
failed, with the failure labels printed.

Usage::

    python examples/reproduce_paper.py --scale small
    python examples/reproduce_paper.py --scale small --figure9 \\
        --trace-store off --write-experiments   # regenerate EXPERIMENTS.md
    python examples/reproduce_paper.py --scale default --cache .sim-cache \\
        --checkpoint .sim-ckpt --resume   # after an interrupted run
"""

import argparse

from repro.cli import worker_count
from repro.eval.report import build_engine, failure_exit_code, render_markdown, run_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "default"],
                        help="workload scale (default: small)")
    parser.add_argument("--figure9", action="store_true",
                        help="also run the PPU frequency/count sweeps (slow)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of workloads to run (default: all eight)")
    parser.add_argument("--jobs", type=worker_count, default=None, metavar="N",
                        help="worker processes (default: one per CPU this process may "
                             "use; 1 runs in-process)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="persistent result-cache directory (warm reruns simulate nothing)")
    parser.add_argument("--trace-store", metavar="DIR|off", default=None,
                        help="trace-artifact store directory, or 'off' to disable the "
                             "tier (default: $REPRO_TRACE_STORE, falling back to the "
                             "per-user cache directory)")
    parser.add_argument("--service", metavar="ADDR", default=None,
                        help="submit simulations to a running 'repro serve' daemon at "
                             "ADDR (host:port or unix:/path) instead of simulating "
                             "locally; --deadline is forwarded, while "
                             "--jobs, --cache, --trace-store, --checkpoint and "
                             "--resume are refused (set workers, cache and trace "
                             "store on 'repro serve' instead)")
    parser.add_argument("--checkpoint", metavar="DIR", nargs="?", const="", default=None,
                        help="record completed requests in a run manifest under DIR "
                             "(default: $REPRO_CHECKPOINT_DIR or the per-user cache); "
                             "an interrupted run restarts with --resume")
    parser.add_argument("--resume", action="store_true",
                        help="replay the previous run's checkpoint manifest against the "
                             "result cache and execute only the missing requests "
                             "(implies --checkpoint)")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="overall simulation budget; requests past it fail with a "
                             "retryable label instead of running (resume retries them)")
    parser.add_argument("--write-experiments", metavar="PATH", nargs="?",
                        const="EXPERIMENTS.md", default=None,
                        help="write the Markdown report to PATH (default EXPERIMENTS.md)")
    args = parser.parse_args()

    checkpoint_dir = args.checkpoint
    if checkpoint_dir == "":  # bare --checkpoint: use the default directory
        from repro.sim.engine import default_checkpoint_dir

        checkpoint_dir = str(default_checkpoint_dir())
    try:
        engine = build_engine(workers=args.jobs, cache_dir=args.cache,
                              trace_store_dir=args.trace_store, service=args.service,
                              checkpoint_dir=checkpoint_dir, resume=args.resume,
                              deadline=args.deadline)
    except ValueError as error:
        parser.error(str(error))
    report = run_report(
        workloads=args.workloads,
        scale=args.scale,
        include_figure9=args.figure9,
        engine=engine,
    )
    markdown = render_markdown(report)
    print(markdown)

    stats = report.engine_stats
    if stats is not None:
        print()
        print("Batch-engine statistics for the shared plan:")
        print(f"  submitted:        {stats.submitted}")
        print(f"  unique points:    {stats.unique}")
        print(f"  deduplicated:     {stats.deduplicated}")
        print(f"  cache hits:       {stats.cache_hits}")
        print(f"  simulated:        {stats.executed} ({stats.unavailable} unavailable)")
        print(f"  failed:           {stats.failed}")
        if stats.resumed:
            print(f"  resumed:          {stats.resumed} (from checkpoint manifest)")
        if stats.requeues or stats.hung_killed:
            print(f"  requeued chunks:  {stats.requeues} "
                  f"({stats.hung_killed} hung workers killed)")
        if stats.expired:
            print(f"  deadline-expired: {stats.expired}")
        print(f"  traces:           {stats.trace_hits} warm, {stats.trace_built} emitted "
              f"({stats.trace_stored} stored)")
        print(f"  runner:           {stats.runner}")
        for label, count in sorted(stats.failures.items()):
            suffix = f" (×{count})" if count > 1 else ""
            print(f"  FAILED: {label}{suffix}")

    if args.write_experiments:
        with open(args.write_experiments, "w", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
        print(f"\nWrote {args.write_experiments}")

    return failure_exit_code(report.engine_stats)


if __name__ == "__main__":
    raise SystemExit(main())
