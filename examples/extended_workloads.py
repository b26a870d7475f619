#!/usr/bin/env python3
"""Compare the off-paper workloads under every prefetching scheme.

Runs the extended-workloads driver: each workload registered without the
paper-reference flag (BFS, SpMV, union-find out of the box) is simulated
with no prefetching, the stride prefetcher, the GHB prefetcher and the
programmable prefetcher running its manual PPU kernels.  All points flow
through one deduplicated batch-engine plan, spread over one worker process
per CPU this process may use (``--jobs N`` sets the count, ``--jobs 1``
runs in-process); ``--cache DIR`` makes repeated runs free.

Usage::

    python examples/extended_workloads.py --scale small
    python examples/extended_workloads.py --scale tiny --jobs 1 --cache .sim-cache
"""

import argparse

from repro.cli import worker_count
from repro.eval.extended import extended_table, run_extended
from repro.eval.report import build_engine
from repro.eval.table import render_tables
from repro.workloads import registry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "default"],
                        help="workload scale (default: small)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help=f"workload names (default: {registry.extended_names()})")
    parser.add_argument("--jobs", type=worker_count, default=None, metavar="N",
                        help="worker processes (default: one per CPU this process may "
                             "use; 1 runs in-process)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="persistent result-cache directory")
    args = parser.parse_args()

    engine = build_engine(workers=args.jobs, cache_dir=args.cache)
    data = run_extended(workloads=args.workloads, scale=args.scale, engine=engine)
    print(render_tables([extended_table(data)]))


if __name__ == "__main__":
    main()
