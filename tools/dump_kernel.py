#!/usr/bin/env python3
"""Print the compiled Python source of a workload's PPU kernels.

The kernel compiler (``repro.programmable.compiler``) turns each kernel into
a specialised Python closure; this tool shows exactly what was generated —
the debugging view for kernel authors.  For every kernel of the chosen
workload and configuration it prints the instruction listing's vital stats
(digest, instruction count, encoded bytes) followed by the generated source.

The ``manual`` mode shows the configuration the ``manual`` simulations
install: derived from the loop IR, or hand-written for the workloads that
say why in their ``derive_note``.  With ``--stage`` the tool instead prints
an intermediate of the loop-IR → manual-kernel derivation pipeline
(``repro.compiler.pipeline``): the raw loop IR, the post-analysis chains and
lowered pointer chases, the post-DCE/bounds configuration tables, or the
generated kernels as PPU disassembly.  See docs/compiler.md for a
walkthrough of the stages.

Examples::

    # All manual-mode kernels of the unionfind workload
    python tools/dump_kernel.py unionfind

    # One kernel, by name, from the pragma-generated configuration
    python tools/dump_kernel.py conjgrad --mode pragma --kernel cg_row_start

    # Pipeline intermediates: raw IR, chains, bounds/DCE, disassembly
    python tools/dump_kernel.py spmv --stage ir
    python tools/dump_kernel.py spmv --stage chains
    python tools/dump_kernel.py spmv --stage config
    python tools/dump_kernel.py spmv --stage kernels

    # List registered workloads
    python tools/dump_kernel.py --list
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.compiler import pipeline  # noqa: E402
from repro.errors import WorkloadError  # noqa: E402
from repro.programmable.compiler import generate_source, program_digest  # noqa: E402
from repro.workloads import build_workload, registry  # noqa: E402

#: How each dumpable mode resolves to a prefetcher configuration.
_MODES = {
    "manual": lambda workload: workload.manual_configuration(),
    "converted": lambda workload: workload.converted_configuration(),
    "pragma": lambda workload: workload.pragma_configuration(),
}

#: Derivation-pipeline intermediates, in pipeline order.
_STAGES = {
    "ir": "raw loop IR (arrays, flags, body, bindings)",
    "chains": "post-analysis: lowered pointer chases and event chains",
    "config": "post-DCE/bounds: filter ranges, streams, tags, globals",
    "kernels": "generated kernels as PPU disassembly",
}


def _dump_stage(workload, stage: str) -> int:
    loop, bindings = workload.loop_ir()
    derived = workload.derived_kernels()
    if stage == "ir":
        print(pipeline.format_loop(loop, bindings))
    elif stage == "chains":
        print(pipeline.format_chains(derived))
    elif stage == "config":
        print(pipeline.format_bounds(derived))
    else:  # kernels
        if not derived.derived:
            print(f"{workload.name}: derivation produced no kernels", file=sys.stderr)
            for source, reason in derived.failures:
                print(f"  {source}: {reason}", file=sys.stderr)
            return 2
        print(pipeline.format_kernels(derived.configuration), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload", nargs="?", help="registered workload name")
    parser.add_argument("--mode", default="manual", choices=sorted(_MODES),
                        help="which kernel configuration to dump (default: manual)")
    parser.add_argument("--kernel", default=None, metavar="NAME",
                        help="dump only the kernel with this name")
    parser.add_argument("--stage", default=None, choices=sorted(_STAGES),
                        help="dump a derivation-pipeline intermediate instead "
                             "of compiled closures: "
                             + "; ".join(f"{k} = {v}" for k, v in _STAGES.items()))
    parser.add_argument("--scale", default="tiny",
                        choices=["tiny", "small", "default"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--list", action="store_true", dest="list_workloads",
                        help="list registered workloads and exit")
    args = parser.parse_args(argv)

    if args.list_workloads:
        for name in registry.names():
            print(name)
        return 0
    if not args.workload:
        parser.error("a workload name is required (or --list)")

    if args.workload not in registry.names():
        print(f"unknown workload {args.workload!r}; try --list", file=sys.stderr)
        return 2

    workload = build_workload(args.workload, scale=args.scale, seed=args.seed)

    if args.stage is not None:
        try:
            return _dump_stage(workload, args.stage)
        except NotImplementedError:
            print(f"{args.workload} declares no loop IR", file=sys.stderr)
            return 2

    try:
        configuration = _MODES[args.mode](workload)
    except NotImplementedError:
        print(f"{args.workload} has no {args.mode} configuration", file=sys.stderr)
        return 2
    except WorkloadError as error:
        print(str(error), file=sys.stderr)
        return 2

    kernels = configuration.kernels
    if args.kernel is not None:
        if args.kernel not in kernels:
            print(
                f"kernel {args.kernel!r} not in {sorted(kernels)}", file=sys.stderr
            )
            return 2
        kernels = {args.kernel: kernels[args.kernel]}
    if not kernels:
        print(f"{args.workload}/{args.mode} registers no kernels", file=sys.stderr)
        return 2

    for index, (name, program) in enumerate(kernels.items()):
        if index:
            print()
        print(
            f"# kernel {name!r} — {len(program.instructions)} instructions, "
            f"{program.size_bytes} bytes, digest {program_digest(program)[:12]}"
        )
        print(generate_source(program), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
