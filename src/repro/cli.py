"""The ``repro`` console entry point.

Subcommands:

``repro serve``
    Run the long-lived simulation service daemon (see
    :mod:`repro.service.server` and ``docs/service.md``).  All arguments
    after ``serve`` are forwarded to the daemon's own parser::

        repro serve --workers 8 --cache ~/.cache/repro-results --port 7421

``repro version``
    Print package version, protocol version and code fingerprint — the
    fingerprint is the content hash that keys every cached result, so two
    checkouts printing the same value share caches.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional


def worker_count(text: str) -> int:
    """``argparse`` type of the worker-count options: a whole number of at least 1.

    Used by ``repro serve --workers`` and the example drivers' ``--jobs``.
    """

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Forward everything after `serve` verbatim to the daemon's own parser
    # (argparse.REMAINDER cannot: it refuses leading options like --help).
    if arguments and arguments[0] == "serve":
        from .service.server import main as serve_main

        return serve_main(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programmable-prefetcher reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("serve", help="run the simulation service daemon (repro serve --help)")
    sub.add_parser("version", help="print version and code fingerprint")

    args = parser.parse_args(arguments)
    if args.command == "version":
        from . import __version__
        from .service.protocol import PROTOCOL_VERSION
        from .sim.engine.request import code_fingerprint

        print(f"repro {__version__}")
        print(f"service protocol {PROTOCOL_VERSION}")
        print(f"code fingerprint {code_fingerprint()}")
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
