"""Traced stand-in for ``python -m polekit.cli``.

Usage: ``cli_traced.py <stats.json> <command> --config <path> [--out ...]``

Imports polekit, wraps its public functions (see ``tracing``), runs
``polekit.cli.main`` on the remaining arguments inside one span, and writes
the folded per-name totals to ``stats.json`` for the parent to merge.
"""

from __future__ import annotations

import json
import sys

import polekit
import polekit.cli

from tracing import Tracer


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(polekit)
    try:
        status = tracer.span("bench.op", polekit.cli.main, cli_args)
    finally:
        tracer.uninstall()
    tracer.fold()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.export(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
