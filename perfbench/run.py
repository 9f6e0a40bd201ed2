#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up five times (each set-up: a fresh interpreter importing
the benchmark and the program, then the workload's own set-up; ``setup_s`` is
their median), then repeats passes over the workload's fixed job set until
the next pass would end after ``--seconds`` (at least one pass), and reports
the end-to-end metrics (host times scaled to the reference host speed, see
``perfbench/hostspeed.py``).  ``--trace 1`` runs one untraced pass and one
traced pass, checks that both produce the same result digest, reports the
per-layer metrics and the tracing overhead, and writes the job- and
phase-level spans to ``.perfbench/``.

Every pass's result digest must equal the first pass's and, for seeds
recorded in ``perfbench/reference.json``, the recorded digest.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every check passed, and 2 when
the program cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True,
        choices=("fig8_sweep", "redteam_probes", "service_cached"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="write this run's digest (and, traced, its counts) to reference.json",
    )
    args = parser.parse_args(argv)
    # The program from this checkout, and this package by its full name
    # (not the script directory, whose module names are generic).
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        entry for entry in sys.path if os.path.abspath(entry or ".") != HERE
    ]
    # One CPU for the benchmark and every process it starts (the service
    # child inherits it), so the host-speed kernel times the CPU the work
    # ran on and no run depends on how the two were placed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        from perfbench.bench import run
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed % (1 << 31), args.seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
