#!/usr/bin/env python3
"""Run the simulation service for the ``service_cached`` workload.

    python3 perfbench/serve.py [--trace-out FILE] -- <python -m repro serve arguments>

Runs ``repro serve`` of this checkout in this process.  With ``--trace-out``
the layer probe (:mod:`perfbench.layers`) is installed before the service
starts, and its aggregates are written to FILE as JSON when the service
stops.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the service, optionally traced.")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        entry for entry in sys.path if os.path.abspath(entry or ".") != HERE
    ]
    from perfbench.layers import LayerProbe
    from perfbench.tracer import Tracer
    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(["serve", *serve_args])
    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        probe.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export_stats(), handle)


if __name__ == "__main__":
    sys.exit(main())
