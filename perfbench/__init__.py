"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
correctness checks.
"""
