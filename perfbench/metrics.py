"""Metric tables, the tail-percentile helper and the result digest.

The tables here are the single source of the metric names, units and
better-directions; ``BENCHMARK.json`` lists the same metrics (a test pins
the two together).  Every per-layer metric names the end-to-end metric it
should move and on which workload.

The simulator has not been validated against real DRAM hardware, so the
benchmark reports no accuracy figure: it pins the simulated statistics
exactly (result digests and deterministic counts) instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

FIG8 = "fig8_sweep"
REDTEAM = "redteam_probes"
SERVICE = "service_cached"
WORKLOADS = (FIG8, REDTEAM, SERVICE)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: the regression bound (share of the parent's median).
    #: Per-layer: None.
    bound: Optional[float] = None
    #: Per-layer: which end-to-end metric it should move, on which workload.
    moves: str = ""


#: Every timing is taken per pass (one pass = the workload's fixed job set)
#: and reported as the median over the run's passes.  Every host time is
#: scaled to the reference host speed (perfbench/hostspeed.py), because the
#: speed of the reference machine (2 shared vCPUs) drifts by 15-30% over
#: seconds to minutes.
END_TO_END: Tuple[Metric, ...] = (
    # Median of five set-ups, each a fresh interpreter's import of the
    # benchmark and the program plus job expansion, cache directories and,
    # for the service, its boot and the cache warm-up.
    Metric("setup_s", "s", "lower", 0.25),
    # Host time of one pass.
    Metric("wall_s", "s", "lower", 0.25),
    # Completed jobs per host second of a pass.
    Metric("jobs_per_s", "jobs/s", "higher", 0.25),
    # Simulated memory requests (reads + writes, all channels) in the
    # results a pass delivers, per host second of the pass.
    Metric("sim_requests_per_s", "requests/s", "higher", 0.25),
    # Per-job host time: engine job time for the sweeps, submit-to-done
    # for the service.
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    # The highest percentile (at most p90) with at least ten of the pass's
    # jobs beyond it; the run prints which percentile.
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
)

_BOTH = f"wall_s on {FIG8} and {REDTEAM}"

PER_LAYER: Tuple[Metric, ...] = (
    Metric("trace.overhead_s", "s", "lower", moves="none (traced minus untraced wall time)"),
    Metric("workloads.build_traces.s", "s", "lower", moves=f"wall_s on {FIG8}"),
    Metric("attacks.compile.s", "s", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("attacks.oracle.on_activate.calls", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("attacks.oracle.self_s", "s", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("system.construct.s", "s", "lower", moves=f"{_BOTH} (more on {REDTEAM})"),
    Metric("system.run.self_s", "s", "lower", moves=_BOTH),
    Metric("system.result.s", "s", "lower", moves=_BOTH),
    Metric("system.sim_cycles", "cycles", "lower", moves=_BOTH),
    Metric("system.skip_ratio", "ratio", "higher", moves=_BOTH),
    Metric("cpu.try_issue.calls", "count", "lower", moves=f"wall_s and sim_requests_per_s on {FIG8}"),
    Metric("cpu.try_issue.self_s", "s", "lower", moves=f"wall_s and sim_requests_per_s on {FIG8}"),
    Metric("cpu.try_issue.issue_ratio", "ratio", "higher", moves=f"wall_s and sim_requests_per_s on {FIG8}"),
    Metric("cpu.notify_completion.calls", "count", "lower", moves=f"wall_s and sim_requests_per_s on {FIG8}"),
    Metric("cpu.llc_miss_rate", "ratio", "lower", moves=f"wall_s and sim_requests_per_s on {FIG8}"),
    Metric("controller.router_tick.calls", "count", "lower", moves=_BOTH),
    Metric("controller.router_tick.self_s", "s", "lower", moves=_BOTH),
    Metric("controller.tick.calls", "count", "lower", moves=_BOTH),
    Metric("controller.tick.self_s", "s", "lower", moves=_BOTH),
    Metric("controller.tick.issue_ratio", "ratio", "higher", moves=_BOTH),
    Metric("controller.ticks_per_request", "ratio", "lower", moves=_BOTH),
    Metric("controller.enqueue.calls", "count", "lower", moves=f"wall_s on {FIG8}"),
    Metric("controller.enqueue.rejected", "count", "lower", moves=f"wall_s on {FIG8}"),
    Metric("controller.drain.calls", "count", "lower", moves=_BOTH),
    Metric("controller.row_hit_rate", "ratio", "higher", moves=_BOTH),
    Metric("dram.act.calls", "count", "lower", moves=_BOTH),
    Metric("dram.pre.calls", "count", "lower", moves=_BOTH),
    Metric("dram.rd.calls", "count", "lower", moves=_BOTH),
    Metric("dram.wr.calls", "count", "lower", moves=_BOTH),
    Metric("dram.ref.calls", "count", "lower", moves=_BOTH),
    Metric("dram.rfm.calls", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("dram.vref.calls", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("dram.cmd.self_s", "s", "lower", moves=_BOTH),
    Metric("dram.can.calls", "count", "lower", moves=_BOTH),
    Metric("dram.can.true_ratio", "ratio", "higher", moves=_BOTH),
    Metric("core.on_activate.calls", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.on_activate.self_s", "s", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.on_precharge.self_s", "s", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.on_rfm.calls", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.on_rfm.self_s", "s", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.backoffs", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.rfms", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("core.preventive_rows", "count", "lower", moves=f"wall_s on {REDTEAM}"),
    Metric("experiments.cache.get.calls", "count", "lower", moves=f"latency_p50_ms on {SERVICE}"),
    Metric("experiments.cache.get.s", "s", "lower", moves=f"latency_p50_ms on {SERVICE}"),
    Metric("experiments.cache.put.calls", "count", "lower", moves=f"wall_s on {FIG8}"),
    Metric("experiments.cache.put.s", "s", "lower", moves=f"wall_s on {FIG8}"),
    Metric("experiments.cache.hit_rate", "ratio", "higher", moves=f"latency_p50_ms on {SERVICE}"),
    Metric("experiments.engine.self_s", "s", "lower", moves=f"wall_s on {FIG8}; latency_p50_ms on {SERVICE}"),
    Metric("service.submit_ms", "ms", "lower", moves=f"latency_p50_ms and jobs_per_s on {SERVICE}"),
    Metric("service.watch_ms", "ms", "lower", moves=f"latency_p50_ms and jobs_per_s on {SERVICE}"),
    Metric("service.engine_ms", "ms", "lower", moves=f"latency_p50_ms and latency_tail_ms on {SERVICE}"),
    Metric("service.events_per_job", "count", "lower", moves=f"latency_p50_ms on {SERVICE}"),
    Metric("service.rejected", "count", "lower", moves=f"jobs_per_s on {SERVICE}"),
)

#: Per-layer metrics that count deterministic work: they must repeat
#: exactly between runs of the same code on the same seed.
DETERMINISTIC = tuple(
    metric.name
    for metric in PER_LAYER
    if metric.name.endswith(".calls")
    or metric.name in (
        "controller.enqueue.rejected",
        "system.sim_cycles",
        "core.backoffs",
        "core.rfms",
        "core.preventive_rows",
    )
)


def tail_percentile(samples: int, beyond: int = 10, highest: int = 90) -> Optional[int]:
    """The highest whole percentile, at most ``highest``, that leaves at
    least ``beyond`` samples above its nearest-rank position (None if even
    the first percentile does not)."""
    for percentile in range(highest, 0, -1):
        rank = math.ceil(percentile * samples / 100)
        if samples - rank >= beyond:
            return percentile
    return None


def percentile_value(values: Sequence[float], percentile: int) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1]


def digest(items: Iterable[object]) -> str:
    """SHA-256 of the canonical JSON encoding of ``items`` (in order)."""
    canonical = json.dumps(list(items), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

