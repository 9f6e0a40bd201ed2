"""One benchmark run: timed (end-to-end metrics) or traced (per-layer).

See ``perfbench/run.py`` for the command line and ``perfbench/README.md``
for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from perfbench import metrics as tables
from perfbench.hostspeed import HostSpeed
from perfbench.layers import LayerProbe
from perfbench.tracer import Tracer
from perfbench.workloads import make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-ups per timed run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

Outcome = Tuple[int, int, Dict[str, Dict[str, object]], Dict[str, object]]


def load_reference() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def record_reference(workload: str, seed: int, entry: Dict[str, object]) -> None:
    reference = load_reference()
    reference.setdefault(workload, {}).setdefault(str(seed), {}).update(entry)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def fresh_import_seconds() -> float:
    """Host time of a fresh interpreter importing the benchmark's modules
    (and through them the program)."""
    path = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import perfbench.bench"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_digest(label: str, found: str, expected: Optional[str], problems: List[str]) -> int:
    """Count a digest mismatch as one failure."""
    if expected is not None and found != expected:
        problems.append(f"{label}: result digest {found[:16]} != {expected[:16]}")
        return 1
    return 0


def run(workload_name: str, seed: int, seconds: float, trace: bool, record: bool) -> int:
    """Run one workload, print the result line; returns the exit code."""
    reference = load_reference().get(workload_name, {}).get(str(seed), {})
    problems: List[str] = []
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORKDIR)
    workload = make_workload(workload_name, workdir, seed)
    try:
        if trace:
            outcome = run_traced(workload, seed, reference, problems)
        else:
            outcome = run_timed(workload, seed, seconds, reference, problems)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, values, entry = outcome
    if failed and not problems:
        problems.append(f"{failed} operations failed")
    if record and not problems:
        record_reference(workload_name, seed, entry)
    for problem in problems:
        print(f"perfbench: FAIL: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": values,
    }))
    return 1 if problems else 0


def run_timed(workload, seed: int, seconds: float, reference, problems: List[str]) -> Outcome:
    # Every host time is scaled to the reference host speed by the
    # calibration kernel interleaved with the work (perfbench/hostspeed.py).
    speed = HostSpeed()
    setups: List[float] = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        imported = fresh_import_seconds()
        start = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - start)
        speed.keep_up(setups[-1])

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(speed=speed))
        if time.perf_counter() + statistics.median(p.wall for p in passes) > deadline:
            break

    attempted = sum(p.jobs for p in passes)
    failed = sum(p.failed for p in passes)
    for index, result in enumerate(passes):
        problems.extend(result.errors)
        failed += check_digest(f"pass {index}", result.digest, passes[0].digest, problems)
        failed += check_digest(
            f"pass {index} vs reference", result.digest, reference.get("digest"), problems
        )

    # Every figure is taken per pass and reported as the median over passes,
    # so one slow pass (host contention) moves none of them.
    tails = [tables.tail_percentile(len(p.latencies)) for p in passes]
    sampled = [(p, tail) for p, tail in zip(passes, tails) if tail is not None]
    if len(sampled) < len(passes):
        problems.append("a pass completed too few jobs for a latency tail")

    def median_of(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    scale = speed.factor()
    raw_wall = statistics.median(p.wall for p in passes)
    values = {
        "setup_s": scale * statistics.median(setups),
        "wall_s": scale * raw_wall,
        "jobs_per_s": median_of(len(p.latencies) / p.wall for p in passes) / scale,
        "sim_requests_per_s": median_of(p.requests / p.wall for p in passes) / scale,
        "latency_p50_ms": scale * 1000.0 * median_of(
            statistics.median(p.latencies) for p, _ in sampled
        ),
        "latency_tail_ms": scale * 1000.0 * median_of(
            tables.percentile_value(p.latencies, tail) for p, tail in sampled
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"{workload.name} seed {seed}: {len(passes)} pass(es) of {passes[0].jobs} jobs, "
        f"tail = p{tails[0]}; set-ups {', '.join(f'{s:.3f}' for s in setups)}s and "
        f"pass {raw_wall:.3f}s unscaled; host-speed scale {scale:.3f} from "
        f"{len(speed.samples)} kernel samples; digest {passes[0].digest[:16]}"
    )
    measured = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in tables.END_TO_END
    }
    return attempted, failed, measured, {"digest": passes[0].digest}


def run_traced(workload, seed: int, reference, problems: List[str]) -> Outcome:
    tracer = Tracer()
    with tracer.phase("setup"):
        workload.setup()
    with tracer.phase("untraced_pass"):
        untraced = workload.run_pass()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        with tracer.phase("traced_pass"):
            traced = workload.run_pass(tracer)
    finally:
        probe.uninstall()

    attempted = untraced.jobs + traced.jobs
    failed = untraced.failed + traced.failed
    problems.extend(untraced.errors + traced.errors)
    failed += check_digest("traced pass", traced.digest, untraced.digest, problems)
    failed += check_digest(
        "untraced pass vs reference", untraced.digest, reference.get("digest"), problems
    )

    values = probe.metrics(traced.results, traced.service)
    values["trace.overhead_s"] = traced.wall - untraced.wall
    counts = {name: values[name] for name in tables.DETERMINISTIC}
    # The machine-independent gate: on a recorded seed every deterministic
    # count must repeat; each one that does not is named.
    recorded = reference.get("counts", {})
    drift = [
        f"{name} {recorded[name]} -> {counts[name]}"
        for name in tables.DETERMINISTIC
        if name in recorded and recorded[name] != counts[name]
    ]
    for line in drift:
        print(f"perfbench: count differs from reference.json: {line}", file=sys.stderr)

    spans_path = os.path.join(WORKDIR, f"spans-{workload.name}-seed{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.span_records(), handle)
    print(
        f"{workload.name} seed {seed}: tracing overhead "
        f"{values['trace.overhead_s']:.3f}s (untraced {untraced.wall:.3f}s, "
        f"traced {traced.wall:.3f}s); {len(tracer.spans)} spans in {spans_path}; "
        f"{len(drift)} count(s) differ from reference.json"
    )
    measured = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in tables.PER_LAYER
    }
    return attempted, failed, measured, {"digest": untraced.digest, "counts": counts}
