"""The three benchmark workloads.

Each workload has a set-up (timed, repeated), a *pass* over a fixed job set
(the unit the timed phase repeats and the traced run wraps) and a
tear-down.  The workload seed is the only input; everything else is fixed.

* ``fig8_sweep`` -- a cold serial ``SweepEngine.run_jobs`` over the paper's
  Fig. 8 set: ``FIG8_MECHANISMS`` at N_RH in {1024, 128, 20} on the
  ``default_mixes(1)`` 4-core mix, plus its baseline and alone jobs, on a
  fresh on-disk cache every pass.
* ``redteam_probes`` -- every ``default_search_specs()`` attack spec against
  all 12 mechanisms at N_RH = 20, oracle-observed, run serially through the
  engine on a fresh cache every pass.
* ``service_cached`` -- a closed loop of 2 client threads against
  ``repro serve`` in a child process, on the loopback interface, whose
  on-disk cache the set-up warmed: each client submits sweep specs and
  watches each job to ``done`` over WebSocket.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from perfbench.hostspeed import HostSpeed
from perfbench.metrics import digest
from perfbench.tracer import Tracer
from repro.attacks.patterns import default_search_specs
from repro.attacks.redteam import RedTeamEngine
from repro.core.factory import MECHANISM_NAMES
from repro.experiments.cache import ResultCache, result_to_dict
from repro.experiments.figures import FIG8_MECHANISMS
from repro.experiments.runner import default_mixes
from repro.experiments.sweep import SimJob, SweepEngine, SweepSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.specs import parse_submission
from repro.system.metrics import SimulationResult

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fig. 8 sweep points (the scaled-down benchmark set of the paper figure).
FIG8_NRH = (1024, 128, 20)
FIG8_ACCESSES = 2500

#: Red-team probe threshold.
REDTEAM_NRH = 20

#: Service load: closed loop of this many clients (= cores of the reference
#: machine), each making this many sequential submissions per pass.
SERVICE_CLIENTS = 2
SERVICE_JOBS_PER_CLIENT = 60
#: One sweep spec per mechanism; clients cycle through them.
SERVICE_MECHANISMS = ("Chronus", "PRAC-4", "PRFM", "Graphene", "Hydra", "PARA")
SERVICE_NRH = 128
SERVICE_ACCESSES = 200
#: Per-watch timeout; a job that does not finish in it counts as failed.
SERVICE_TIMEOUT_S = 60.0


def simulated_requests(result: SimulationResult) -> int:
    stats = result.controller_stats
    return stats["reads_served"] + stats["writes_served"]


def results_digest(results: Dict[str, SimulationResult]) -> str:
    """Digest of every result, in job-key order."""
    return digest([key, result_to_dict(results[key])] for key in sorted(results))


def expected_summary(job: SimJob, result: SimulationResult) -> Dict[str, object]:
    """The fields a streamed job summary must carry, taken from the result."""
    return {
        "key": job.key,
        "workload": result.workload,
        "mechanism": result.mechanism,
        "nrh": result.nrh,
        "cycles": result.cycles,
        "is_secure": result.is_secure,
        "energy_nj": result.energy_nj,
    }


def summaries_match(streamed: object, expected: List[Dict[str, object]]) -> bool:
    """Every expected field is streamed with its value (extra fields pass)."""
    if not isinstance(streamed, list) or len(streamed) != len(expected):
        return False
    return all(
        isinstance(item, dict) and all(item.get(k) == v for k, v in want.items())
        for item, want in zip(streamed, expected)
    )


@dataclass
class PassResult:
    """What one pass did and how long it took."""

    wall: float
    jobs: int
    failed: int
    #: Host time per completed job, seconds.
    latencies: List[float]
    #: Simulated memory requests in the delivered results.
    requests: int
    digest: str
    #: Results simulated in the pass (job key -> result).
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    #: Client-side ``service.*`` per-layer figures.
    service: Dict[str, float] = field(default_factory=dict)
    #: Human-readable reasons of the failures.
    errors: List[str] = field(default_factory=list)


class SweepWorkload:
    """A cold serial engine sweep over a fixed job list."""

    name = ""

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.jobs: List[SimJob] = []

    def make_jobs(self) -> List[SimJob]:
        raise NotImplementedError

    def setup(self) -> None:
        self.jobs = self.make_jobs()

    def teardown(self) -> None:
        self.jobs = []

    def run_pass(
        self, tracer: Optional[Tracer] = None, speed: Optional[HostSpeed] = None
    ) -> PassResult:
        """One cold pass.  With ``speed``, the host-speed kernel runs after
        every job; its time is not part of the pass's wall time."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        latencies: List[float] = []
        calibrating = [0.0]

        def progress(event: Dict[str, object]) -> None:
            if event["event"] == "job":
                latencies.append(float(event["seconds"]))
                if speed is not None:
                    calibrating[0] += speed.keep_up(latencies[-1])

        try:
            engine = SweepEngine(cache=ResultCache(cache_dir), workers=0)
            start = time.perf_counter()
            try:
                results = engine.run_jobs(self.jobs, progress=progress)
            except Exception:  # noqa: BLE001 -- a failing job fails the pass
                wall = time.perf_counter() - start - calibrating[0]
                done = len(latencies)
                return PassResult(
                    wall, done, len(self.jobs) - done, latencies, 0, "",
                    errors=[traceback.format_exc()],
                )
            wall = time.perf_counter() - start - calibrating[0]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        failed = 0
        errors = []
        if engine.executed_jobs != len(self.jobs):
            failed = len(self.jobs) - engine.executed_jobs
            errors.append(
                f"{engine.executed_jobs} of {len(self.jobs)} jobs executed on a cold cache"
            )
        return PassResult(
            wall=wall,
            jobs=len(self.jobs),
            failed=failed,
            latencies=latencies,
            requests=sum(simulated_requests(r) for r in results.values()),
            digest=results_digest(results),
            results=results,
            errors=errors,
        )


class Fig8Sweep(SweepWorkload):
    name = "fig8_sweep"

    def make_jobs(self) -> List[SimJob]:
        mix = default_mixes(1)[0].applications
        spec = SweepSpec(
            mechanisms=FIG8_MECHANISMS,
            nrh_values=FIG8_NRH,
            mixes=(mix,),
            accesses_per_core=FIG8_ACCESSES,
            seed=self.seed,
        )
        return spec.expand()


class RedTeamProbes(SweepWorkload):
    name = "redteam_probes"

    def make_jobs(self) -> List[SimJob]:
        specs = default_search_specs(seed=self.seed)
        redteam = RedTeamEngine(seed=self.seed)
        return [
            job
            for mechanism in MECHANISM_NAMES
            for job in redteam.probe_jobs(mechanism, [REDTEAM_NRH], specs)
        ]


# --------------------------------------------------------------------------- #
# Service
# --------------------------------------------------------------------------- #

class ServerProcess:
    """``repro serve`` of this checkout in a child process (via
    ``perfbench/serve.py``), on a free loopback port."""

    def __init__(self, cache_dir: str, trace_out: Optional[str] = None) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += [
            "--", "--port", "0", "--cache-dir", cache_dir, "--workers", "0",
            # Admission must never be what the closed loop measures: no
            # client ever has more than one job in flight.
            "--queue-depth", str(4 * SERVICE_CLIENTS), "--client-cap", "2",
            "--rate", "1000000", "--burst", "1000000",
        ]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port, timeout=SERVICE_TIMEOUT_S)

    def executed_jobs(self) -> int:
        return int(self.client.stats()["engine"]["executed_jobs"])

    def close(self) -> None:
        """Ask the service to stop and wait for the process to end."""
        try:
            self.client.shutdown()
            self.process.wait(timeout=60)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


@dataclass
class _ClientLog:
    latencies: List[float] = field(default_factory=list)
    submit: List[float] = field(default_factory=list)
    watch: List[float] = field(default_factory=list)
    engine: List[float] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    requests: int = 0
    failed: int = 0
    rejected: int = 0
    errors: List[str] = field(default_factory=list)
    #: (spec index, streamed summaries) of every completed job, in order.
    streamed: List[object] = field(default_factory=list)
    spans: List[tuple] = field(default_factory=list)


class ServiceCached:
    """Closed-loop clients against a service serving only cached results."""

    name = "service_cached"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.cache_dir: Optional[str] = None
        self.server: Optional[ServerProcess] = None
        self.specs: List[Dict[str, object]] = []
        self.expected: List[List[Dict[str, object]]] = []
        self.requests_by_spec: List[int] = []
        self.warm_digest = ""

    def setup(self) -> None:
        """Warm an on-disk cache with every spec's jobs, then boot."""
        self.specs = [
            {
                "mechanisms": [mechanism],
                "nrh": [SERVICE_NRH],
                "num_mixes": 1,
                "accesses": SERVICE_ACCESSES,
                "seed": self.seed,
            }
            for mechanism in SERVICE_MECHANISMS
        ]
        job_lists = [
            parse_submission({"kind": "sweep", "spec": spec}).jobs for spec in self.specs
        ]
        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=self.workdir)
        warm_engine = SweepEngine(cache=ResultCache(self.cache_dir), workers=0)
        results = warm_engine.run_jobs([job for jobs in job_lists for job in jobs])
        self.warm_digest = results_digest(results)
        # What the service must stream: fields of the in-process results,
        # through the same JSON encoding the wire uses.
        self.expected = [
            json.loads(json.dumps([expected_summary(job, results[job.key]) for job in jobs]))
            for jobs in job_lists
        ]
        self.requests_by_spec = [
            sum(simulated_requests(results[job.key]) for job in jobs) for jobs in job_lists
        ]
        self.server = ServerProcess(self.cache_dir)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def _client(self, index: int, log: _ClientLog) -> None:
        assert self.server is not None
        client = ServiceClient(
            port=self.server.port, client_id=f"perfbench-{index}", timeout=SERVICE_TIMEOUT_S
        )
        for round_index in range(SERVICE_JOBS_PER_CLIENT):
            spec_index = (index * len(self.specs) // SERVICE_CLIENTS + round_index) % len(
                self.specs
            )
            start = time.perf_counter()
            try:
                job_id = str(client.submit(self.specs[spec_index])["job"])
                submitted = time.perf_counter()
                final: Dict[str, object] = {}
                report: Dict[str, object] = {}
                events = 0
                for event in client.watch(job_id, timeout=SERVICE_TIMEOUT_S):
                    events += 1
                    if event.get("event") == "report":
                        report = dict(event["report"])
                    if event.get("event") == "state" and event.get("state") in (
                        "done", "failed", "cancelled"
                    ):
                        final = event
                        break
                end = time.perf_counter()
            except ServiceError as error:
                log.failed += 1
                if error.status == 429:
                    log.rejected += 1
                log.errors.append(f"client {index}: HTTP {error.status}: {error}")
                continue
            except (OSError, TimeoutError, ValueError) as error:
                log.failed += 1
                log.errors.append(f"client {index}: {type(error).__name__}: {error}")
                continue
            problem = None
            result = final.get("result") if final else None
            if final.get("state") != "done" or not isinstance(result, dict):
                problem = f"job {job_id} ended {final.get('state')!r}"
            elif not summaries_match(result.get("results"), self.expected[spec_index]):
                problem = f"job {job_id}: streamed results differ from the in-process results"
            elif report.get("executed_jobs") != 0:
                problem = f"job {job_id}: executed {report.get('executed_jobs')} jobs"
            if problem is not None:
                log.failed += 1
                log.errors.append(problem)
                continue
            log.latencies.append(end - start)
            log.submit.append(submitted - start)
            log.watch.append(end - submitted)
            log.engine.append(float(report["wall_seconds"]))
            log.events.append(events)
            log.requests += self.requests_by_spec[spec_index]
            log.streamed.append([spec_index, result["results"]])
            log.spans.append((job_id, start, submitted, end))

    def run_pass(
        self, tracer: Optional[Tracer] = None, speed: Optional[HostSpeed] = None
    ) -> PassResult:
        """One round of every client's submissions.  With ``speed``, the
        host-speed kernel runs after the round, while no client is active.

        Traced, the round runs against a fresh service process started with
        the layer probe installed; its aggregates join ``tracer``'s.
        """
        if tracer is None:
            result = self._round(None)
            if speed is not None:
                speed.keep_up(result.wall)
            return result
        assert self.server is not None and self.cache_dir is not None
        self.server.close()
        trace_out = os.path.join(self.workdir, "service-trace.json")
        self.server = ServerProcess(self.cache_dir, trace_out=trace_out)
        try:
            return self._round(tracer)
        finally:
            self.server.close()
            self.server = None
            with open(trace_out, encoding="utf-8") as handle:
                tracer.merge_stats(json.load(handle))

    def _round(self, tracer: Optional[Tracer]) -> PassResult:
        assert self.server is not None
        logs = [_ClientLog() for _ in range(SERVICE_CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(index, log), name=f"perfbench-client-{index}")
            for index, log in enumerate(logs)
        ]
        executed_before = self.server.executed_jobs()
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SERVICE_JOBS_PER_CLIENT * SERVICE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        errors = [error for log in logs for error in log.errors]
        failed = sum(log.failed for log in logs)
        executed = self.server.executed_jobs() - executed_before
        if executed:
            failed += 1
            errors.append(f"the timed phase executed {executed} jobs; expected 0")
        if tracer is not None:
            for log in logs:
                for job_id, begin, submitted, end in log.spans:
                    span = tracer.record("service.job", begin, end, job=job_id)
                    tracer.record("service.submit", begin, submitted, span, job_id)
                    tracer.record("service.watch", submitted, end, span, job_id)
        latencies = [value for log in logs for value in log.latencies]

        def median_ms(values: Sequence[float]) -> float:
            ordered = sorted(values)
            return 1000.0 * ordered[len(ordered) // 2] if ordered else 0.0

        events = [value for log in logs for value in log.events]
        service = {
            "service.submit_ms": median_ms([v for log in logs for v in log.submit]),
            "service.watch_ms": median_ms([v for log in logs for v in log.watch]),
            "service.engine_ms": median_ms([v for log in logs for v in log.engine]),
            "service.events_per_job": sum(events) / len(events) if events else 0.0,
            "service.rejected": sum(log.rejected for log in logs),
        }
        return PassResult(
            wall=wall,
            jobs=SERVICE_CLIENTS * SERVICE_JOBS_PER_CLIENT,
            failed=failed,
            latencies=latencies,
            requests=sum(log.requests for log in logs),
            # The streamed results, per client in submission order, plus the
            # digest of the full results the set-up simulated.
            digest=digest([self.warm_digest] + [log.streamed for log in logs]),
            service=service,
            errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (Fig8Sweep, RedTeamProbes, ServiceCached)}


def make_workload(name: str, workdir: str, seed: int):
    return WORKLOADS[name](workdir, seed)
