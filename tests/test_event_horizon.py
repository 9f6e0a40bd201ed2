"""Event-horizon engine fidelity tests.

The system simulator is event-driven in time: ``run()`` skips to the exact
minimum of every component's next-event hint.  These tests pin the two
properties that make the skipping *safe*:

1. **Determinism harness** -- the event-driven path produces byte-identical
   :class:`~repro.system.metrics.SimulationResult` payloads to the
   cycle-stepped reference path (``strict_tick=True``) for every mechanism
   on one and two channels, for N_RH = 20 attack probes where back-offs,
   RFMs and preventive refreshes actually fire, for write-heavy traffic
   that flips the write-drain hysteresis, and for queues small enough that
   cores wait for space.  A wake hint that fires late shows up here as a
   payload mismatch.

2. **Refresh fidelity** -- a time skip can never jump past a tREFI boundary:
   at every observed cycle the per-rank postponed-REF debt stays within the
   DDR5 postpone budget (+1 for the boundary that may land while an urgent
   REF drains its rank), even on skip-heavy idle workloads.
"""

import json

import pytest

from repro.attacks.oracle import DisturbanceOracle
from repro.attacks.patterns import AttackSpec
from repro.attacks.redteam import RedTeamEngine
from repro.controller.address_mapping import mop_mapping
from repro.controller.controller import FAR_FUTURE, MemoryController
from repro.controller.request import MemoryRequest, RequestType
from repro.controller.router import ChannelRouter
from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.device import DramDevice
from repro.dram.organization import DramAddress, DramOrganization
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import ddr5_3200an
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import SystemSimulator, simulate

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestStrictTickDeterminism:
    """Event-driven time skipping must not change any simulated number."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_event_path_matches_strict_tick(self, mechanism, channels):
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
        event = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        strict = simulate(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            strict_tick=True,
        )
        assert _payload(event) == _payload(strict)

    def test_event_path_actually_skips(self):
        """The equality above is meaningful: far fewer ticks than cycles."""
        base = paper_system_config()
        job = mechanism_job(base, APPS, "None", 64, ACCESSES)
        sim = SystemSimulator(job.config, build_job_traces(job))
        controller = sim.controllers[0]
        ticks = 0
        original = controller.tick

        def counting_tick(cycle):
            nonlocal ticks
            ticks += 1
            return original(cycle)

        controller.tick = counting_tick
        result = sim.run()
        assert ticks < result.cycles  # time was skipped ...
        assert result.cycles > 0      # ... in a non-trivial simulation


#: Red-team probes at N_RH = 20 whose mechanisms act: PRAC back-offs and
#: RFM recoveries, PRFM RFMs and PARA preventive refreshes.  The exact
#: post-issue wake hint must fall back to the next cycle around every one of
#: these actions; a hint that reuses a demand minimum computed while a bank
#: was ready skips cycles here.
ATTACK_PROBES = (
    ("perf_attack", "PRAC-1"),
    ("perf_attack", "PRAC+PRFM"),
    ("perf_attack", "PARA"),
    ("rfm_dodge", "PRAC-1"),
)


def _run_probe(job, strict: bool):
    oracle = DisturbanceOracle(
        nrh=job.config.nrh,
        blast_radius=job.config.blast_radius,
        num_channels=job.config.organization.channels,
    )
    return SystemSimulator(
        job.config,
        build_job_traces(job),
        workload_name=job.workload_name,
        oracle=oracle,
        strict_tick=strict,
    ).run()


class TestStrictTickWhereMechanismsAct:
    """Attack probes at N_RH = 20: the action paths the benign mixes miss."""

    @pytest.mark.parametrize("pattern, mechanism", ATTACK_PROBES)
    def test_attack_probe_matches_strict_tick(self, pattern, mechanism):
        job = RedTeamEngine(seed=1).build_job(
            mechanism, 20, AttackSpec(pattern=pattern, seed=1)
        )
        event = _run_probe(job, strict=False)
        strict = _run_probe(job, strict=True)
        assert _payload(event) == _payload(strict)
        stats = event.controller_stats
        # The case is meaningful only if the mechanism really acted.
        assert stats["preventive_refresh_rows"] > 0
        if mechanism.startswith("PRAC"):
            assert stats["backoffs_observed"] > 0 and stats["rfms"] > 0


#: A write-heavy four-core mix: posted writes fill the write queue, so the
#: drain hysteresis flips back and forth during the run.
WRITE_HEAVY_APPS = ("549.fotonik3d", "429.mcf", "437.leslie3d", "510.parest")

_SMALL_ORG = DramOrganization(
    ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32
)


def _drive_controller(arrivals, strict: bool, horizon: int = 4000):
    """Feed timed requests to one controller through a router.

    ``arrivals`` maps a cycle to ``(request_type, address)`` pairs enqueued
    in that cycle.  The strict driver ticks every cycle; the event driver
    jumps to the next router hint or arrival, as the system run loop does.
    Returns every request's ``(issued_cycle, completion_cycle)``.
    """
    mapping = mop_mapping(_SMALL_ORG)
    controller = MemoryController(DramDevice(_SMALL_ORG, ddr5_3200an()), mapping)
    router = ChannelRouter(mapping, [controller])
    arrival_cycles = sorted(arrivals)
    requests = []
    cycle = 0
    while cycle < horizon:
        for request_type, address in arrivals.get(cycle, ()):
            request = MemoryRequest(
                address=address, request_type=request_type, core_id=0,
                arrival_cycle=cycle,
            )
            assert router.enqueue(request)
            requests.append(request)
        _, hint = router.tick(cycle, force=strict)
        router.drain_completed()
        if strict:
            cycle += 1
            continue
        following = next((c for c in arrival_cycles if c > cycle), FAR_FUTURE)
        cycle = min(hint, following, horizon)
    return [(r.issued_cycle, r.completion_cycle) for r in requests]


class TestWriteDrainHysteresis:
    """The drain flag is evaluated once per tick, from that tick's counts.

    Skipping a tick after a dequeue, or the same-cycle tick after an
    enqueue, must never skip a flip: both guards fall back to a tick when
    the flag would flip on the current counts.
    """

    def test_write_heavy_mix_matches_strict_tick(self):
        """Pins the enqueue-side guard."""
        job = mechanism_job(
            paper_system_config(), WRITE_HEAVY_APPS, "None", 64, 400
        )
        event = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        strict = simulate(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            strict_tick=True,
        )
        assert _payload(event) == _payload(strict)
        assert event.controller_stats["writes_served"] > 0

    @pytest.mark.parametrize("period", (13, 14))
    def test_drain_end_matches_strict_tick(self, period):
        """Pins the post-issue guard.

        48 queued writes start a drain with one conflicting read waiting on
        the same bank.  The write that brings the queue down to the low
        watermark leaves no bank ready, so the exact hint lies a tCCD ahead;
        a write arriving before it must not find the drain still on.
        """
        mapping = mop_mapping(_SMALL_ORG)

        def address(row: int, column: int) -> int:
            return mapping.encode(DramAddress(0, 0, 0, 0, row, column))

        arrivals = {
            0: [(RequestType.WRITE, address(5, i % 32)) for i in range(48)]
            + [(RequestType.READ, address(9, 0))],
        }
        for i in range(60):
            arrivals.setdefault(1 + i * period, []).append(
                (RequestType.WRITE, address(5, i % 32))
            )
        assert _drive_controller(arrivals, strict=False) == _drive_controller(
            arrivals, strict=True
        )


class TestQueueFullRetry:
    """Cores blocked on a full queue retry in the cycle after any issue.

    After an issue the run loop jumps to the exact horizon instead of
    ``cycle + 1``, unless a core waits for queue space: the issue may have
    freed it, and the cycle-stepped reference retries right away.
    """

    def test_small_queues_match_strict_tick(self):
        base = paper_system_config().with_overrides(
            read_queue_size=8, write_queue_size=8
        )
        job = mechanism_job(base, WRITE_HEAVY_APPS, "None", 64, 300)
        event = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        strict = simulate(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            strict_tick=True,
        )
        assert _payload(event) == _payload(strict)


def _idle_trace(name: str, accesses: int, gap: int) -> Trace:
    """A trace whose accesses are separated by huge compute gaps."""
    entries = [
        TraceEntry(gap_instructions=gap, address=(7 * index + 3) * 4096)
        for index in range(accesses)
    ]
    return Trace(name, entries)


class TestRefreshSkipFidelity:
    """Time skips never postpone REFs beyond the DDR5 budget."""

    def test_pending_bounded_on_skip_heavy_idle_workload(self, monkeypatch):
        config = paper_system_config(mechanism="None", nrh=1024).with_overrides(
            num_cores=1
        )
        # ~200k instructions between accesses => tens of thousands of idle
        # DRAM cycles per access, many times tREFI, so the run is dominated
        # by long time skips.
        trace = _idle_trace("idler", accesses=24, gap=200_000)

        observed = []
        original_tick = RefreshScheduler.tick

        def spy(self, cycle):
            original_tick(self, cycle)
            observed.append(
                max(self.pending_refreshes(rank) for rank in range(self.num_ranks))
            )

        monkeypatch.setattr(RefreshScheduler, "tick", spy)
        result = simulate(config, [trace])

        assert result.cycles > 20 * 6240  # many tREFI boundaries were crossed
        assert observed, "refresh scheduler was never consulted"
        limit = RefreshScheduler.MAX_POSTPONED + 1
        assert max(observed) <= limit, (
            f"a time skip postponed REFs beyond the DDR5 budget: "
            f"max pending {max(observed)} > {limit}"
        )
        # And the debt is actually paid: REFs were issued throughout.
        assert result.controller_stats["refreshes"] > 0

    def test_idle_workload_matches_strict_tick(self):
        """The skip-heavy run is byte-identical to the cycle-stepped run."""
        config = paper_system_config(mechanism="None", nrh=1024).with_overrides(
            num_cores=1
        )
        event = simulate(config, [_idle_trace("idler", 12, 200_000)])
        strict = simulate(
            config, [_idle_trace("idler", 12, 200_000)], strict_tick=True
        )
        assert _payload(event) == _payload(strict)

    def test_controller_hint_includes_refresh_due_cycle(self):
        """An idle controller's wake hint never exceeds the next tREFI due."""
        from repro.controller.address_mapping import mop_mapping
        from repro.controller.controller import MemoryController
        from repro.dram.device import DramDevice
        from repro.dram.organization import DramOrganization
        from repro.dram.timing import ddr5_3200an

        org = DramOrganization(
            ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32
        )
        device = DramDevice(org, ddr5_3200an())
        controller = MemoryController(device, mop_mapping(org))
        issued, hint = controller.tick(0)
        assert not issued
        assert hint <= controller.refresh.next_due_cycle()
        assert hint > 0
        # The public hint accessor agrees with what tick just returned (an
        # idle tick has no side effects besides refresh accrual, which
        # next_event_cycle performs too).
        assert controller.next_event_cycle(0) == hint
        # On a fully idle controller the only event is the tREFI boundary.
        assert hint == controller.refresh.next_due_cycle()
