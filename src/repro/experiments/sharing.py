"""Schedule sharing: simulate each DRAM command schedule once.

A mitigation mechanism changes a simulation's DRAM command schedule in only
two ways: through its timing class (the PRAC timing parameters or not) and
through *timing-visible actions* -- asserting ``alert_n`` (back-off), asking
for an RFM, or queueing a preventive refresh.  A mechanism that never asks
for an action leaves the schedule exactly as it would be with any other
such mechanism of the same timing class.  In a figure sweep most jobs are
like that (Chronus, Graphene and Hydra at a high N_RH all reproduce the
no-mitigation schedule cycle for cycle), so the sweep engine simulates one
representative per schedule group and *replays* the other mechanisms over
its recorded hook stream instead of simulating them:

* :class:`ScheduleRecorder` records, per channel, the ordered stream of
  ``ACT(bank, row, cycle)``, ``PRE(bank, row, cycle)`` and
  ``REF(bank_ids, cycle)`` device events of a full simulation (the device's
  listener lists, so recording costs nothing when off);
* :func:`replay` rebuilds a job's per-channel mechanisms exactly as the
  simulator does and feeds them the stream in simulator order, polling the
  controller-visible queries (``backoff_asserted``, ``rfm_pending_banks``,
  ``has_pending_refreshes``) after every event.  The first true answer
  means the job would have diverged from the schedule and must be
  simulated; otherwise the result is assembled from the shared schedule
  and the job's own mechanism statistics and energy;
* :func:`schedule_group_key` names the group a job may share a schedule
  with: identical traces and topology (:func:`batch_group_key`) and the
  same timing class.  Attack-search jobs (ground-truth oracle attached)
  never share.

Soundness rests on one contract, enforced by the ``mechanism-query-purity``
lint rule: mechanisms are pure functions of their hook stream, and the
polled queries have no side effects.  See docs/ARCHITECTURE.md, "Schedule
sharing", for the argument.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.factory import MechanismSetup, build_mechanism
from repro.system.metrics import SimulationResult
from repro.system.simulator import (
    ScheduleSummary,
    SystemSimulator,
    assemble_result,
    build_channel_setups,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep -> sharing)
    from repro.experiments.sweep import SimJob

#: Config fields a schedule group is allowed to vary in.  Everything else --
#: the organization, address mapping, LLC geometry, core parameters, the
#: applications, access budget and trace seed -- must match, because the
#: traces and the memory topology depend on it.  The free fields only steer
#: the mechanism build, the DRAM timing flavour (folded back into the group
#: key as the timing class) and the disturbance oracle.
GROUP_FREE_CONFIG_FIELDS: Tuple[str, ...] = (
    "mechanism",
    "nrh",
    "legacy_prac_timings",
    "blast_radius",
)

#: Hook-stream event kinds.
ACT, PRE, REF = 0, 1, 2

#: One recorded device event: ``(kind, bank, row, cycle)``; for ``REF`` the
#: bank slot holds the refreshed rank's bank ids and the row slot is None.
Event = Tuple[int, object, Optional[int], int]


def batch_group_key(job: "SimJob") -> str:
    """Canonical key of the trace/topology group a job belongs to.

    Derived from the job's cache payload with the
    :data:`GROUP_FREE_CONFIG_FIELDS` removed, so two jobs share a group
    exactly when their traces and memory topology are interchangeable.
    """
    payload = job.cache_payload()
    config = dict(payload["config"])
    for name in GROUP_FREE_CONFIG_FIELDS:
        config.pop(name, None)
    payload["config"] = config
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def schedule_group_key(job: "SimJob") -> Optional[str]:
    """Key of the schedule group a job may share with, or None.

    Jobs share a group when :func:`batch_group_key` matches and they run
    under the same DRAM timing parameters.  Attack-search jobs return None:
    their oracle observes every event, so they are always simulated.
    """
    if job.attack is not None:
        return None
    config = job.config
    prac = build_mechanism(
        config.mechanism,
        nrh=config.nrh,
        num_banks=config.organization.total_banks,
    ).use_prac_timings
    timing_class = (prac, config.legacy_prac_timings and prac)
    return json.dumps([batch_group_key(job), timing_class])


@dataclass(frozen=True)
class Schedule:
    """A recorded DRAM schedule: its per-channel hook streams and the
    schedule-determined part of its result (never the simulator itself)."""

    streams: List[List[Event]]
    summary: ScheduleSummary


def _stream_hooks(stream: List[Event]):
    """ACT, PRE and REF listeners appending to one channel's stream."""
    append = stream.append

    def on_act(bank: int, row: int, cycle: int) -> None:
        append((ACT, bank, row, cycle))

    def on_pre(bank: int, row: int, cycle: int) -> None:
        append((PRE, bank, row, cycle))

    def on_ref(bank_ids: Sequence[int], cycle: int) -> None:
        append((REF, bank_ids, None, cycle))

    return on_act, on_pre, on_ref


class ScheduleRecorder:
    """Records the hook streams of one simulation (see :func:`recording`)."""

    def __init__(self) -> None:
        self.streams: List[List[Event]] = []
        self._simulator: Optional[SystemSimulator] = None

    def attach(self, simulator: SystemSimulator) -> None:
        """Subscribe to every device of ``simulator`` (before it runs)."""
        for device in simulator.devices:
            stream: List[Event] = []
            on_act, on_pre, on_ref = _stream_hooks(stream)
            device.add_activation_listener(on_act)
            device.add_precharge_listener(on_pre)
            device.add_refresh_listener(on_ref)
            self.streams.append(stream)
        self._simulator = simulator

    def schedule(self) -> Schedule:
        """The recorded schedule of the finished run (detaches the run)."""
        simulator = self._simulator
        if simulator is None:
            raise RuntimeError("no simulation was recorded")
        self._simulator = None
        return Schedule(self.streams, simulator.schedule_summary(simulator.cycle))


_ACTIVE_RECORDER: ContextVar[Optional[ScheduleRecorder]] = ContextVar(
    "repro_schedule_recorder", default=None
)


@contextmanager
def recording() -> Iterator[ScheduleRecorder]:
    """Scope in which :func:`repro.experiments.sweep.execute_job` records."""
    recorder = ScheduleRecorder()
    token = _ACTIVE_RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER.reset(token)


def active_recorder() -> Optional[ScheduleRecorder]:
    """The recorder of the enclosing :func:`recording` scope, if any."""
    return _ACTIVE_RECORDER.get()


def _first_request(setup: MechanismSetup, stream: Sequence[Event]) -> Optional[int]:
    """Replay one channel; the cycle of the first action request, or None."""
    on_die = setup.on_die
    controller = setup.controller
    queries: List[Callable[[], object]] = []
    act_hooks = []
    pre_hook = ref_hook = None
    if on_die is not None:
        act_hooks.append(on_die.on_activate)
        pre_hook = on_die.on_precharge
        ref_hook = on_die.on_periodic_refresh
        queries.append(on_die.backoff_asserted)
    if controller is not None:
        # The controller-side hook runs after the device's, as in
        # MemoryController._serve_request.
        act_hooks.append(controller.on_activate)
        queries.append(controller.rfm_pending_banks)
        queries.append(controller.has_pending_refreshes)
    if not queries:
        return None
    for kind, bank, row, cycle in stream:
        if kind == ACT:
            for hook in act_hooks:
                hook(bank, row, cycle)
        elif kind == PRE:
            if pre_hook is not None:
                pre_hook(bank, row, cycle)
        elif ref_hook is not None:
            ref_hook(bank, cycle)
        for query in queries:
            if query():
                return cycle
    return None


def first_request_cycle(
    setups: Sequence[MechanismSetup], schedule: Schedule
) -> Optional[int]:
    """Earliest cycle, over all channels, at which a replayed mechanism
    requests a timing-visible action; None if none ever does."""
    earliest: Optional[int] = None
    for setup, stream in zip(setups, schedule.streams):
        cycle = _first_request(setup, stream)
        if cycle is not None and (earliest is None or cycle < earliest):
            earliest = cycle
    return earliest


def replay(
    job: "SimJob", schedule: Schedule
) -> Tuple[Optional[SimulationResult], Optional[int]]:
    """Replay ``job``'s mechanisms over ``schedule``.

    Returns ``(result, None)`` when no mechanism ever requests an action --
    the job's schedule *is* the recorded one -- and ``(None, cycle)`` with
    the first request cycle when the job diverges and must be simulated.
    """
    setups = build_channel_setups(job.config)
    diverged = first_request_cycle(setups, schedule)
    if diverged is not None:
        return None, diverged
    summary = schedule.summary
    workload = job.workload_name or "+".join(summary.core_names)
    return assemble_result(job.config, workload, setups, summary), None
