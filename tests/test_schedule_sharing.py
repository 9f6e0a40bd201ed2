"""Schedule sharing is sound: replayed results equal full simulations.

The sweep engine simulates each distinct DRAM schedule once and replays
every other mechanism of the schedule group over its recorded ACT/PRE/REF
hook stream (:mod:`repro.experiments.sharing`).  These tests pin that the
shortcut is unobservable -- every payload the engine returns is
byte-identical to a full :func:`~repro.experiments.sweep.execute_job` run
-- and that it cannot pass vacuously: some jobs must actually share and
some must actually diverge, on one and on two channels.
"""

import json

import pytest

from repro.attacks.patterns import AttackSpec
from repro.core.factory import MECHANISM_NAMES, MechanismSetup
from repro.core.mitigation import OnDieMitigation
from repro.experiments import sharing
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import (
    SweepEngine,
    SweepSpec,
    attack_search_job,
    baseline_job,
    build_shards,
    execute_job,
    mechanism_job,
)
from repro.system import simulator as simulator_module
from repro.system.config import paper_system_config

MIX = ("429.mcf", "462.libquantum")
ACCESSES = 250
NRH_VALUES = (1024, 128, 20)
CHANNELS = (1, 2)


def payload(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


def run_with_events(jobs):
    engine = SweepEngine(workers=0)
    events = []
    results = engine.run_jobs(jobs, progress=events.append)
    outcomes = {
        event["key"]: event for event in events if event["event"] == "job"
    }
    return engine, results, outcomes


@pytest.fixture(scope="module")
def full_grid():
    """All 12 mechanisms x N_RH grid x {1, 2} channels in one engine call."""
    jobs = []
    for channels in CHANNELS:
        base = paper_system_config().with_overrides(channels=channels)
        jobs.extend(
            SweepSpec(
                mechanisms=MECHANISM_NAMES,
                nrh_values=NRH_VALUES,
                mixes=(MIX,),
                accesses_per_core=ACCESSES,
                base_config=base,
            ).expand()
        )
    engine, results, outcomes = run_with_events(jobs)
    return jobs, engine, results, outcomes


class TestSoundness:
    def test_every_payload_matches_a_full_simulation(self, full_grid):
        jobs, _, results, _ = full_grid
        for job in jobs:
            assert payload(results[job.key]) == payload(execute_job(job)), job.label

    @pytest.mark.parametrize("channels", CHANNELS)
    def test_not_vacuous(self, full_grid, channels):
        jobs, _, _, outcomes = full_grid
        mine = [
            outcomes[job.key]
            for job in jobs
            if job.config.organization.channels == channels
        ]
        assert any(event["shared"] for event in mine)
        diverged = [event for event in mine if event["diverged_cycle"] is not None]
        assert diverged
        assert not any(event["shared"] for event in diverged)

    def test_prac_timing_group_shares_through_self_replay(self, full_grid):
        # No None job runs under PRAC timings: the group's schedule must
        # come from a PRAC-class job whose own replay requested nothing.
        jobs, _, _, outcomes = full_grid
        prac_class = [
            job for job in jobs
            if job.config.mechanism in ("PRAC-1", "PRAC-2", "PRAC-4", "PRAC+PRFM")
        ]
        assert any(outcomes[job.key]["shared"] for job in prac_class)

    def test_shared_jobs_count_as_executed(self, full_grid):
        jobs, engine, _, outcomes = full_grid
        report = engine.last_run_report
        shared = sum(1 for event in outcomes.values() if event["shared"])
        assert report.shared_jobs == shared > 0
        assert report.executed_jobs == engine.executed_jobs == len(jobs)


class TestGrouping:
    """Which jobs may share a schedule, and that pools keep groups whole."""

    def test_mechanism_and_nrh_share_a_group_per_timing_class(self):
        spec = SweepSpec(
            mechanisms=MECHANISM_NAMES,
            nrh_values=(64, 128, 256),
            mixes=(MIX,),
            accesses_per_core=ACCESSES,
            include_alone=False,
            include_baselines=False,
        )
        keys = {}
        for job in spec.expand():
            prac = job.config.mechanism.startswith("PRAC")
            keys.setdefault(prac, set()).add(sharing.schedule_group_key(job))
        assert [len(keys[False]), len(keys[True])] == [1, 1]
        assert keys[False] != keys[True]

    def test_trace_identity_splits_groups(self):
        base = paper_system_config()
        variants = [
            mechanism_job(base, MIX, "None", 64, ACCESSES),
            # Different mix, access budget, seed or topology => new traces
            # or a new memory system => a different group.
            mechanism_job(base, MIX[:1], "None", 64, ACCESSES),
            mechanism_job(base, MIX, "None", 64, ACCESSES + 1),
            mechanism_job(base, MIX, "None", 64, ACCESSES, seed=1),
            mechanism_job(base.with_overrides(channels=2), MIX, "None", 64, ACCESSES),
        ]
        keys = {sharing.schedule_group_key(job) for job in variants}
        assert len(keys) == len(variants)

    def test_shards_keep_each_group_whole_in_input_order(self):
        spec = SweepSpec(
            mechanisms=("Chronus", "PRAC-4", "PARA"),
            nrh_values=(1024, 128),
            mixes=(MIX, MIX[:1]),
            accesses_per_core=ACCESSES,
        )
        jobs = spec.expand()
        shards = build_shards(jobs, workers=4)
        assert sorted(job.key for shard in shards for job in shard) == sorted(
            job.key for job in jobs
        )
        order = {job.key: position for position, job in enumerate(jobs)}
        home = {}
        for index, shard in enumerate(shards):
            members = {}
            for job in shard:
                key = sharing.schedule_group_key(job)
                assert home.setdefault(key, index) == index
                members.setdefault(key, []).append(order[job.key])
            assert all(group == sorted(group) for group in members.values())


class TestAttackJobsNeverShare:
    def test_oracle_jobs_bypass_sharing(self):
        base = paper_system_config()
        spec = AttackSpec.create("single_sided")
        jobs = [
            attack_search_job(base, "Chronus", nrh, spec, accesses_per_core=200)
            for nrh in (1024, 512)
        ]
        assert [sharing.schedule_group_key(job) for job in jobs] == [None, None]
        _, results, outcomes = run_with_events(jobs)
        for job in jobs:
            assert outcomes[job.key]["shared"] is False
            assert outcomes[job.key]["diverged_cycle"] is None
            assert payload(results[job.key]) == payload(execute_job(job))


class LastHookAlarm(OnDieMitigation):
    """Asserts back-off on its ``trigger``-th hook call, and never before."""

    name = "LastHookAlarm"

    def __init__(self, trigger: int) -> None:
        super().__init__(nrh=1024)
        self.trigger = trigger
        self.hooks = 0

    def _hook(self) -> None:
        self.hooks += 1

    def on_activate(self, bank_id, row, cycle):
        self._hook()

    def on_precharge(self, bank_id, row, cycle):
        self._hook()

    def on_periodic_refresh(self, bank_ids, cycle):
        self._hook()

    def backoff_asserted(self):
        return self.hooks == self.trigger

    def wants_more_rfm(self):
        return False

    def on_rfm(self, bank_ids, cycle):
        return 0


class TestLateDivergenceFallsBack:
    def test_request_on_the_last_hook_forces_a_full_simulation(self, monkeypatch):
        base = paper_system_config()
        baseline = baseline_job(base, MIX, ACCESSES)
        with sharing.recording() as recorder:
            execute_job(baseline)
        (stream,) = recorder.schedule().streams
        last_cycle = stream[-1][3]

        real_build = simulator_module.build_mechanism

        def build(name, nrh, num_banks, seed=0):
            if name != "Graphene":
                return real_build(name, nrh=nrh, num_banks=num_banks, seed=seed)
            alarm = LastHookAlarm(trigger=len(stream))
            return MechanismSetup(name, alarm, None, use_prac_timings=False,
                                  is_secure=True)

        monkeypatch.setattr(simulator_module, "build_mechanism", build)
        stubbed = mechanism_job(base, MIX, "Graphene", 1024, ACCESSES)
        _, results, outcomes = run_with_events([baseline, stubbed])
        assert outcomes[stubbed.key]["shared"] is False
        assert outcomes[stubbed.key]["diverged_cycle"] == last_cycle
        assert payload(results[stubbed.key]) == payload(execute_job(stubbed))
