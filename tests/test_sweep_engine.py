"""Tests for the sweep engine: expansion, determinism, caching, CLI."""

import dataclasses
import json
import os
import pickle

import pytest

from repro.attacks.patterns import AttackSpec
from repro.cli import main as cli_main
from repro.experiments import sweep
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    job_key,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import (
    WORKERS_ENV,
    SimJob,
    SweepEngine,
    SweepSpec,
    alone_job,
    attack_job,
    attack_search_job,
    baseline_job,
    build_job_traces,
    default_workers,
    mechanism_job,
)
from repro.system.config import appendix_e_system_config, paper_system_config

ACCESSES = 200

SPEC = SweepSpec(
    mechanisms=("Chronus", "PRAC-4"),
    nrh_values=(1024, 128),
    mixes=(("429.mcf", "401.bzip2"), ("429.mcf",)),
    accesses_per_core=ACCESSES,
)


def results_digest(results) -> str:
    """Canonical JSON of a key->result mapping (byte-comparable)."""
    return json.dumps(
        {key: result_to_dict(result) for key, result in sorted(results.items())},
        sort_keys=True,
    )


class TestDefaultWorkers:
    """$REPRO_SWEEP_WORKERS parsing: loud on garbage, clamped on negatives."""

    def test_unset_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 0
        assert default_workers(auto=True) >= 1

    def test_valid_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        assert default_workers(auto=True) == 3

    def test_unparsable_value_raises_naming_the_text(self, monkeypatch):
        # Used to silently degrade to serial, hiding the typo entirely.
        monkeypatch.setenv(WORKERS_ENV, "eight")
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'eight'"):
            default_workers()
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'eight'"):
            default_workers(auto=True)

    def test_negative_value_clamped_to_serial(self, monkeypatch):
        # Negative counts used to flow through to the engine verbatim.
        monkeypatch.setenv(WORKERS_ENV, "-4")
        assert default_workers() == 0
        assert SweepEngine().workers == 0


class TestExpansion:
    def test_expand_counts_jobs(self):
        jobs = SPEC.expand()
        # 2 alone + 2 baselines + 2 mech x 2 nrh x 2 mixes = 12, minus the
        # single-application baseline that is identical to its alone run.
        assert len(jobs) == 11
        assert len({job.key for job in jobs}) == len(jobs)
        assert SPEC.num_points() == 8

    def test_applications_deduplicated_in_order(self):
        assert SPEC.applications == ("429.mcf", "401.bzip2")

    def test_alone_and_single_app_baseline_share_one_job(self):
        base = paper_system_config()
        alone = alone_job(base, "429.mcf", ACCESSES)
        baseline = baseline_job(base, ("429.mcf",), ACCESSES)
        assert alone.key == baseline.key

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            SweepSpec(mechanisms=("Nope",), nrh_values=(64,), mixes=(("429.mcf",),))

    def test_job_core_count_must_match_config(self):
        config = paper_system_config().with_overrides(num_cores=4)
        with pytest.raises(ValueError, match="cores"):
            SimJob(config=config, applications=("429.mcf",), accesses_per_core=ACCESSES)


class TestJobKeys:
    def test_key_ignores_workload_name(self):
        base = paper_system_config()
        a = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, workload_name="a")
        b = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, workload_name="b")
        assert a.key == b.key

    def test_key_covers_every_ipc_relevant_field(self):
        base = paper_system_config()
        reference = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES)
        variants = [
            mechanism_job(base, ("429.mcf",), "Chronus", 32, ACCESSES),
            mechanism_job(base, ("429.mcf",), "PRAC-4", 64, ACCESSES),
            mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES + 1),
            mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, seed=1),
            mechanism_job(base, ("401.bzip2",), "Chronus", 64, ACCESSES),
            mechanism_job(
                appendix_e_system_config().with_overrides(num_cores=1),
                ("429.mcf",), "Chronus", 64, ACCESSES,
            ),
        ]
        keys = {reference.key} | {job.key for job in variants}
        assert len(keys) == len(variants) + 1

    def test_baseline_key_depends_on_access_budget(self):
        """Regression: the old in-memory baseline cache keyed only on the
        application tuple, so changing IPC-relevant fields (e.g. the access
        budget) silently reused stale baselines."""
        base = paper_system_config()
        small = baseline_job(base, ("429.mcf", "401.bzip2"), 100)
        large = baseline_job(base, ("429.mcf", "401.bzip2"), 200)
        assert small.key != large.key

    def test_attack_job_traces_and_key(self):
        base = paper_system_config()
        job = attack_job(base, ("429.mcf", "401.bzip2", "403.gcc"), "PRAC-4", 64,
                         ACCESSES, attack_accesses=500)
        traces = build_job_traces(job)
        assert len(traces) == 4 == job.config.num_cores
        assert traces[0].name == "perf_attack"
        peaceful = mechanism_job(base, ("429.mcf", "401.bzip2", "403.gcc"),
                                 "PRAC-4", 64, ACCESSES)
        assert job.key != peaceful.key


def _key_job(kind: str) -> SimJob:
    """A freshly built (never keyed) job of each kind the engine runs."""
    base = paper_system_config()
    apps = ("429.mcf", "401.bzip2")
    if kind == "mixed":
        return mechanism_job(base, apps, "Chronus", 64, ACCESSES)
    if kind == "alone":
        return alone_job(base, "429.mcf", ACCESSES)
    if kind == "baseline":
        return baseline_job(base, apps, ACCESSES)
    if kind == "attack":
        return attack_job(base, apps, "PRAC-4", 64, ACCESSES, attack_accesses=500)
    return attack_search_job(base, "Chronus", 64, AttackSpec(pattern="single_sided"))


KEY_JOB_KINDS = ("mixed", "alone", "baseline", "attack", "attack_search")


@pytest.fixture
def key_calls(monkeypatch):
    """Counts every content-key computation ``SimJob.key`` performs."""
    calls = []

    def counting_job_key(payload):
        calls.append(payload)
        return job_key(payload)

    monkeypatch.setattr(sweep, "job_key", counting_job_key)
    return calls


class TestJobKeyMemo:
    """``SimJob.key`` is hashed once per instance and is otherwise invisible."""

    @pytest.mark.parametrize("kind", KEY_JOB_KINDS)
    def test_key_equals_hash_of_payload_and_is_computed_once(self, kind, key_calls):
        job = _key_job(kind)
        assert job.key == job_key(job.cache_payload())
        assert job.key == job_key(job.cache_payload())
        assert len(key_calls) == 1

    @pytest.mark.parametrize("kind", KEY_JOB_KINDS)
    def test_replace_gets_a_fresh_key(self, kind, key_calls):
        job = _key_job(kind)
        original = job.key
        bumped = dataclasses.replace(job, seed=job.seed + 1)
        assert bumped.key != original
        assert bumped.key == job_key(bumped.cache_payload())
        assert len(key_calls) == 2
        assert job.key == original

    @pytest.mark.parametrize("kind", KEY_JOB_KINDS)
    def test_pickle_round_trip_keeps_key_and_equality(self, kind, key_calls):
        job = _key_job(kind)
        unkeyed = pickle.loads(pickle.dumps(job))
        original = job.key
        keyed = pickle.loads(pickle.dumps(job))
        assert unkeyed == job == keyed
        assert hash(unkeyed) == hash(job) == hash(keyed)
        assert keyed.key == unkeyed.key == original
        # The worker-bound copy carries the memo; the unkeyed one hashed once.
        assert len(key_calls) == 2

    @pytest.mark.parametrize("kind", KEY_JOB_KINDS)
    def test_memo_does_not_change_identity_or_fields(self, kind):
        keyed, twin = _key_job(kind), _key_job(kind)
        fields_before = [field.name for field in dataclasses.fields(keyed)]
        assert keyed.key
        assert keyed == twin and hash(keyed) == hash(twin)
        assert repr(keyed) == repr(twin)
        assert dataclasses.asdict(keyed) == dataclasses.asdict(twin)
        assert [field.name for field in dataclasses.fields(keyed)] == fields_before
        assert "key" not in fields_before


class TestDeterminism:
    def test_same_spec_gives_byte_identical_results(self):
        first = SweepEngine().run(SPEC)
        second = SweepEngine().run(SPEC)
        assert results_digest(first) == results_digest(second)

    def test_two_worker_run_matches_serial(self):
        serial = SweepEngine(workers=0).run(SPEC)
        parallel = SweepEngine(workers=2).run(SPEC)
        assert results_digest(serial) == results_digest(parallel)


class TestCaching:
    def test_memory_cache_returns_identical_object(self):
        engine = SweepEngine()
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        assert engine.run_job(job) is engine.run_job(job)
        assert engine.executed_jobs == 1

    def test_disk_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SweepEngine(cache=ResultCache(cache_dir))
        results = first.run(SPEC)
        assert first.executed_jobs == len(SPEC.expand())

        second = SweepEngine(cache=ResultCache(cache_dir))
        again = second.run(SPEC)
        assert second.executed_jobs == 0
        assert second.cache.hit_rate() == 1.0
        assert second.cache.disk_hits == len(SPEC.expand())
        assert results_digest(results) == results_digest(again)

    def test_result_serialization_round_trip(self):
        engine = SweepEngine()
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        result = engine.run_job(job)
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert result_to_dict(rebuilt) == result_to_dict(result)

    def test_corrupted_entry_recovers(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        engine = SweepEngine(cache=ResultCache(cache_dir))
        expected = result_to_dict(engine.run_job(job))

        entry_path = os.path.join(cache_dir, job.key[:2], f"{job.key}.json")
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write("{ truncated garbage")

        recovered = SweepEngine(cache=ResultCache(cache_dir))
        result = recovered.run_job(job)
        assert recovered.cache.corrupt_entries == 1
        assert recovered.executed_jobs == 1
        assert result_to_dict(result) == expected
        # The entry was rewritten and is valid again.
        fresh = SweepEngine(cache=ResultCache(cache_dir))
        assert result_to_dict(fresh.run_job(job)) == expected
        assert fresh.executed_jobs == 0

    def test_schema_mismatch_treated_as_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        engine = SweepEngine(cache=ResultCache(cache_dir))
        engine.run_job(job)

        entry_path = os.path.join(cache_dir, job.key[:2], f"{job.key}.json")
        with open(entry_path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        with open(entry_path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        stale = SweepEngine(cache=ResultCache(cache_dir))
        stale.run_job(job)
        assert stale.cache.corrupt_entries == 1
        assert stale.executed_jobs == 1

    def test_cache_clear_and_contains(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        engine = SweepEngine(cache=cache)
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        assert not cache.contains(job.key)
        engine.run_job(job)
        assert cache.contains(job.key)
        assert cache.disk_entry_count() == 1
        assert cache.clear() == 1
        assert not cache.contains(job.key)


class TestRunnerIntegration:
    def test_runners_share_engine_and_cache(self):
        engine = SweepEngine()
        first = ExperimentRunner(accesses_per_core=ACCESSES, engine=engine)
        second = ExperimentRunner(accesses_per_core=ACCESSES, engine=engine)
        a = first.baseline_result(("429.mcf", "401.bzip2"))
        b = second.baseline_result(("429.mcf", "401.bzip2"))
        assert a is b
        assert engine.executed_jobs == 1

    def test_baseline_distinguished_by_access_budget(self):
        engine = SweepEngine()
        small = ExperimentRunner(accesses_per_core=100, engine=engine)
        large = ExperimentRunner(accesses_per_core=200, engine=engine)
        a = small.baseline_result(("429.mcf",))
        b = large.baseline_result(("429.mcf",))
        assert a is not b
        assert engine.executed_jobs == 2

    def test_compare_uses_one_batched_engine_call(self):
        runner = ExperimentRunner(accesses_per_core=ACCESSES)
        comparisons = runner.compare(("Chronus",), (1024,), (("429.mcf",),))
        assert len(comparisons) == 1
        assert 0.0 < comparisons[0].mean_normalized_ws <= 1.2
        # alone/baseline (shared job) + mechanism run.
        assert runner.engine.executed_jobs == 2


class TestCli:
    def test_sweep_dry_run(self, capsys, tmp_path):
        code = cli_main([
            "sweep", "--dry-run", "--num-mixes", "1", "--nrh", "1024",
            "--accesses", "200", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run:" in out
        assert "to simulate" in out

    def test_sweep_executes_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "sweep", "--num-mixes", "1", "--nrh", "1024", "--accesses", "200",
            "--mechanisms", "Chronus", "--cache-dir", cache_dir,
        ]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "normalized_ws" in first

        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "0 jobs simulated" in second
        assert "100.0% hit rate" in second

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cli_main([
            "sweep", "--num-mixes", "1", "--nrh", "1024", "--accesses", "200",
            "--mechanisms", "Chronus", "--cache-dir", cache_dir,
        ])
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache-dir", cache_dir]) == 0
        info = capsys.readouterr().out
        # One four-application mix: 4 alone runs + 1 baseline + 1 Chronus run.
        assert "entries: 6" in info
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 6 entries" in capsys.readouterr().out

    def test_mechanisms_listing(self, capsys):
        assert cli_main(["mechanisms"]) == 0
        out = capsys.readouterr().out
        assert "Chronus" in out and "PRAC-4" in out
