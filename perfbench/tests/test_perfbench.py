"""Tests of the benchmark itself (not of the program it measures)."""

from __future__ import annotations

import gc
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import hostspeed, metrics  # noqa: E402
from perfbench.layers import LayerProbe  # noqa: E402
from perfbench.tracer import Span, Tracer, span_self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, results_digest  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMetricTables:
    def test_names_units_and_directions(self):
        for metric in metrics.END_TO_END + metrics.PER_LAYER:
            assert metrics.NAME_RE.match(metric.name), metric.name
            assert metric.unit, metric.name
            assert metric.better in ("lower", "higher"), metric.name
        all_names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
        assert len(all_names) == len(set(all_names))

    def test_every_end_to_end_metric_has_a_bound(self):
        for metric in metrics.END_TO_END:
            assert metric.bound is not None and 0 < metric.bound <= 0.25, metric.name

    def test_every_per_layer_metric_says_what_it_moves(self):
        for metric in metrics.PER_LAYER:
            assert metric.moves, metric.name

    def test_benchmark_json_lists_the_same_metrics(self):
        bench = _benchmark_json()
        for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
            assert listed == [(m.name, m.unit, m.better) for m in table]
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        assert bounds == {m.name: m.bound for m in metrics.END_TO_END}
        assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
        assert list(WORKLOADS) == list(metrics.WORKLOADS)


class TestTailPercentile:
    def test_picks_the_highest_percentile_with_ten_samples_beyond(self):
        # 120 samples: p90 leaves 12 above rank 108, p91 leaves 10.
        assert metrics.tail_percentile(120, highest=99) == 91
        assert metrics.tail_percentile(120) == 90
        # 26 samples: p61 -> rank 16 leaves 10; p62 -> rank 17 leaves 9.
        assert metrics.tail_percentile(26) == 61
        assert metrics.tail_percentile(1000, highest=99) == 99

    def test_too_few_samples(self):
        assert metrics.tail_percentile(10) is None
        assert metrics.tail_percentile(11) == 9

    def test_every_choice_leaves_ten_beyond_and_the_next_does_not(self):
        for samples in range(11, 400):
            chosen = metrics.tail_percentile(samples, highest=99)
            values = list(range(samples))
            threshold = metrics.percentile_value(values, chosen)
            assert sum(v > threshold for v in values) >= 10
            if chosen < 99:
                above_next = metrics.percentile_value(values, chosen + 1)
                assert sum(v > above_next for v in values) < 10


class TestHostSpeed:
    def test_kernel_does_the_same_work_and_leaves_the_collector_alone(self):
        speed = hostspeed.HostSpeed()
        first = speed._kernel()
        before = gc.get_count()
        for _ in range(3):
            assert speed._kernel() == first
        assert gc.get_count() == before

    def test_factor_and_share(self):
        speed = hostspeed.HostSpeed()
        spent = speed.keep_up(50 * hostspeed.REFERENCE_S)
        assert spent == sum(speed.samples)
        assert sum(speed.samples) >= hostspeed.SHARE * speed.work_s
        speed.samples = [2 * hostspeed.REFERENCE_S] * 4
        assert speed.factor() == 0.5 ** hostspeed.ELASTICITY


class TestSelfTime:
    def test_span_tree(self):
        spans = [
            Span(0, "phase", 0.0, 10.0, None, None),
            Span(1, "job", 1.0, 5.0, 0, "a"),
            Span(2, "job", 6.0, 9.0, 0, "b"),
            Span(3, "run", 2.0, 4.0, 1, "a"),
            # Overlapping children are covered once; a child poking past its
            # parent only counts inside the parent.
            Span(4, "x", 6.5, 8.0, 2, "b"),
            Span(5, "y", 7.0, 9.5, 2, "b"),
        ]
        own = span_self_times(spans)
        assert own == {0: 3.0, 1: 2.0, 2: 0.5, 3: 2.0, 4: 1.5, 5: 2.5}

    def test_wrapper_aggregates_on_a_fake_clock(self):
        clock = FakeClock()

        class Layer:
            def outer(self):
                clock.now += 1.0
                self.inner()
                clock.now += 2.0
                self.inner()
                return True

            def inner(self):
                clock.now += 0.5

        tracer = Tracer(clock=clock)
        tracer.wrap(Layer, "outer", "outer", ok=bool)
        tracer.wrap(Layer, "inner", "inner")
        with tracer.phase("phase"):
            Layer().outer()
        tracer.uninstall()
        outer, inner = tracer.stats["outer"], tracer.stats["inner"]
        assert (outer.calls, outer.ok, outer.inclusive, outer.self_time) == (1, 1, 4.0, 3.0)
        assert (inner.calls, inner.inclusive, inner.self_time) == (2, 1.0, 1.0)
        (phase,) = tracer.spans
        assert (phase.name, phase.start, phase.end, phase.parent) == ("phase", 0.0, 4.0, None)


class TestTracedRun:
    def _wrapped_attributes(self, probe):
        snapshot = {}
        for owner, attr, _, _ in probe.boundaries():
            source = owner.__dict__ if isinstance(owner, type) else vars(owner)
            snapshot[(owner, attr)] = source[attr]
        return snapshot

    def test_uninstall_restores_every_wrapped_attribute(self):
        probe = LayerProbe(Tracer())
        before = self._wrapped_attributes(probe)
        probe.install()
        during = self._wrapped_attributes(probe)
        assert all(during[key] is not before[key] for key in before)
        probe.uninstall()
        after = self._wrapped_attributes(probe)
        assert all(after[key] is before[key] for key in before)

    def test_traced_simulation_matches_untraced(self):
        from repro.attacks.patterns import AttackSpec
        from repro.experiments.sweep import SweepSpec, attack_search_job, execute_job
        from repro.system.config import paper_system_config

        jobs = SweepSpec(
            mechanisms=("PRFM",), nrh_values=(20,),
            mixes=(("429.mcf", "510.parest"),), accesses_per_core=60,
            include_alone=False,
        ).expand()
        jobs.append(attack_search_job(
            paper_system_config(), "Chronus", 20,
            AttackSpec(pattern="double_sided", params=(("pair_rounds", 40),)),
        ))
        plain = {job.key: execute_job(job) for job in jobs}
        probe = LayerProbe(Tracer())
        probe.install()
        try:
            from repro.experiments import sweep

            traced = {job.key: sweep.execute_job(job) for job in jobs}
        finally:
            probe.uninstall()
        assert results_digest(traced) == results_digest(plain)
        values = probe.metrics(traced)
        assert values["system.sim_cycles"] == sum(r.cycles for r in plain.values())
        assert values["cpu.try_issue.calls"] > 0
        assert values["dram.act.calls"] > 0
        assert values["attacks.oracle.on_activate.calls"] > 0
        assert values["dram.rd.calls"] + values["dram.wr.calls"] == sum(
            r.controller_stats["reads_served"] + r.controller_stats["writes_served"]
            for r in plain.values()
        )
        assert sum(span.name == "job" for span in probe.tracer.spans) == len(jobs)
