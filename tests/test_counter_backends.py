"""Dict/array counter-store backend equivalence.

The array-backed data plane (PR 5) must be *observably identical* to the
dict reference layout: same counter values, same victim sets, same eviction
order, same statistics -- byte for byte, so cached simulation results never
depend on the backend.  Three layers pin that:

1. randomized ACT streams (Hypothesis) driven through Graphene / ABACuS /
   Hydra / PRAC / Chronus pairs built on both backends, comparing every
   observable after every event;
2. direct store-level equivalence for :class:`PerRowCounters` and
   :class:`AggressorTrackingTable` (values, insertion order, eviction and
   tie-breaking, threshold-bucket fast path);
3. the full-simulator property test: for all 12 mechanisms x 1,2 channels
   the complete :class:`SimulationResult` payload is byte-identical across
   backends (``REPRO_COUNTER_BACKEND`` toggles the default the factory
   resolves).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.abacus import ABACuS
from repro.core.chronus import Chronus
from repro.core.counters import (
    COUNTER_BACKENDS,
    AggressorTrackingTable,
    PerRowCounters,
    resolve_backend,
)
from repro.core.factory import MECHANISM_NAMES, build_mechanism
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.prac import PRAC
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import simulate

NUM_BANKS = 4

#: (bank, row) event streams: small domains force table collisions,
#: spillover evictions, RAV reuse and group promotions.
act_streams = st.lists(
    st.tuples(st.integers(0, NUM_BANKS - 1), st.integers(0, 9)),
    min_size=1,
    max_size=300,
)


def drain_refreshes(mechanism):
    """Pop every queued preventive refresh, in bank-then-FIFO order."""
    drained = []
    for bank_id in sorted(mechanism.banks_with_pending_refreshes()):
        while True:
            refresh = mechanism.pop_refresh(bank_id)
            if refresh is None:
                break
            drained.append((refresh.bank_id, refresh.aggressor_row, refresh.num_rows))
    return drained


def controller_observables(mechanism):
    return {
        "stats": mechanism.stats.as_dict(),
        "refreshes": drain_refreshes(mechanism),
    }


class TestControllerMechanismStreams:
    """Graphene / ABACuS / Hydra: identical victims for identical streams."""

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_graphene_equivalent(self, stream):
        pair = [
            Graphene(nrh=4, num_banks=NUM_BANKS, table_entries=3, backend=backend)
            for backend in COUNTER_BACKENDS
        ]
        self._assert_stream_equivalence(pair, stream)

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_abacus_equivalent(self, stream):
        pair = [
            ABACuS(nrh=4, num_banks=NUM_BANKS, table_entries=3, backend=backend)
            for backend in COUNTER_BACKENDS
        ]
        self._assert_stream_equivalence(pair, stream)

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_hydra_equivalent(self, stream):
        pair = [
            Hydra(nrh=8, num_banks=NUM_BANKS, group_size=4, rcc_entries=4,
                  backend=backend)
            for backend in COUNTER_BACKENDS
        ]
        self._assert_stream_equivalence(pair, stream)

    def _assert_stream_equivalence(self, pair, stream):
        dict_mech, array_mech = pair
        assert dict_mech.backend == "dict" and array_mech.backend == "array"
        for cycle, (bank, row) in enumerate(stream):
            dict_mech.on_activate(bank, row, cycle)
            array_mech.on_activate(bank, row, cycle)
            # Reset windows mid-stream exercise the clear paths too.
            if cycle % 97 == 96:
                dict_mech.on_refresh_window(cycle)
                array_mech.on_refresh_window(cycle)
        assert controller_observables(dict_mech) == controller_observables(array_mech)


class TestOnDieMechanismStreams:
    """PRAC / Chronus: identical back-off, RFM victims and counter state."""

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_prac_equivalent(self, stream):
        pair = [
            PRAC(nrh=64, num_banks=NUM_BANKS, nbo=4, att_entries=3,
                 backend=backend)
            for backend in COUNTER_BACKENDS
        ]
        self._assert_stream_equivalence(pair, stream, precharge=True)

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_chronus_equivalent(self, stream):
        pair = [
            Chronus(nrh=64, num_banks=NUM_BANKS, nbo=4, att_entries=3,
                    backend=backend)
            for backend in COUNTER_BACKENDS
        ]
        self._assert_stream_equivalence(pair, stream, precharge=False)

    def _assert_stream_equivalence(self, pair, stream, precharge):
        dict_mech, array_mech = pair
        all_banks = list(range(NUM_BANKS))
        for cycle, (bank, row) in enumerate(stream):
            for mech in pair:
                mech.on_activate(bank, row, cycle)
                if precharge:
                    mech.on_precharge(bank, row, cycle)
            assert dict_mech.backoff_asserted() == array_mech.backoff_asserted()
            # Serve the back-off exactly like the memory controller would.
            while dict_mech.wants_more_rfm():
                assert array_mech.wants_more_rfm()
                assert dict_mech.on_rfm(all_banks, cycle) == array_mech.on_rfm(
                    all_banks, cycle
                )
            assert not array_mech.wants_more_rfm()
            if cycle % 53 == 52:
                dict_mech.on_periodic_refresh(all_banks, cycle)
                array_mech.on_periodic_refresh(all_banks, cycle)
        assert dict_mech.stats.as_dict() == array_mech.stats.as_dict()
        for bank in all_banks:
            for row in range(10):
                assert dict_mech.counters.get(bank, row) == array_mech.counters.get(
                    bank, row
                )
            dict_max = dict_mech.att[bank].max_entry()
            array_max = array_mech.att[bank].max_entry()
            assert (dict_max is None) == (array_max is None)
            if dict_max is not None:
                assert (dict_max.row, dict_max.count) == (
                    array_max.row, array_max.count
                )


row_events = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, 15)),
        st.tuples(st.just("reset"), st.integers(0, 15)),
        st.tuples(st.just("reset_bank"), st.just(0)),
    ),
    min_size=1,
    max_size=300,
)


class TestPerRowCountersEquivalence:
    """Store-level: values, iteration order and the bucketed fast path."""

    @settings(max_examples=60, deadline=None)
    @given(events=row_events)
    def test_event_stream_equivalence(self, events):
        dict_store = PerRowCounters(1, backend="dict")
        array_store = PerRowCounters(1, backend="array")
        for kind, row in events:
            if kind == "inc":
                assert dict_store.increment(0, row) == array_store.increment(0, row)
            elif kind == "reset":
                dict_store.reset_row(0, row)
                array_store.reset_row(0, row)
            else:
                dict_store.reset_bank(0)
                array_store.reset_bank(0)
            # Insertion order (including re-insertion after a reset) and the
            # tie-broken maximum must match dict semantics exactly.
            assert list(dict_store.iter_bank(0)) == list(array_store.iter_bank(0))
            assert dict_store.max_row(0) == array_store.max_row(0)
            assert dict_store.nonzero_rows(0) == array_store.nonzero_rows(0)
            for threshold in (1, 2, 3, 5, 100):
                assert dict_store.rows_at_or_above(0, threshold) == (
                    array_store.rows_at_or_above(0, threshold)
                )

    def test_threshold_bucket_fast_path(self):
        store = PerRowCounters(1, backend="array")
        for _ in range(6):
            store.increment(0, 3)
        # 6 < 8: every bucket at or above bit_length(8)=4 is empty, so the
        # negative answer comes from the histogram without a row scan.
        assert store.rows_at_or_above(0, 8) == []
        assert store.rows_at_or_above(0, 6) == [3]
        assert store.rows_at_or_above(0, 7) == []

    def test_compaction_preserves_order(self):
        store = PerRowCounters(1, backend="array")
        for row in range(64):
            store.increment(0, row)
        for row in range(0, 64, 2):
            store.reset_row(0, row)  # many tombstones: forces compaction
        assert [row for row, _ in store.iter_bank(0)] == list(range(1, 64, 2))
        store.increment(0, 0)  # re-enters at the back, like a dict re-insert
        assert [row for row, _ in store.iter_bank(0)] == list(range(1, 64, 2)) + [0]


att_events = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(1, 50)),
        st.tuples(st.just("invalidate"), st.integers(0, 9), st.just(0)),
        st.tuples(st.just("pop_max"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


class TestAggressorTableEquivalence:
    """Slot/freelist ATT vs the reference entry list, including tie-breaks."""

    @settings(max_examples=60, deadline=None)
    @given(events=att_events)
    def test_event_stream_equivalence(self, events):
        dict_att = AggressorTrackingTable(3, backend="dict")
        array_att = AggressorTrackingTable(3, backend="array")
        for kind, row, count in events:
            if kind == "update":
                dict_att.update(row, count)
                array_att.update(row, count)
            elif kind == "invalidate":
                dict_att.invalidate(row)
                array_att.invalidate(row)
            else:
                # The RFM service pattern: invalidate the current maximum.
                entry = dict_att.max_entry()
                other = array_att.max_entry()
                assert (entry is None) == (other is None)
                if entry is not None:
                    assert (entry.row, entry.count) == (other.row, other.count)
                    dict_att.invalidate(entry.row)
                    array_att.invalidate(entry.row)
            assert len(dict_att) == len(array_att)
            assert dict_att.tracked_rows() == array_att.tracked_rows()
            assert [
                (e.row, e.count) for e in dict_att.valid_entries()
            ] == [(e.row, e.count) for e in array_att.valid_entries()]

    def test_freelist_reuses_lowest_slot_first(self):
        att = AggressorTrackingTable(3, backend="array")
        for row in (10, 11, 12):
            att.update(row, 5)
        att.invalidate(11)
        att.invalidate(10)
        att.update(20, 1)
        # Slot 0 (row 10's) is reused first, exactly like the reference
        # first-invalid-slot scan -- visible through the slot-ordered views.
        assert att.tracked_rows() == [20, 12]


def _result_payload(mechanism, channels, backend, monkeypatch):
    monkeypatch.setenv("REPRO_COUNTER_BACKEND", backend)
    base = paper_system_config().with_overrides(channels=channels)
    job = mechanism_job(base, ("429.mcf", "401.bzip2"), mechanism, 64, 300)
    result = simulate(
        job.config, build_job_traces(job), workload_name=job.workload_name
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestFullSimulationEquivalence:
    """Byte-identical SimulationResult payloads across backends."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_payloads_identical(self, mechanism, channels, monkeypatch):
        dict_payload = _result_payload(mechanism, channels, "dict", monkeypatch)
        array_payload = _result_payload(mechanism, channels, "array", monkeypatch)
        assert dict_payload == array_payload

    def test_env_and_factory_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_COUNTER_BACKEND", raising=False)
        assert resolve_backend(None) == "array"
        monkeypatch.setenv("REPRO_COUNTER_BACKEND", "dict")
        assert resolve_backend(None) == "dict"
        setup = build_mechanism("Graphene", nrh=64, num_banks=4, backend="array")
        assert setup.controller.backend == "array"
        with pytest.raises(ValueError):
            resolve_backend("btree")
