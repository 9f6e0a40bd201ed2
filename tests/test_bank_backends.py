"""Object/array bank-timing backend equivalence.

The structure-of-arrays timing plane must be *observably identical* to the
attribute-per-register reference bank: same legality decisions, same
:class:`TimingViolation` classes and messages, same register trajectories,
same stats -- byte for byte, so cached simulation results never depend on
the backend.  Four layers pin that:

1. randomized command streams (Hypothesis) driven through an object/array
   bank pair, comparing every observable -- including raised violations --
   after every command;
2. direct illegal-command coverage: every command class raises
   :class:`TimingViolation` through the array backend, with the exact
   object-backend message, for both its state violation and its too-early
   timing violation;
3. :class:`BankStats` totals (and ``merge`` results) identical across
   backends after a mixed legal stream;
4. the full-simulator property test: for all 12 mechanisms x 1,2 channels
   the complete :class:`SimulationResult` payload is byte-identical across
   backends (``REPRO_BANK_BACKEND`` toggles the default the device
   resolves).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factory import MECHANISM_NAMES
from repro.dram.bank import Bank, BankStats, TimingViolation
from repro.dram.device import DramDevice
from repro.dram.timing import ddr5_3200an
from repro.dram.timing_plane import (
    BANK_BACKENDS,
    DEFAULT_BANK_BACKEND,
    NO_ROW,
    BankArrayTiming,
    resolve_bank_backend,
)
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import simulate

TIMING = ddr5_3200an()


def make_pair():
    """One bank per backend, same id and timing."""
    return (
        Bank(0, TIMING, backend="object"),
        Bank(0, TIMING, backend="array"),
    )


def observables(bank, cycle):
    """Every externally visible bank property at ``cycle``."""
    return {
        "state": bank.state,
        "open_row": bank.open_row,
        "last_act_cycle": bank.last_act_cycle,
        "next_act": bank.ready_cycle_for_activate(),
        "next_pre": bank.ready_cycle_for_precharge(),
        "next_rd": bank.ready_cycle_for_read(),
        "next_wr": bank.ready_cycle_for_write(),
        "can_activate": bank.can_activate(cycle),
        "can_precharge": bank.can_precharge(cycle),
        "can_read": bank.can_read(cycle),
        "can_write": bank.can_write(cycle),
        "is_open": bank.is_open(),
        "stats": (
            bank.stats.activations,
            bank.stats.precharges,
            bank.stats.reads,
            bank.stats.writes,
            bank.stats.victim_refreshes,
        ),
    }


def apply_command(bank, op, row, cycle):
    """Run one command; return ``(outcome, violation message or None)``."""
    try:
        if op == "act":
            return bank.activate(row, cycle), None
        if op == "pre":
            return bank.precharge(cycle), None
        if op == "rd":
            return bank.read(cycle), None
        if op == "wr":
            return bank.write(cycle), None
        if op == "block":
            return bank.block(cycle, 10 + row), None
        return bank.victim_refresh(cycle, rows=1 + row % 3), None
    except TimingViolation as violation:
        return "violation", str(violation)


#: Command streams mixing all six command classes; ``gap`` values straddle
#: the DDR5 timing constants so both legal and too-early issues occur.
command_streams = st.lists(
    st.tuples(
        st.sampled_from(("act", "pre", "rd", "wr", "block", "vrr")),
        st.integers(0, 7),       # row operand
        st.integers(0, 40),      # cycle gap before the command
    ),
    min_size=1,
    max_size=200,
)


class TestDifferentialStreams:
    """Hypothesis: identical trajectories, violations and stats."""

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_command_stream_equivalence(self, stream):
        obj, arr = make_pair()
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            obj_out = apply_command(obj, op, row, cycle)
            arr_out = apply_command(arr, op, row, cycle)
            # Same return value, or the same violation with the same text.
            assert obj_out == arr_out
            assert observables(obj, cycle) == observables(arr, cycle)

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_plane_slot_matches_registers(self, stream):
        """The plane arrays always mirror the view's register values."""
        _, arr = make_pair()
        plane = arr.plane
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            apply_command(arr, op, row, cycle)
            assert int(plane.next_act[0]) == arr._next_act
            assert int(plane.next_pre[0]) == arr._next_pre
            assert int(plane.next_rd[0]) == arr._next_rd
            assert int(plane.next_wr[0]) == arr._next_wr
            open_row = arr.open_row
            assert int(plane.open_row[0]) == (NO_ROW if open_row is None else open_row)


class TestArrayBackendViolations:
    """Every illegal command class raises through the array backend."""

    @pytest.fixture()
    def open_pair(self):
        """Both banks with row 5 open at cycle 0."""
        obj, arr = make_pair()
        obj.activate(5, 0)
        arr.activate(5, 0)
        return obj, arr

    def _assert_same_violation(self, obj, arr, command, *args):
        with pytest.raises(TimingViolation) as obj_exc:
            getattr(obj, command)(*args)
        with pytest.raises(TimingViolation) as arr_exc:
            getattr(arr, command)(*args)
        assert str(arr_exc.value) == str(obj_exc.value)

    def test_activate_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "activate", 6, TIMING.tRC + 10)

    def test_activate_too_early(self, open_pair):
        obj, arr = open_pair
        obj.precharge(TIMING.tRAS)
        arr.precharge(TIMING.tRAS)
        # The bank is idle but tRP has not elapsed yet.
        self._assert_same_violation(obj, arr, "activate", 6, TIMING.tRAS + 1)

    def test_precharge_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "precharge", 100)

    def test_precharge_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "precharge", 1)  # < tRAS

    def test_read_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "read", 100)

    def test_read_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "read", 1)  # < tRCD

    def test_write_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "write", 100)

    def test_write_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "write", 1)  # < tRCD

    def test_block_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "block", 100, 32)

    def test_victim_refresh_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "victim_refresh", 100)

    def test_violation_is_runtime_error(self):
        _, arr = make_pair()
        with pytest.raises(RuntimeError):
            arr.read(0)


class TestBankStatsAcrossBackends:
    """Stats counting and merge totals are backend-independent."""

    def _run_mixed_stream(self, bank):
        cycle = 0
        for _ in range(3):
            bank.activate(4, cycle)
            cycle += TIMING.tRCD
            bank.read(cycle)
            cycle += TIMING.tCCD
            bank.write(cycle)
            cycle = max(
                bank.ready_cycle_for_precharge(), cycle + TIMING.tCCD
            )
            bank.precharge(cycle)
            cycle = bank.ready_cycle_for_activate()
            bank.victim_refresh(cycle, rows=2)
            cycle = bank.ready_cycle_for_activate()
            bank.block(cycle, 16)
            cycle = bank.ready_cycle_for_activate()

    def test_merge_totals_identical(self):
        obj, arr = make_pair()
        self._run_mixed_stream(obj)
        self._run_mixed_stream(arr)
        totals = {}
        for backend, bank in (("object", obj), ("array", arr)):
            merged = BankStats()
            merged.merge(bank.stats)
            merged.merge(bank.stats)
            totals[backend] = (
                merged.activations,
                merged.precharges,
                merged.reads,
                merged.writes,
                merged.victim_refreshes,
            )
        assert totals["object"] == totals["array"]
        # The stream is deterministic: pin the actual totals too.
        assert totals["array"] == (6, 6, 6, 6, 12)


class TestBackendResolution:
    """Constructor argument, environment variable and plane adoption."""

    def test_default_is_array(self, monkeypatch):
        monkeypatch.delenv("REPRO_BANK_BACKEND", raising=False)
        assert DEFAULT_BANK_BACKEND == "array"
        assert resolve_bank_backend(None) == "array"
        assert Bank(0, TIMING).backend == "array"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BANK_BACKEND", "object")
        assert resolve_bank_backend(None) == "object"
        assert Bank(0, TIMING).backend == "object"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BANK_BACKEND", "object")
        assert Bank(0, TIMING, backend="array").backend == "array"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown bank backend"):
            resolve_bank_backend("linkedlist")
        assert set(BANK_BACKENDS) == {"object", "array"}

    def test_shared_plane_implies_array(self):
        plane = BankArrayTiming(4)
        bank = Bank(2, TIMING, plane=plane, index=2)
        assert bank.backend == "array"
        bank.activate(9, 0)
        assert int(plane.open_row[2]) == 9

    def test_shared_plane_requires_index(self):
        with pytest.raises(ValueError, match="slot index"):
            Bank(0, TIMING, plane=BankArrayTiming(4))

    def test_device_resolves_env(self, monkeypatch):
        organization = paper_system_config().organization
        monkeypatch.setenv("REPRO_BANK_BACKEND", "object")
        device = DramDevice(organization, TIMING)
        assert device.bank_backend == "object"
        assert device.timing_plane is None
        monkeypatch.delenv("REPRO_BANK_BACKEND", raising=False)
        device = DramDevice(organization, TIMING)
        assert device.bank_backend == "array"
        assert device.timing_plane is not None
        assert device.timing_plane.num_banks == organization.total_banks

class TestTimingPlane:
    """The plane container itself: storage twins and validation."""

    def test_memoryview_twins_share_storage(self):
        plane = BankArrayTiming(4)
        plane.next_rd_mv[1] = 77
        assert int(plane.next_rd[1]) == 77
        plane.open_row[2] = 5
        assert plane.open_row_mv[2] == 5

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="num_banks"):
            BankArrayTiming(0)


def _result_payload(mechanism, channels, backend, monkeypatch):
    monkeypatch.setenv("REPRO_BANK_BACKEND", backend)
    base = paper_system_config().with_overrides(channels=channels)
    job = mechanism_job(base, ("429.mcf", "401.bzip2"), mechanism, 64, 300)
    result = simulate(
        job.config, build_job_traces(job), workload_name=job.workload_name
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestFullSimulationEquivalence:
    """Byte-identical SimulationResult payloads across bank backends."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_payloads_identical(self, mechanism, channels, monkeypatch):
        object_payload = _result_payload(mechanism, channels, "object", monkeypatch)
        array_payload = _result_payload(mechanism, channels, "array", monkeypatch)
        assert object_payload == array_payload
