"""Tests for the per-bank state machine, its timing enforcement and the
structure-of-arrays timing plane the bank views."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import Bank, BankState, BankStats, TimingViolation
from repro.dram.device import DramDevice
from repro.dram.organization import PAPER_ORGANIZATION
from repro.dram.timing import ddr5_3200an
from repro.dram.timing_plane import NO_ROW, BankArrayTiming

TIMING = ddr5_3200an()


@pytest.fixture
def bank():
    return Bank(0, ddr5_3200an())


@pytest.fixture
def prac_bank():
    return Bank(0, ddr5_3200an(prac=True))


class TestActivate:
    def test_initially_idle(self, bank):
        assert bank.state is BankState.IDLE
        assert bank.open_row is None
        assert bank.can_activate(0)

    def test_activate_opens_row(self, bank):
        bank.activate(row=42, cycle=0)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 42
        assert bank.is_open(42)
        assert not bank.is_open(43)

    def test_activate_when_open_rejected(self, bank):
        bank.activate(10, 0)
        assert not bank.can_activate(1000)
        with pytest.raises(TimingViolation):
            bank.activate(11, 1000)

    def test_activate_counts(self, bank):
        bank.activate(1, 0)
        bank.precharge(bank.timing.tRAS)
        bank.activate(2, bank.timing.tRAS + bank.timing.tRP)
        assert bank.stats.activations == 2

    def test_trc_between_activations(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        bank.precharge(t.tRAS)
        # The next ACT must respect both tRAS+tRP and tRC.
        earliest = max(t.tRC, t.tRAS + t.tRP)
        assert not bank.can_activate(earliest - 1)
        assert bank.can_activate(earliest)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, bank):
        bank.activate(1, 0)
        assert not bank.can_precharge(bank.timing.tRAS - 1)
        with pytest.raises(TimingViolation):
            bank.precharge(bank.timing.tRAS - 1)

    def test_precharge_returns_closed_row(self, bank):
        bank.activate(7, 0)
        assert bank.precharge(bank.timing.tRAS) == 7
        assert bank.state is BankState.IDLE
        assert bank.open_row is None

    def test_precharge_idle_rejected(self, bank):
        with pytest.raises(TimingViolation):
            bank.precharge(100)

    def test_act_after_precharge_waits_trp(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        bank.precharge(t.tRAS)
        assert not bank.can_activate(t.tRAS + t.tRP - 1)
        assert bank.can_activate(max(t.tRAS + t.tRP, t.tRC))


class TestReadWrite:
    def test_read_before_trcd_rejected(self, bank):
        bank.activate(1, 0)
        assert not bank.can_read(bank.timing.tRCD - 1)
        with pytest.raises(TimingViolation):
            bank.read(bank.timing.tRCD - 1)

    def test_read_returns_data_ready_cycle(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        ready = bank.read(t.tRCD)
        assert ready == t.tRCD + t.tCL + t.tBL

    def test_read_delays_precharge_by_trtp(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        read_cycle = t.tRAS  # read late so tRTP dominates
        bank.read(read_cycle)
        assert not bank.can_precharge(read_cycle + t.tRTP - 1)
        assert bank.can_precharge(read_cycle + t.tRTP)

    def test_write_delays_precharge_by_twr(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        done = bank.write(t.tRCD)
        assert done == t.tRCD + t.tCWL + t.tBL
        assert not bank.can_precharge(done + t.tWR - 1)
        assert bank.can_precharge(max(done + t.tWR, t.tRAS))

    def test_column_to_column_delay(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        bank.read(t.tRCD)
        assert not bank.can_read(t.tRCD + t.tCCD - 1)
        assert bank.can_read(t.tRCD + t.tCCD)

    def test_read_idle_rejected(self, bank):
        with pytest.raises(TimingViolation):
            bank.read(100)

    def test_counts(self, bank):
        t = bank.timing
        bank.activate(1, 0)
        bank.read(t.tRCD)
        bank.write(t.tRCD + t.tCCD)
        assert bank.stats.reads == 1
        assert bank.stats.writes == 1


class TestPracTimingsChangeBehaviour:
    def test_prac_allows_earlier_precharge(self, bank, prac_bank):
        """With PRAC, tRAS shrinks so an idle row closes sooner."""
        bank.activate(1, 0)
        prac_bank.activate(1, 0)
        assert prac_bank.timing.tRAS < bank.timing.tRAS
        assert prac_bank.can_precharge(prac_bank.timing.tRAS)
        assert not bank.can_precharge(prac_bank.timing.tRAS)

    def test_prac_delays_reactivation(self, bank, prac_bank):
        """With PRAC, tRP grows so a row conflict costs more."""
        for b in (bank, prac_bank):
            b.activate(1, 0)
            b.precharge(b.timing.tRAS)
        base_ready = bank.ready_cycle_for_activate()
        prac_ready = prac_bank.ready_cycle_for_activate()
        assert prac_ready > base_ready


class TestBlockAndVictimRefresh:
    def test_block_requires_idle(self, bank):
        bank.activate(1, 0)
        with pytest.raises(TimingViolation):
            bank.block(10, 100)

    def test_block_delays_activation(self, bank):
        bank.block(0, 500)
        assert not bank.can_activate(499)
        assert bank.can_activate(500)

    def test_victim_refresh_blocks_for_rows_times_trc(self, bank):
        t = bank.timing
        done = bank.victim_refresh(0, rows=4)
        assert done == 4 * t.tRC
        assert not bank.can_activate(done - 1)
        assert bank.can_activate(done)
        assert bank.stats.victim_refreshes == 4

    def test_victim_refresh_requires_idle(self, bank):
        bank.activate(1, 0)
        with pytest.raises(TimingViolation):
            bank.victim_refresh(10)


class TestStatsMerge:
    def test_merge(self):
        a = BankStats(activations=1, precharges=2, reads=3, writes=4, victim_refreshes=5)
        b = BankStats(activations=10, precharges=20, reads=30, writes=40, victim_refreshes=50)
        a.merge(b)
        assert (a.activations, a.precharges, a.reads, a.writes, a.victim_refreshes) == (
            11, 22, 33, 44, 55,
        )


class TestViolations:
    """Every illegal command class raises with its register in the text."""

    @pytest.fixture()
    def open_bank(self):
        """Row 5 open since cycle 0."""
        bank = Bank(0, TIMING)
        bank.activate(5, 0)
        return bank

    def test_activate_on_open_bank(self, open_bank):
        cycle = TIMING.tRC + 10
        with pytest.raises(TimingViolation) as exc:
            open_bank.activate(6, cycle)
        assert str(exc.value) == (
            f"bank 0: ACT at cycle {cycle} illegal "
            f"(state=BankState.ACTIVE, next_act={TIMING.tRC})"
        )

    def test_activate_too_early(self, open_bank):
        open_bank.precharge(TIMING.tRAS)
        # The bank is idle but tRP has not elapsed yet.
        ready = max(TIMING.tRC, TIMING.tRAS + TIMING.tRP)
        with pytest.raises(TimingViolation) as exc:
            open_bank.activate(6, TIMING.tRAS + 1)
        assert str(exc.value) == (
            f"bank 0: ACT at cycle {TIMING.tRAS + 1} illegal "
            f"(state=BankState.IDLE, next_act={ready})"
        )

    def test_precharge_on_idle_bank(self):
        with pytest.raises(TimingViolation) as exc:
            Bank(0, TIMING).precharge(100)
        assert str(exc.value) == (
            "bank 0: PRE at cycle 100 illegal (state=BankState.IDLE, next_pre=0)"
        )

    def test_precharge_too_early(self, open_bank):
        with pytest.raises(TimingViolation) as exc:
            open_bank.precharge(1)  # < tRAS
        assert str(exc.value) == (
            "bank 0: PRE at cycle 1 illegal "
            f"(state=BankState.ACTIVE, next_pre={TIMING.tRAS})"
        )

    def test_read_on_idle_bank(self):
        with pytest.raises(TimingViolation) as exc:
            Bank(0, TIMING).read(100)
        assert str(exc.value) == (
            "bank 0: RD at cycle 100 illegal (state=BankState.IDLE, next_rd=0)"
        )

    def test_read_too_early(self, open_bank):
        with pytest.raises(TimingViolation) as exc:
            open_bank.read(1)  # < tRCD
        assert str(exc.value) == (
            "bank 0: RD at cycle 1 illegal "
            f"(state=BankState.ACTIVE, next_rd={TIMING.tRCD})"
        )

    def test_write_on_idle_bank(self):
        with pytest.raises(TimingViolation) as exc:
            Bank(0, TIMING).write(100)
        assert str(exc.value) == (
            "bank 0: WR at cycle 100 illegal (state=BankState.IDLE, next_wr=0)"
        )

    def test_write_too_early(self, open_bank):
        with pytest.raises(TimingViolation) as exc:
            open_bank.write(1)  # < tRCD
        assert str(exc.value) == (
            "bank 0: WR at cycle 1 illegal "
            f"(state=BankState.ACTIVE, next_wr={TIMING.tRCD})"
        )

    def test_block_on_open_bank(self, open_bank):
        with pytest.raises(TimingViolation) as exc:
            open_bank.block(100, 32)
        assert str(exc.value) == "bank 0: cannot block an open bank at cycle 100"

    def test_victim_refresh_on_open_bank(self, open_bank):
        with pytest.raises(TimingViolation) as exc:
            open_bank.victim_refresh(100)
        assert str(exc.value) == (
            "bank 0: VRR requires a precharged bank at cycle 100"
        )

    def test_violation_is_runtime_error(self):
        with pytest.raises(RuntimeError):
            Bank(0, TIMING).read(0)


def apply_command_strict(bank, op, row, cycle):
    """Run one command; a :class:`TimingViolation` propagates."""
    if op == "act":
        bank.activate(row, cycle)
    elif op == "pre":
        bank.precharge(cycle)
    elif op == "rd":
        bank.read(cycle)
    elif op == "wr":
        bank.write(cycle)
    elif op == "block":
        bank.block(cycle, 10 + row)
    else:
        bank.victim_refresh(cycle, rows=1 + row % 3)


def apply_command(bank, op, row, cycle):
    """Run one command, swallowing a :class:`TimingViolation`."""
    try:
        apply_command_strict(bank, op, row, cycle)
    except TimingViolation:
        pass


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


class TestTimingPlane:
    """The plane buffers the bank views, and the plane container itself."""

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_plane_slot_matches_registers(self, stream):
        """A shared plane's slot always mirrors the view's registers, and
        the neighbouring slots are never touched."""
        plane = BankArrayTiming(3)
        bank = Bank(1, TIMING, plane=plane, index=1)
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            apply_command(bank, op, row, cycle)
            assert plane.next_act[1] == bank.ready_cycle_for_activate()
            assert plane.next_pre[1] == bank.ready_cycle_for_precharge()
            assert plane.next_rd[1] == bank.ready_cycle_for_read()
            assert plane.next_wr[1] == bank.ready_cycle_for_write()
            open_row = bank.open_row
            assert plane.open_row[1] == (NO_ROW if open_row is None else open_row)
            assert (bank.state is BankState.ACTIVE) == (open_row is not None)
            last = bank.last_act_cycle
            assert plane.last_act[1] == (NO_ROW if last is None else last)
        for slot in (0, 2):
            assert plane.open_row[slot] == NO_ROW
            assert plane.last_act[slot] == NO_ROW
            assert plane.next_act[slot] == 0

    def test_stats_totals_of_a_mixed_stream(self):
        bank = Bank(0, TIMING)
        cycle = 0
        for _ in range(3):
            bank.activate(4, cycle)
            cycle += TIMING.tRCD
            bank.read(cycle)
            cycle += TIMING.tCCD
            bank.write(cycle)
            cycle = max(bank.ready_cycle_for_precharge(), cycle + TIMING.tCCD)
            bank.precharge(cycle)
            cycle = bank.ready_cycle_for_activate()
            bank.victim_refresh(cycle, rows=2)
            cycle = bank.ready_cycle_for_activate()
            bank.block(cycle, 16)
            cycle = bank.ready_cycle_for_activate()
        merged = BankStats()
        merged.merge(bank.stats)
        merged.merge(bank.stats)
        assert (
            merged.activations,
            merged.precharges,
            merged.reads,
            merged.writes,
            merged.victim_refreshes,
        ) == (6, 6, 6, 6, 12)

    def test_shared_plane_view(self):
        plane = BankArrayTiming(4)
        bank = Bank(2, TIMING, plane=plane, index=2)
        bank.activate(9, 0)
        assert plane.open_row[2] == 9
        assert plane.open_row[1] == NO_ROW

    def test_shared_plane_requires_index(self):
        with pytest.raises(ValueError, match="slot index"):
            Bank(0, TIMING, plane=BankArrayTiming(4))

    def test_device_banks_share_one_plane(self):
        device = DramDevice(PAPER_ORGANIZATION, TIMING)
        plane = device.timing_plane
        assert plane.num_banks == PAPER_ORGANIZATION.total_banks
        assert all(
            bank.plane is plane and bank.index == bank_id
            for bank_id, bank in enumerate(device.banks)
        )

    def test_memoryview_twins_share_storage(self):
        plane = BankArrayTiming(4)
        plane.next_rd_mv[1] = 77
        assert plane.next_rd[1] == 77
        plane.open_row[2] = 5
        assert plane.open_row_mv[2] == 5

    def test_registers_hold_64_bit_cycles(self):
        plane = BankArrayTiming(1)
        plane.next_act_mv[0] = 1 << 62
        assert plane.next_act[0] == 1 << 62

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="num_banks"):
            BankArrayTiming(0)


def register_snapshot(bank):
    """Every register and counter a command may write."""
    return (
        bank.open_row,
        bank.last_act_cycle,
        bank.ready_cycle_for_activate(),
        bank.ready_cycle_for_precharge(),
        bank.ready_cycle_for_read(),
        bank.ready_cycle_for_write(),
        (
            bank.stats.activations,
            bank.stats.precharges,
            bank.stats.reads,
            bank.stats.writes,
            bank.stats.victim_refreshes,
        ),
    )


def command_is_legal(bank, op, cycle):
    """What the bank's own predicates say about ``op`` at ``cycle``."""
    if op == "act":
        return bank.can_activate(cycle)
    if op == "pre":
        return bank.can_precharge(cycle)
    if op == "rd":
        return bank.can_read(cycle)
    if op == "wr":
        return bank.can_write(cycle)
    # Maintenance (block, VRR) only needs a precharged bank.
    return not bank.is_open()


def ready_cycle(bank, op):
    """The register that gates ``op`` (maintenance is gated by the ACT one)."""
    if op == "pre":
        return bank.ready_cycle_for_precharge()
    if op == "rd":
        return bank.ready_cycle_for_read()
    if op == "wr":
        return bank.ready_cycle_for_write()
    return bank.ready_cycle_for_activate()


#: Like ``command_streams``, but a gap of -1 lands exactly on the cycle the
#: command's register names and -2 one cycle before it, so both sides of
#: every ``>=`` boundary are hit in each stream.
boundary_streams = st.lists(
    st.tuples(
        st.sampled_from(("act", "pre", "rd", "wr", "block", "vrr")),
        st.integers(0, 7),
        st.one_of(st.sampled_from((-2, -1)), st.integers(0, 40)),
    ),
    min_size=1,
    max_size=200,
)


def next_cycle(bank, op, cycle, gap):
    """Advance by ``gap``, or snap onto (-1) / just before (-2) the boundary."""
    if gap >= 0:
        return cycle + gap
    return max(cycle, ready_cycle(bank, op) + gap + 1)


class TestCommandLegality:
    """The predicates the controller schedules with and the checks the
    commands enforce are written separately; they must never disagree."""

    @settings(max_examples=60, deadline=None)
    @given(stream=boundary_streams)
    def test_predicates_agree_with_commands(self, stream):
        bank = Bank(0, TIMING)
        cycle = 0
        for op, row, gap in stream:
            cycle = next_cycle(bank, op, cycle, gap)
            legal = command_is_legal(bank, op, cycle)
            try:
                apply_command_strict(bank, op, row, cycle)
            except TimingViolation:
                assert not legal, (op, cycle)
            else:
                assert legal, (op, cycle)

    @settings(max_examples=60, deadline=None)
    @given(stream=boundary_streams)
    def test_rejected_command_changes_nothing(self, stream):
        bank = Bank(0, TIMING)
        cycle = 0
        for op, row, gap in stream:
            cycle = next_cycle(bank, op, cycle, gap)
            before = register_snapshot(bank)
            try:
                apply_command_strict(bank, op, row, cycle)
            except TimingViolation:
                assert register_snapshot(bank) == before, (op, cycle)

