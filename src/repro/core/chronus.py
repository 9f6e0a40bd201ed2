"""Chronus: the paper's proposal (§7).

Chronus addresses PRAC's two major weaknesses with two components:

1. **Concurrent Counter Update (CCU).**  Row activation counters are moved to
   a small *counter subarray* per bank and updated by a decrementer circuit
   concurrently with the data-row access (exploiting subarray-level
   parallelism).  Consequently Chronus keeps the *baseline* (non-PRAC) DRAM
   timing parameters -- the single largest source of PRAC's overhead at
   modern ``N_RH`` values.

2. **Chronus Back-Off.**  Instead of a fixed number of RFMs followed by a
   delay period, Chronus keeps the back-off signal asserted until *every* row
   whose activation count reached the back-off threshold has had its victims
   refreshed, and it never enforces a delay period.  This removes the wave
   attack (the attacker can no longer out-run the mitigation), which lets
   Chronus use a much less aggressive back-off threshold
   (``NBO < N_RH - Anormal``, §8).

``Chronus-PB`` (Chronus with PRAC Back-Off) is the paper's ablation: CCU only,
with PRAC-4's fixed-RFM back-off policy.  It is implemented as a thin PRAC
subclass that does not require the PRAC timings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.security import (
    DEFAULT_PARAMETERS,
    SecurityParameters,
    att_required_entries,
    chronus_secure_backoff_threshold,
)
from repro.core.counters import (
    AggressorTrackingTable,
    CounterSubarray,
    PerRowCounters,
)
from repro.core.mitigation import DEFAULT_BLAST_RADIUS, OnDieMitigation
from repro.core.prac import PRAC, counter_width_bits


#: Energy overhead of the counter-subarray activation + counter update on a
#: DRAM row access, from the paper's SPICE evaluation (§7.1): +19.07 %.
CCU_ROW_ACCESS_ENERGY_OVERHEAD = 0.1907


class Chronus(OnDieMitigation):
    """Chronus: CCU + Chronus Back-Off."""

    #: CCU keeps the baseline timings.
    requires_prac_timings = False

    #: Extra energy per row access for the counter-subarray update.
    act_energy_multiplier = 1.0 + CCU_ROW_ACCESS_ENERGY_OVERHEAD

    name = "Chronus"

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        nbo: Optional[int] = None,
        att_entries: Optional[int] = None,
        blast_radius: int = DEFAULT_BLAST_RADIUS,
        borrowed_refresh: bool = True,
        counter_subarray: Optional[CounterSubarray] = None,
        security_params: SecurityParameters = DEFAULT_PARAMETERS,
    ) -> None:
        """Create a Chronus instance.

        Args:
            nrh: RowHammer threshold the device must defend against.
            num_banks: number of banks in the channel.
            nbo: back-off threshold.  Defaults to the largest secure value,
                ``min(N_RH - Anormal - 1, 256)`` (§8; the cap comes from the
                8-bit counters in the counter subarray).
            att_entries: Aggressor Tracking Table size (defaults to the
                secure minimum ``Anormal + 1``).
            blast_radius: victim rows on each side of an aggressor.
            borrowed_refresh: refresh the victims of one tracked aggressor
                per bank every other periodic REF.
            counter_subarray: counter-subarray geometry (for storage
                accounting); defaults to the paper's reference configuration.
            security_params: physical parameters used for the default
                configuration.
        """
        super().__init__(nrh, blast_radius)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        self.security_params = security_params
        self.is_secure = True
        if nbo is None:
            nbo = chronus_secure_backoff_threshold(nrh, security_params)
        self.nbo = nbo
        if att_entries is None:
            att_entries = att_required_entries(security_params, prac_timings=False)
        self.att_entries = att_entries
        self.counter_subarray = counter_subarray or CounterSubarray()
        self.borrowed_refresh = borrowed_refresh

        self.counters = PerRowCounters(num_banks)
        self.att: List[AggressorTrackingTable] = [
            AggressorTrackingTable(att_entries) for _ in range(num_banks)
        ]
        #: Rows whose activation count reached the back-off threshold and
        #: whose victims have not been refreshed yet, per bank.
        self._hot_rows: List[Set[int]] = [set() for _ in range(num_banks)]
        #: Total rows across all banks awaiting a preventive refresh; kept
        #: incrementally so the per-tick back-off probe is O(1) instead of
        #: scanning every bank's set.
        self._hot_total = 0
        self._backoff_was_asserted = False
        self._borrow_toggle = False

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        """CCU updates the counter concurrently with the activation."""
        self.stats.tracked_activations += 1
        count = self.counters.increment(bank_id, row)
        self.att[bank_id].update(row, count)
        if count >= self.nbo:
            if not self._hot_total:
                self.stats.backoffs += 1
            hot = self._hot_rows[bank_id]
            if row not in hot:
                hot.add(row)
                self._hot_total += 1

    def on_precharge(self, bank_id: int, row: int, cycle: int) -> None:
        """No work on precharge: the counter was already updated (CCU)."""

    def on_periodic_refresh(self, bank_ids: List[int], cycle: int) -> None:
        if not self.borrowed_refresh:
            return
        self._borrow_toggle = not self._borrow_toggle
        if not self._borrow_toggle:
            return
        for bank_id in bank_ids:
            entry = self.att[bank_id].max_entry()
            if entry is None or entry.count == 0:
                continue
            self._forget_row(bank_id, entry.row, cycle)
            self.stats.borrowed_refreshes += self.victim_rows_per_aggressor

    def on_refresh_window(self, cycle: int) -> None:
        self.counters.reset_all()
        for att in self.att:
            att.clear()
        for hot in self._hot_rows:
            hot.clear()
        self._hot_total = 0

    # ------------------------------------------------------------------ #
    # Back-off protocol (Chronus Back-Off: dynamic, no delay period)
    # ------------------------------------------------------------------ #
    def backoff_asserted(self) -> bool:
        return self._hot_total > 0

    def wants_more_rfm(self) -> bool:
        return self.backoff_asserted()

    def on_rfm(self, bank_ids: List[int], cycle: int) -> int:
        """Refresh the victims of the hottest pending row in each bank.

        The back-off de-asserts automatically once no row at or above the
        threshold remains (property P3 of §8).
        """
        refreshed_rows = 0
        for bank_id in bank_ids:
            hot = self._hot_rows[bank_id]
            target: Optional[int] = None
            if hot:
                target = max(hot, key=lambda r: self.counters.get(bank_id, r))
            else:
                entry = self.att[bank_id].max_entry()
                if entry is not None and entry.count > 0:
                    target = entry.row
            if target is None:
                continue
            self._forget_row(bank_id, target, cycle)
            refreshed_rows += self.victim_rows_per_aggressor
        self.stats.rfm_commands += 1
        self.stats.preventive_refresh_rows += refreshed_rows
        return refreshed_rows

    def _forget_row(self, bank_id: int, row: int, cycle: int = 0) -> None:
        """Reset all tracking state of a row after its victims are refreshed."""
        self.counters.reset_row(bank_id, row)
        self.att[bank_id].invalidate(row)
        hot = self._hot_rows[bank_id]
        if row in hot:
            hot.remove(row)
            self._hot_total -= 1
        self.notify_victims_refreshed(
            bank_id, row, self.victim_rows_per_aggressor, cycle
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def pending_hot_rows(self) -> int:
        """Rows currently awaiting a preventive refresh (all banks)."""
        return self._hot_total

    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """Chronus keeps one counter per row in the DRAM counter subarray."""
        counter_bits = counter_width_bits(self.nrh)
        return {"dram_bits": num_banks * rows_per_bank * counter_bits}

    def reset(self) -> None:
        super().reset()
        self.counters.reset_all()
        for att in self.att:
            att.clear()
        for hot in self._hot_rows:
            hot.clear()
        self._hot_total = 0
        self._borrow_toggle = False


class ChronusPB(PRAC):
    """Chronus-PB: Concurrent Counter Update with PRAC-4's back-off policy.

    Used by the paper to isolate the benefit of CCU from the benefit of
    Chronus Back-Off: it keeps the baseline timings (CCU) but performs a
    fixed number of preventive refreshes per back-off and enforces the delay
    period, so it remains vulnerable to the wave attack and must use PRAC's
    conservative back-off threshold.
    """

    requires_prac_timings = False
    act_energy_multiplier = 1.0 + CCU_ROW_ACCESS_ENERGY_OVERHEAD

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        nref: int = 4,
        **kwargs,
    ) -> None:
        super().__init__(nrh, num_banks, nref=nref, **kwargs)
        self.name = "Chronus-PB"
