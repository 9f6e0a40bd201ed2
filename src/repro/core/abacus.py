"""ABACuS: All-Bank Activation Counters (Olgun et al., USENIX Security 2024).

ABACuS exploits the observation that -- because of cache-block interleaving
across banks and the spatial locality of workloads -- rows with the *same row
address* in different banks tend to be activated at around the same time.  It
therefore keeps a single shared counter per row address (a *sibling
activation counter*, SAC) together with a per-bank Row Activation Vector
(RAV), instead of one counter per (bank, row) pair.

The counters are organised as a Misra-Gries table in the memory controller,
like Graphene, but with ~``num_banks``x fewer entries; when a sibling counter
reaches the threshold, the victims of that row address are refreshed in every
bank whose RAV bit is set.

Appendix C of the Chronus paper compares Chronus against ABACuS using
ABACuS's own address mapping.

The table is a dict of :class:`SiblingEntry` objects keyed by row address,
with each RAV as a Python set; victim fan-out visits the RAV's banks in
ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.mitigation import (
    DEFAULT_BLAST_RADIUS,
    ControllerMitigation,
    PreventiveRefresh,
)


@dataclass
class SiblingEntry:
    """A shared activation counter for one row address across all banks."""

    row: int
    count: int
    #: Banks that have activated this row address since the last counter
    #: increment (the Row Activation Vector).
    rav: Set[int] = field(default_factory=set)
    last_trigger: int = 0


class ABACuS(ControllerMitigation):
    """ABACuS all-bank activation counters."""

    name = "ABACuS"

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        reset_window_activations: Optional[int] = None,
        table_entries: Optional[int] = None,
        blast_radius: int = DEFAULT_BLAST_RADIUS,
    ) -> None:
        """Create an ABACuS instance.

        Args:
            nrh: RowHammer threshold.
            num_banks: number of banks sharing the sibling counters.
            reset_window_activations: maximum activations per bank within the
                table reset window (defaults to half a refresh window of
                back-to-back activations).
            table_entries: number of sibling counters (defaults to the
                Misra-Gries bound ``window / threshold``).
            blast_radius: victim rows on each side of an aggressor.
        """
        super().__init__(nrh, blast_radius)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        if reset_window_activations is None:
            reset_window_activations = int(32_000_000 / 2 / 47)
        self.reset_window_activations = reset_window_activations
        self.trigger_threshold = max(1, nrh // 2)
        if table_entries is None:
            table_entries = max(
                1, math.ceil(reset_window_activations / self.trigger_threshold) + 1
            )
        self.table_entries = table_entries
        self._spillover = 0
        self._table: Dict[int, SiblingEntry] = {}

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        entry = self._observe(row)
        # The sibling counter only increments when a bank activates a row
        # address that was already activated since the last increment; this
        # makes the counter track the *maximum* per-bank count.
        if bank_id in entry.rav:
            entry.count += 1
            entry.rav = {bank_id}
        else:
            entry.rav.add(bank_id)
        if entry.count - entry.last_trigger >= self.trigger_threshold:
            entry.last_trigger = entry.count
            self._refresh_siblings(entry)

    def _observe(self, row: int) -> SiblingEntry:
        """Misra-Gries style lookup / insert of the sibling entry for ``row``."""
        entry = self._table.get(row)
        if entry is not None:
            return entry
        if len(self._table) < self.table_entries:
            entry = SiblingEntry(row=row, count=self._spillover,
                                 last_trigger=self._spillover)
            self._table[row] = entry
            return entry
        self._spillover += 1
        min_row = min(self._table, key=lambda r: self._table[r].count)
        min_entry = self._table[min_row]
        if self._spillover >= min_entry.count:
            del self._table[min_row]
            self._spillover, inherited = min_entry.count, self._spillover
            entry = SiblingEntry(row=row, count=inherited, last_trigger=inherited)
            self._table[row] = entry
            return entry
        return SiblingEntry(row=row, count=self._spillover,
                            last_trigger=self._spillover)

    def _refresh_siblings(self, entry: SiblingEntry) -> None:
        """Refresh the victims of the row address in every bank that used it."""
        banks = entry.rav if entry.rav else set(range(self.num_banks))
        for bank_id in sorted(banks):
            self.queue_refresh(
                PreventiveRefresh(
                    bank_id=bank_id,
                    aggressor_row=entry.row,
                    num_rows=self.victim_rows_per_aggressor,
                )
            )
        entry.rav = set()

    def on_refresh_window(self, cycle: int) -> None:
        self._reset_table()

    def _reset_table(self) -> None:
        self._spillover = 0
        self._table.clear()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def spillover(self) -> int:
        """Current spillover-counter value."""
        return self._spillover

    def sibling_entries(self) -> Dict[int, SiblingEntry]:
        """The tracked sibling counters, keyed by row address."""
        return self._table

    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """ABACuS keeps its sibling counters in CAM+SRAM in the controller."""
        row_bits = max(1, math.ceil(math.log2(rows_per_bank)))
        count_bits = max(1, math.ceil(math.log2(max(2, self.trigger_threshold)))) + 1
        entry_bits = row_bits + count_bits + num_banks  # RAV bitvector
        entries = max(
            1, math.ceil(self.reset_window_activations / self.trigger_threshold) + 1
        )
        return {"cam_bits": entries * entry_bits}

    def reset(self) -> None:
        super().reset()
        self._reset_table()
