"""Hydra: hybrid row-activation tracking (Qureshi et al., ISCA 2022).

Hydra keeps exact per-row activation counts at low SRAM cost by splitting the
tracker into three structures:

* **Group Count Table (GCT)** -- an SRAM table in the memory controller with
  one counter per *group* of consecutive rows.  While a group's aggregate
  count stays below the group threshold, no per-row state exists.
* **Row Count Table (RCT)** -- per-row counters stored in a reserved region
  of DRAM.  A group's rows are switched to per-row tracking (initialised
  conservatively to the group threshold) once the group counter saturates.
* **Row Count Cache (RCC)** -- an SRAM cache of recently used RCT entries.
  An RCC miss costs additional DRAM traffic to fetch (and later write back)
  the RCT entry, which is Hydra's main source of slowdown at low ``N_RH``.

When a per-row count reaches the row threshold, the row's victims are
preventively refreshed and its counter resets.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.mitigation import (
    DEFAULT_BLAST_RADIUS,
    ControllerMitigation,
    PreventiveRefresh,
)


class RowCountCache:
    """A small LRU cache of Row Count Table entries (the RCC)."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, key: Tuple[int, int]) -> bool:
        """Touch ``key``; return True on hit, False on miss (key inserted)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[key] = 0
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class Hydra(ControllerMitigation):
    """Hydra hybrid tracker."""

    name = "Hydra"

    #: Rows per GCT group (Hydra's default granularity).
    DEFAULT_GROUP_SIZE = 128

    #: RCC capacity in entries (Hydra uses a few-thousand-entry cache).
    DEFAULT_RCC_ENTRIES = 4096

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        group_size: int = DEFAULT_GROUP_SIZE,
        rcc_entries: int = DEFAULT_RCC_ENTRIES,
        group_threshold: Optional[int] = None,
        row_threshold: Optional[int] = None,
        blast_radius: int = DEFAULT_BLAST_RADIUS,
    ) -> None:
        """Create a Hydra instance.

        Args:
            nrh: RowHammer threshold.
            num_banks: number of banks.
            group_size: rows per Group Count Table entry.
            rcc_entries: Row Count Cache capacity (entries).
            group_threshold: aggregate activations after which a group moves
                to per-row tracking (defaults to ``nrh / 4``).
            row_threshold: per-row count at which victims are refreshed
                (defaults to ``nrh / 2``).
            blast_radius: victim rows on each side of an aggressor.
        """
        super().__init__(nrh, blast_radius)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        self.num_banks = num_banks
        self.group_size = group_size
        self.group_threshold = group_threshold if group_threshold is not None else max(1, nrh // 4)
        self.row_threshold = row_threshold if row_threshold is not None else max(1, nrh // 2)
        self.rcc = RowCountCache(rcc_entries)
        #: Group Count Table: {(bank, group): aggregate count}.
        self._gct: Dict[Tuple[int, int], int] = {}
        #: Groups promoted to per-row tracking.
        self._tracked_groups: set = set()
        #: Row Count Table: {(bank, row): count} (conceptually in DRAM).
        self._rct: Dict[Tuple[int, int], int] = {}
        #: Extra DRAM accesses caused by RCC misses (RCT fetch + write-back).
        self.rct_dram_accesses = 0

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        group_key = (bank_id, row // self.group_size)
        if group_key not in self._tracked_groups:
            count = self._gct.get(group_key, 0) + 1
            self._gct[group_key] = count
            if count >= self.group_threshold:
                self._promote_group(group_key)
            return
        self._track_row(bank_id, row)

    def _promote_group(self, group_key: Tuple[int, int]) -> None:
        """Switch a group to per-row tracking (rows start at the group count)."""
        self._tracked_groups.add(group_key)
        bank_id, group = group_key
        base_row = group * self.group_size
        for offset in range(self.group_size):
            self._rct[(bank_id, base_row + offset)] = self.group_threshold

    def _track_row(self, bank_id: int, row: int) -> None:
        key = (bank_id, row)
        if not self.rcc.access(key):
            # RCC miss: the RCT entry must be fetched from DRAM and later
            # written back.  The controller serves this as a one-row
            # maintenance access that occupies the bank.
            self.rct_dram_accesses += 1
            self.queue_refresh(
                PreventiveRefresh(bank_id=bank_id, aggressor_row=row, num_rows=1)
            )
        count = self._rct.get(key, self.group_threshold) + 1
        self._rct[key] = count
        if count >= self.row_threshold:
            self._rct[key] = 0
            self.queue_refresh(
                PreventiveRefresh(
                    bank_id=bank_id,
                    aggressor_row=row,
                    num_rows=self.victim_rows_per_aggressor,
                )
            )

    def on_refresh_window(self, cycle: int) -> None:
        self._reset_tables()
        self.rcc.clear()

    def _reset_tables(self) -> None:
        self._gct.clear()
        self._tracked_groups.clear()
        self._rct.clear()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def iter_count_values(self):
        """Every GCT / RCT count currently held."""
        yield from self._gct.values()
        yield from self._rct.values()

    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """Hydra stores the RCT in DRAM and the GCT + RCC in controller SRAM."""
        count_bits = max(1, math.ceil(math.log2(max(2, self.row_threshold)))) + 1
        dram_bits = num_banks * rows_per_bank * count_bits
        groups = num_banks * math.ceil(rows_per_bank / self.group_size)
        gct_bits = groups * count_bits
        row_bits = max(1, math.ceil(math.log2(rows_per_bank * num_banks)))
        rcc_bits = self.rcc.capacity * (row_bits + count_bits)
        return {"dram_bits": dram_bits, "sram_bits": gct_bits + rcc_bits}

    def reset(self) -> None:
        super().reset()
        self._reset_tables()
        self.rcc.clear()
        self.rct_dram_accesses = 0
