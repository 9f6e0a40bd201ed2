"""Per-row activation counter storage.

Both PRAC and Chronus maintain one activation counter per DRAM row.  PRAC
stores the counter bits inside the data row itself and updates them while the
row is being closed (which inflates tRP/tRC -- Table 1).  Chronus stores the
counters in a dedicated *counter subarray* per bank and updates them with the
decrementer circuit concurrently with the data access (§7.1), which is why it
keeps the baseline timings.

This module provides:

* :class:`PerRowCounters` -- a per-bank, per-row activation counter store,
* :class:`CounterSubarray` -- Chronus' counter-subarray geometry and capacity
  accounting (rows / bytes used, 0.05 % capacity overhead claim),
* :class:`AggressorTrackingTable` -- the small per-bank table used to find
  the rows with the highest activation counts during an RFM (§3).

Counter stores
--------------

Each store keeps one sparse mapping per bank: a counter materialises on a
row's first activation and disappears when the row is reset.  A real device
has a counter for every row, but a simulation only ever touches a few
hundred rows per bank, so memory stays proportional to the rows activated
rather than to the row space (one ACT to row 65535 in each of 64 banks costs
a few kilobytes, not a flat row-indexed array per bank).  Iteration and
tie-breaking follow dict insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class PerRowCounters:
    """Per-bank, per-row activation counters.

    A real device allocates a counter for every row; the simulator only
    materialises state for activated rows (one ``Dict[row, count]`` per
    bank).
    """

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        self._counters: List[Dict[int, int]] = [dict() for _ in range(num_banks)]

    def increment(self, bank_id: int, row: int) -> int:
        """Increment and return the activation count of (bank, row)."""
        counters = self._counters[bank_id]
        value = counters.get(row, 0) + 1
        counters[row] = value
        return value

    def get(self, bank_id: int, row: int) -> int:
        """Return the activation count of (bank, row)."""
        return self._counters[bank_id].get(row, 0)

    def reset_row(self, bank_id: int, row: int) -> None:
        """Reset the counter of a single row (after its victims are refreshed)."""
        self._counters[bank_id].pop(row, None)

    def reset_bank(self, bank_id: int) -> None:
        """Reset all counters of a bank."""
        self._counters[bank_id].clear()

    def reset_all(self) -> None:
        """Reset every counter (refresh-window boundary)."""
        for counters in self._counters:
            counters.clear()

    def rows_at_or_above(self, bank_id: int, threshold: int) -> List[int]:
        """Rows of a bank whose count is >= threshold (insertion order)."""
        return [row for row, count in self._counters[bank_id].items() if count >= threshold]

    def max_row(self, bank_id: int) -> Optional[Tuple[int, int]]:
        """Return (row, count) with the maximum count in a bank, or None."""
        counters = self._counters[bank_id]
        if not counters:
            return None
        row = max(counters, key=counters.__getitem__)
        return row, counters[row]

    def nonzero_rows(self, bank_id: int) -> int:
        """Number of rows with a non-zero counter in a bank."""
        return len(self._counters[bank_id])

    def iter_bank(self, bank_id: int) -> Iterator[Tuple[int, int]]:
        """Iterate over (row, count) pairs of a bank (insertion order)."""
        return iter(self._counters[bank_id].items())


@dataclass(frozen=True)
class CounterSubarray:
    """Geometry of Chronus' per-bank counter subarray (§7.1).

    The paper's reference configuration stores 8-bit counters for 128K data
    rows of 16 Kbit each, which fits in 64 counter-subarray rows and costs
    0.05 % of the bank's capacity.
    """

    rows_per_bank: int = 131072
    row_size_bits: int = 16384
    counter_width_bits: int = 8

    @property
    def counter_bits_per_bank(self) -> int:
        """Total counter storage needed for one bank, in bits."""
        return self.rows_per_bank * self.counter_width_bits

    @property
    def counter_rows_needed(self) -> int:
        """Number of counter-subarray rows needed to store all counters."""
        bits = self.counter_bits_per_bank
        return -(-bits // self.row_size_bits)  # ceil division

    @property
    def capacity_overhead(self) -> float:
        """Fraction of the bank's capacity consumed by the counter subarray."""
        bank_bits = self.rows_per_bank * self.row_size_bits
        return self.counter_bits_per_bank / bank_bits

    def locate(self, row: int) -> Tuple[int, int]:
        """Map a data-row address to (counter_row, bit_offset) in the subarray.

        Chronus parses the externally provided row address into the counter
        subarray's row / column / byte addresses (§7.1, step "Updating the
        Counters").
        """
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range [0, {self.rows_per_bank})")
        counters_per_row = self.row_size_bits // self.counter_width_bits
        counter_row = row // counters_per_row
        bit_offset = (row % counters_per_row) * self.counter_width_bits
        return counter_row, bit_offset


@dataclass(slots=True)
class AttEntry:
    """One entry of the Aggressor Tracking Table."""

    row: int
    count: int
    valid: bool = True


class AggressorTrackingTable:
    """Per-bank table of the rows with the highest activation counts (§3).

    PRAC cannot search all per-row counters during an RFM, so it keeps a
    small table (4 entries by default, enough for the recovery period's RFM
    commands).  The table is updated on every precharge:

    1. if the precharged row is already tracked, its count is updated;
    2. otherwise, if an entry is invalid, the row is inserted;
    3. otherwise, if the row's count exceeds the entry with the *lowest*
       count, that entry is replaced.

    During an RFM, the entry with the *maximum* count is invalidated and its
    victims refreshed.

    The table is a plain list of at most ``num_entries`` entries; an
    invalidated entry keeps its slot until a new row reuses it.
    """

    def __init__(self, num_entries: int = 4) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self._entries: List[AttEntry] = []

    def update(self, row: int, count: int) -> None:
        """Update the table after ``row`` was precharged with ``count``."""
        for entry in self._entries:
            if entry.valid and entry.row == row:
                entry.count = count
                return
        if len(self._entries) < self.num_entries:
            self._entries.append(AttEntry(row=row, count=count))
            return
        # Reuse an invalidated slot if one exists.
        for entry in self._entries:
            if not entry.valid:
                entry.row = row
                entry.count = count
                entry.valid = True
                return
        lowest = min(self._entries, key=lambda e: e.count)
        if count > lowest.count:
            lowest.row = row
            lowest.count = count

    def max_entry(self) -> Optional[AttEntry]:
        """Return the valid entry with the maximum count (or None)."""
        valid = [entry for entry in self._entries if entry.valid]
        if not valid:
            return None
        return max(valid, key=lambda e: e.count)

    def invalidate(self, row: int) -> None:
        """Invalidate the entry tracking ``row`` (after its victims refresh)."""
        for entry in self._entries:
            if entry.valid and entry.row == row:
                entry.valid = False
                return

    def valid_entries(self) -> List[AttEntry]:
        """Return all valid entries (highest count first)."""
        return sorted(
            (entry for entry in self._entries if entry.valid),
            key=lambda e: e.count,
            reverse=True,
        )

    def tracked_rows(self) -> List[int]:
        """Rows currently tracked by valid entries."""
        return [entry.row for entry in self._entries if entry.valid]

    def clear(self) -> None:
        """Invalidate every entry."""
        self._entries.clear()

    def __len__(self) -> int:
        return len([entry for entry in self._entries if entry.valid])
