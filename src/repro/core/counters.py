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

Counter-store backends
----------------------

Every store comes in two interchangeable backends selected by the
``backend`` constructor argument (see :func:`resolve_backend`):

* ``"dict"`` -- the original sparse mapping layout (simple, the reference
  implementation the equivalence tests compare against), and
* ``"array"`` -- flat per-bank arrays with explicit insertion-order
  bookkeeping and slot/freelist storage, the default.  Reads and increments
  are plain list indexing instead of hashing, and
  :meth:`PerRowCounters.rows_at_or_above` answers its common negative case
  in O(1) from power-of-two *threshold buckets* (a 64-entry histogram of
  counter bit-lengths: no bucket at or above ``threshold.bit_length()``
  occupied means no counter can reach ``threshold``).

The two backends are *observably identical* -- same values, same victim
sets, same iteration and eviction order (ties broken by insertion order,
exactly like dict iteration) -- which the property tests in
``tests/test_counter_backends.py`` pin, and which lets cached simulation
results stay byte-for-byte stable across backends.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Backend names accepted by every counter store in :mod:`repro.core`.
COUNTER_BACKENDS: Tuple[str, ...] = ("dict", "array")

#: Environment variable overriding the default backend (debugging aid).
COUNTER_BACKEND_ENV = "REPRO_COUNTER_BACKEND"

#: The default backend: flat arrays.
DEFAULT_COUNTER_BACKEND = "array"


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a ``backend`` constructor argument to a concrete name.

    ``None`` selects ``$REPRO_COUNTER_BACKEND`` when set, otherwise
    :data:`DEFAULT_COUNTER_BACKEND`.
    """
    if backend is None:
        backend = os.environ.get(COUNTER_BACKEND_ENV) or DEFAULT_COUNTER_BACKEND
    if backend not in COUNTER_BACKENDS:
        raise ValueError(
            f"unknown counter backend {backend!r}; expected one of {COUNTER_BACKENDS}"
        )
    return backend


class PerRowCounters:
    """Per-bank, per-row activation counters.

    A real device allocates a counter for every row; the simulator only
    materialises state for activated rows.  Constructing this class returns
    the implementation selected by ``backend`` (both are subclasses, so
    ``isinstance(store, PerRowCounters)`` holds either way).
    """

    #: Concrete backend name ("dict" or "array"), set on the subclasses.
    backend = "abstract"

    def __new__(cls, num_banks: int, backend: Optional[str] = None):
        if cls is PerRowCounters:
            cls = (
                _ArrayPerRowCounters
                if resolve_backend(backend) == "array"
                else _DictPerRowCounters
            )
        return object.__new__(cls)

    def __init__(self, num_banks: int, backend: Optional[str] = None) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks

    # -- interface (implemented by both backends) ------------------------ #
    def increment(self, bank_id: int, row: int) -> int:
        """Increment and return the activation count of (bank, row)."""
        raise NotImplementedError

    def get(self, bank_id: int, row: int) -> int:
        """Return the activation count of (bank, row)."""
        raise NotImplementedError

    def reset_row(self, bank_id: int, row: int) -> None:
        """Reset the counter of a single row (after its victims are refreshed)."""
        raise NotImplementedError

    def reset_bank(self, bank_id: int) -> None:
        """Reset all counters of a bank."""
        raise NotImplementedError

    def reset_all(self) -> None:
        """Reset every counter (refresh-window boundary)."""
        for bank_id in range(self.num_banks):
            self.reset_bank(bank_id)

    def rows_at_or_above(self, bank_id: int, threshold: int) -> List[int]:
        """Rows of a bank whose count is >= threshold (insertion order)."""
        raise NotImplementedError

    def max_row(self, bank_id: int) -> Optional[Tuple[int, int]]:
        """Return (row, count) with the maximum count in a bank, or None."""
        raise NotImplementedError

    def nonzero_rows(self, bank_id: int) -> int:
        """Number of rows with a non-zero counter in a bank."""
        raise NotImplementedError

    def iter_bank(self, bank_id: int) -> Iterator[Tuple[int, int]]:
        """Iterate over (row, count) pairs of a bank (insertion order)."""
        raise NotImplementedError


class _DictPerRowCounters(PerRowCounters):
    """The original sparse ``Dict[int, int]`` backend (reference layout)."""

    backend = "dict"

    def __init__(self, num_banks: int, backend: Optional[str] = None) -> None:
        super().__init__(num_banks)
        self._counters: List[Dict[int, int]] = [dict() for _ in range(num_banks)]

    def increment(self, bank_id: int, row: int) -> int:
        counters = self._counters[bank_id]
        value = counters.get(row, 0) + 1
        counters[row] = value
        return value

    def get(self, bank_id: int, row: int) -> int:
        return self._counters[bank_id].get(row, 0)

    def reset_row(self, bank_id: int, row: int) -> None:
        self._counters[bank_id].pop(row, None)

    def reset_bank(self, bank_id: int) -> None:
        self._counters[bank_id].clear()

    def reset_all(self) -> None:
        for counters in self._counters:
            counters.clear()

    def rows_at_or_above(self, bank_id: int, threshold: int) -> List[int]:
        return [row for row, count in self._counters[bank_id].items() if count >= threshold]

    def max_row(self, bank_id: int) -> Optional[Tuple[int, int]]:
        counters = self._counters[bank_id]
        if not counters:
            return None
        row = max(counters, key=counters.__getitem__)
        return row, counters[row]

    def nonzero_rows(self, bank_id: int) -> int:
        return len(self._counters[bank_id])

    def iter_bank(self, bank_id: int) -> Iterator[Tuple[int, int]]:
        return iter(self._counters[bank_id].items())


#: Width of the per-bank threshold-bucket histogram: counters are Python
#: ints but activation counts stay far below 2**63 in any simulation.
_BUCKET_BITS = 64


class _ArrayPerRowCounters(PerRowCounters):
    """Flat array backend with insertion-order and threshold-bucket indexes.

    Per bank:

    * ``counts`` -- a lazily grown flat list indexed by row (power-of-two
      growth, so a handful of ``extend`` calls cover any trace),
    * ``order`` / ``pos`` -- explicit insertion-order bookkeeping with lazy
      tombstones, replicating dict iteration order exactly (including a
      reset row re-entering at the back on its next activation),
    * ``buckets`` -- the count-bit-length histogram behind the O(1)
      :meth:`rows_at_or_above` negative fast path.
    """

    backend = "array"

    #: Tombstone fraction of the order list that triggers compaction.
    _COMPACT_MIN_HOLES = 16

    def __init__(self, num_banks: int, backend: Optional[str] = None) -> None:
        super().__init__(num_banks)
        self._counts: List[List[int]] = [[] for _ in range(num_banks)]
        # Row -> index into the order list, *active rows only* (a dict: the
        # flat count array spans the whole row space but only a few hundred
        # rows are ever live, so a parallel flat array would double the
        # growth churn for nothing).
        self._pos: List[Dict[int, int]] = [dict() for _ in range(num_banks)]
        self._order: List[List[int]] = [[] for _ in range(num_banks)]
        self._holes: List[int] = [0] * num_banks
        self._active: List[int] = [0] * num_banks
        self._buckets: List[List[int]] = [[0] * _BUCKET_BITS for _ in range(num_banks)]

    def _grow(self, bank_id: int, row: int) -> None:
        counts = self._counts[bank_id]
        size = len(counts)
        new_size = max(row + 1, size * 4, 1024)
        counts.extend([0] * (new_size - size))

    def increment(self, bank_id: int, row: int) -> int:
        counts = self._counts[bank_id]
        if row >= len(counts):
            self._grow(bank_id, row)
            counts = self._counts[bank_id]
        value = counts[row] + 1
        counts[row] = value
        buckets = self._buckets[bank_id]
        if value == 1:
            order = self._order[bank_id]
            self._pos[bank_id][row] = len(order)
            order.append(row)
            self._active[bank_id] += 1
            buckets[1] += 1
        elif not value & (value - 1):
            # The count crossed a power of two: move it up one bucket.
            length = value.bit_length()
            buckets[length - 1] -= 1
            buckets[length] += 1
        return value

    def get(self, bank_id: int, row: int) -> int:
        counts = self._counts[bank_id]
        if row >= len(counts):
            return 0
        return counts[row]

    def reset_row(self, bank_id: int, row: int) -> None:
        counts = self._counts[bank_id]
        if row >= len(counts):
            return
        value = counts[row]
        if not value:
            return
        counts[row] = 0
        self._buckets[bank_id][value.bit_length()] -= 1
        index = self._pos[bank_id].pop(row)
        self._order[bank_id][index] = -1
        self._active[bank_id] -= 1
        holes = self._holes[bank_id] + 1
        self._holes[bank_id] = holes
        order = self._order[bank_id]
        if holes > self._COMPACT_MIN_HOLES and holes * 2 > len(order):
            self._compact(bank_id)

    def _compact(self, bank_id: int) -> None:
        pos = self._pos[bank_id]
        compacted = [row for row in self._order[bank_id] if row >= 0]
        for index, row in enumerate(compacted):
            pos[row] = index
        self._order[bank_id] = compacted
        self._holes[bank_id] = 0

    def reset_bank(self, bank_id: int) -> None:
        counts = self._counts[bank_id]
        for row in self._order[bank_id]:
            if row >= 0:
                counts[row] = 0
        self._pos[bank_id].clear()
        self._order[bank_id] = []
        self._holes[bank_id] = 0
        self._active[bank_id] = 0
        self._buckets[bank_id] = [0] * _BUCKET_BITS

    def rows_at_or_above(self, bank_id: int, threshold: int) -> List[int]:
        if threshold > 0:
            # Threshold buckets: a count >= threshold needs at least
            # threshold.bit_length() bits, so empty upper buckets answer the
            # (common) negative case without touching a single row.
            buckets = self._buckets[bank_id]
            if not any(buckets[threshold.bit_length():]):
                return []
        counts = self._counts[bank_id]
        return [
            row for row in self._order[bank_id]
            if row >= 0 and counts[row] >= threshold
        ]

    def max_row(self, bank_id: int) -> Optional[Tuple[int, int]]:
        counts = self._counts[bank_id]
        best_row = -1
        best_count = 0
        for row in self._order[bank_id]:
            # Strict comparison keeps the first-inserted row on ties,
            # matching max() over dict insertion order.
            if row >= 0 and counts[row] > best_count:
                best_row, best_count = row, counts[row]
        if best_row < 0:
            return None
        return best_row, best_count

    def nonzero_rows(self, bank_id: int) -> int:
        return self._active[bank_id]

    def iter_bank(self, bank_id: int) -> Iterator[Tuple[int, int]]:
        counts = self._counts[bank_id]
        return ((row, counts[row]) for row in self._order[bank_id] if row >= 0)


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

    Backends: ``"dict"`` keeps the original list-of-entry-objects layout;
    ``"array"`` (default) keeps parallel row/count/valid slot lists with a
    row-to-slot index (O(1) update instead of a linear scan -- this runs on
    every precharge under PRAC) and a sorted freelist of invalidated slots,
    so slot reuse matches the reference first-invalid-slot scan exactly.
    """

    backend = "abstract"

    def __new__(cls, num_entries: int = 4, backend: Optional[str] = None):
        if cls is AggressorTrackingTable:
            cls = (
                _ArrayAggressorTrackingTable
                if resolve_backend(backend) == "array"
                else _DictAggressorTrackingTable
            )
        return object.__new__(cls)

    def __init__(self, num_entries: int = 4, backend: Optional[str] = None) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries

    # -- interface -------------------------------------------------------- #
    def update(self, row: int, count: int) -> None:
        """Update the table after ``row`` was precharged with ``count``."""
        raise NotImplementedError

    def max_entry(self) -> Optional[AttEntry]:
        """Return the valid entry with the maximum count (or None)."""
        raise NotImplementedError

    def invalidate(self, row: int) -> None:
        """Invalidate the entry tracking ``row`` (after its victims refresh)."""
        raise NotImplementedError

    def valid_entries(self) -> List[AttEntry]:
        """Return all valid entries (highest count first)."""
        raise NotImplementedError

    def tracked_rows(self) -> List[int]:
        """Rows currently tracked by valid entries."""
        raise NotImplementedError

    def clear(self) -> None:
        """Invalidate every entry."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _DictAggressorTrackingTable(AggressorTrackingTable):
    """The original list-of-:class:`AttEntry` backend (reference layout)."""

    backend = "dict"

    def __init__(self, num_entries: int = 4, backend: Optional[str] = None) -> None:
        super().__init__(num_entries)
        self._entries: List[AttEntry] = []

    def update(self, row: int, count: int) -> None:
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
        valid = [entry for entry in self._entries if entry.valid]
        if not valid:
            return None
        return max(valid, key=lambda e: e.count)

    def invalidate(self, row: int) -> None:
        for entry in self._entries:
            if entry.valid and entry.row == row:
                entry.valid = False
                return

    def valid_entries(self) -> List[AttEntry]:
        return sorted(
            (entry for entry in self._entries if entry.valid),
            key=lambda e: e.count,
            reverse=True,
        )

    def tracked_rows(self) -> List[int]:
        return [entry.row for entry in self._entries if entry.valid]

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len([entry for entry in self._entries if entry.valid])


class _ArrayAggressorTrackingTable(AggressorTrackingTable):
    """Slot-array backend: parallel lists, row index and sorted freelist."""

    backend = "array"

    def __init__(self, num_entries: int = 4, backend: Optional[str] = None) -> None:
        super().__init__(num_entries)
        self._rows: List[int] = []
        self._counts: List[int] = []
        self._valid: List[bool] = []
        #: Row -> slot index, valid rows only.
        self._slot_of: Dict[int, int] = {}
        #: Invalidated slot indexes, kept sorted so reuse picks the lowest
        #: slot -- identical to the reference first-invalid-slot scan.
        self._free: List[int] = []

    def update(self, row: int, count: int) -> None:
        slot = self._slot_of.get(row)
        if slot is not None:
            self._counts[slot] = count
            return
        rows = self._rows
        if len(rows) < self.num_entries:
            self._slot_of[row] = len(rows)
            rows.append(row)
            self._counts.append(count)
            self._valid.append(True)
            return
        free = self._free
        if free:
            slot = free.pop(0)
            self._slot_of[row] = slot
            rows[slot] = row
            self._counts[slot] = count
            self._valid[slot] = True
            return
        # Full and all valid: replace the minimum entry (first slot on
        # ties, like min() over the reference entry list).
        counts = self._counts
        lowest = min(counts)
        if count > lowest:
            slot = counts.index(lowest)
            del self._slot_of[rows[slot]]
            self._slot_of[row] = slot
            rows[slot] = row
            counts[slot] = count

    def max_entry(self) -> Optional[AttEntry]:
        best_slot = -1
        best_count = 0
        first = True
        counts = self._counts
        valid = self._valid
        for slot in range(len(counts)):
            if not valid[slot]:
                continue
            # Strict comparison keeps the first slot on ties (reference
            # max() behaviour); the very first valid slot always seeds.
            if first or counts[slot] > best_count:
                best_slot, best_count = slot, counts[slot]
                first = False
        if best_slot < 0:
            return None
        return AttEntry(row=self._rows[best_slot], count=best_count)

    def invalidate(self, row: int) -> None:
        slot = self._slot_of.pop(row, None)
        if slot is None:
            return
        self._valid[slot] = False
        free = self._free
        index = len(free)
        while index and free[index - 1] > slot:
            index -= 1
        free.insert(index, slot)

    def valid_entries(self) -> List[AttEntry]:
        entries = [
            AttEntry(row=self._rows[slot], count=self._counts[slot])
            for slot in range(len(self._rows))
            if self._valid[slot]
        ]
        entries.sort(key=lambda e: e.count, reverse=True)  # stable, slot order
        return entries

    def tracked_rows(self) -> List[int]:
        return [
            self._rows[slot]
            for slot in range(len(self._rows))
            if self._valid[slot]
        ]

    def clear(self) -> None:
        self._rows.clear()
        self._counts.clear()
        self._valid.clear()
        self._slot_of.clear()
        self._free.clear()

    def __len__(self) -> int:
        return len(self._slot_of)
