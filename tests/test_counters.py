"""Tests for per-row counters, the counter subarray and the ATT."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import AggressorTrackingTable, CounterSubarray, PerRowCounters


class TestPerRowCounters:
    def test_increment_and_get(self):
        counters = PerRowCounters(4)
        assert counters.get(0, 10) == 0
        assert counters.increment(0, 10) == 1
        assert counters.increment(0, 10) == 2
        assert counters.get(0, 10) == 2

    def test_banks_are_independent(self):
        counters = PerRowCounters(4)
        counters.increment(0, 10)
        assert counters.get(1, 10) == 0

    def test_reset_row(self):
        counters = PerRowCounters(2)
        counters.increment(0, 5)
        counters.reset_row(0, 5)
        assert counters.get(0, 5) == 0

    def test_reset_bank_and_all(self):
        counters = PerRowCounters(2)
        counters.increment(0, 1)
        counters.increment(1, 2)
        counters.reset_bank(0)
        assert counters.get(0, 1) == 0
        assert counters.get(1, 2) == 1
        counters.reset_all()
        assert counters.get(1, 2) == 0

    def test_rows_at_or_above(self):
        counters = PerRowCounters(1)
        for _ in range(3):
            counters.increment(0, 7)
        counters.increment(0, 8)
        assert counters.rows_at_or_above(0, 2) == [7]
        assert set(counters.rows_at_or_above(0, 1)) == {7, 8}

    def test_max_row(self):
        counters = PerRowCounters(1)
        assert counters.max_row(0) is None
        counters.increment(0, 3)
        counters.increment(0, 4)
        counters.increment(0, 4)
        assert counters.max_row(0) == (4, 2)

    def test_nonzero_rows(self):
        counters = PerRowCounters(1)
        counters.increment(0, 1)
        counters.increment(0, 2)
        assert counters.nonzero_rows(0) == 2

    def test_reset_row_reenters_at_the_back(self):
        counters = PerRowCounters(1)
        for row in range(4):
            counters.increment(0, row)
        counters.reset_row(0, 0)
        counters.increment(0, 0)
        assert [row for row, _ in counters.iter_bank(0)] == [1, 2, 3, 0]

    def test_sparse_rows_cost_no_row_space_memory(self):
        """One ACT to the last row of each of 64 banks stays tiny: storage
        grows with the rows activated, not with the row space."""
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            counters = PerRowCounters(64)
            for bank_id in range(64):
                counters.increment(bank_id, 65535)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1 << 20
        assert counters.get(63, 65535) == 1

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError):
            PerRowCounters(0)


class TestCounterSubarray:
    def test_paper_reference_geometry(self):
        subarray = CounterSubarray()
        # 128K rows x 8 bits = 128 KB, which fits in 64 rows of 16 Kbit.
        assert subarray.counter_rows_needed == 64
        assert subarray.capacity_overhead == pytest.approx(0.0005, rel=0.05)

    def test_locate_maps_rows_to_distinct_slots(self):
        subarray = CounterSubarray()
        seen = set()
        for row in range(0, 4096, 17):
            location = subarray.locate(row)
            assert location not in seen
            seen.add(location)

    def test_locate_bounds(self):
        subarray = CounterSubarray()
        with pytest.raises(ValueError):
            subarray.locate(subarray.rows_per_bank)

    def test_counters_per_row(self):
        subarray = CounterSubarray()
        counter_row, offset = subarray.locate(0)
        assert (counter_row, offset) == (0, 0)
        per_row = subarray.row_size_bits // subarray.counter_width_bits
        assert subarray.locate(per_row) == (1, 0)


class TestAggressorTrackingTable:
    def test_insert_until_full(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        assert len(att) == 2
        assert att.max_entry().row == 1

    def test_update_existing_row(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(1, 9)
        assert att.max_entry().count == 9
        assert len(att) == 1

    def test_replaces_lowest_when_exceeded(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.update(3, 4)  # exceeds the lowest entry (row 2, count 3)
        rows = set(att.tracked_rows())
        assert rows == {1, 3}

    def test_does_not_replace_when_not_exceeding(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.update(3, 2)
        assert set(att.tracked_rows()) == {1, 2}

    def test_invalidate_frees_slot(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.invalidate(1)
        assert len(att) == 1
        att.update(3, 1)
        assert set(att.tracked_rows()) == {2, 3}

    def test_reuses_first_invalid_slot(self):
        att = AggressorTrackingTable(3)
        for row in (10, 11, 12):
            att.update(row, 5)
        att.invalidate(11)
        att.invalidate(10)
        att.update(20, 1)
        # The first invalidated slot (row 10's) is reused, which the
        # slot-ordered view shows.
        assert att.tracked_rows() == [20, 12]

    def test_max_entry_none_when_empty(self):
        att = AggressorTrackingTable(4)
        assert att.max_entry() is None

    def test_valid_entries_sorted_descending(self):
        att = AggressorTrackingTable(3)
        att.update(1, 5)
        att.update(2, 9)
        att.update(3, 7)
        counts = [entry.count for entry in att.valid_entries()]
        assert counts == sorted(counts, reverse=True)

    def test_clear(self):
        att = AggressorTrackingTable(3)
        att.update(1, 1)
        att.clear()
        assert len(att) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AggressorTrackingTable(0)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 100)), min_size=1, max_size=200))
def test_att_tracks_at_most_capacity(updates):
    att = AggressorTrackingTable(4)
    for row, count in updates:
        att.update(row, count)
    assert len(att) <= 4


@given(st.lists(st.integers(0, 5), min_size=1, max_size=300))
def test_per_row_counters_match_reference_counts(rows):
    counters = PerRowCounters(1)
    reference = {}
    for row in rows:
        counters.increment(0, row)
        reference[row] = reference.get(row, 0) + 1
    for row, count in reference.items():
        assert counters.get(0, row) == count
    max_row, max_count = counters.max_row(0)
    assert max_count == max(reference.values())


row_events = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, 15)),
        st.tuples(st.just("reset"), st.integers(0, 15)),
        st.tuples(st.just("reset_bank"), st.just(0)),
    ),
    min_size=1,
    max_size=300,
)


@settings(max_examples=60, deadline=None)
@given(events=row_events)
def test_per_row_counters_follow_dict_semantics(events):
    """Values, insertion order (a reset row re-enters at the back) and the
    first-inserted tie-break of ``max_row`` match a plain dict model."""
    counters = PerRowCounters(1)
    model = {}
    for kind, row in events:
        if kind == "inc":
            model[row] = model.get(row, 0) + 1
            assert counters.increment(0, row) == model[row]
        elif kind == "reset":
            counters.reset_row(0, row)
            model.pop(row, None)
        else:
            counters.reset_bank(0)
            model.clear()
        assert list(counters.iter_bank(0)) == list(model.items())
        assert counters.nonzero_rows(0) == len(model)
        if model:
            top = max(model.values())
            first_top = next(r for r, count in model.items() if count == top)
            assert counters.max_row(0) == (first_top, top)
        else:
            assert counters.max_row(0) is None
        for threshold in (1, 2, 3, 5, 100):
            assert counters.rows_at_or_above(0, threshold) == [
                r for r, count in model.items() if count >= threshold
            ]


att_events = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(1, 50)),
        st.tuples(st.just("invalidate"), st.integers(0, 9), st.just(0)),
        st.tuples(st.just("pop_max"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(events=att_events)
def test_att_update_rules_hold_under_rfm_service(events):
    """The three update rules of the ATT docstring, interleaved with the
    RFM service pattern (invalidate the current maximum)."""
    att = AggressorTrackingTable(3)
    for kind, row, count in events:
        before = {entry.row: entry.count for entry in att.valid_entries()}
        if kind == "update":
            att.update(row, count)
            after = {entry.row: entry.count for entry in att.valid_entries()}
            if row in before or len(before) < att.num_entries:
                assert after.get(row) == count
            elif count > min(before.values()):
                assert after.get(row) == count
                assert len(after) == att.num_entries
            else:
                assert after == before
        elif kind == "invalidate":
            att.invalidate(row)
            assert row not in att.tracked_rows()
        else:
            entry = att.max_entry()
            if before:
                assert entry is not None and entry.count == max(before.values())
                att.invalidate(entry.row)
                assert entry.row not in att.tracked_rows()
            else:
                assert entry is None
        tracked = att.tracked_rows()
        assert len(tracked) == len(set(tracked)) == len(att) <= att.num_entries
        counts = [entry.count for entry in att.valid_entries()]
        assert counts == sorted(counts, reverse=True)
