"""Tests for ABACuS (all-bank sibling activation counters)."""

import pytest

from repro.core.abacus import ABACuS


def make_abacus(nrh=16, num_banks=4, table_entries=8):
    # These unit tests pin the update rules by poking the internal table.
    return ABACuS(nrh=nrh, num_banks=num_banks, table_entries=table_entries)


class TestSiblingCounting:
    def test_different_banks_do_not_increment(self):
        abacus = make_abacus()
        abacus.on_activate(0, 7, 0)
        abacus.on_activate(1, 7, 1)
        abacus.on_activate(2, 7, 2)
        assert abacus._table[7].count == 0

    def test_same_bank_twice_increments(self):
        abacus = make_abacus()
        abacus.on_activate(0, 7, 0)
        abacus.on_activate(0, 7, 1)
        assert abacus._table[7].count == 1

    def test_counter_tracks_max_per_bank_count(self):
        abacus = make_abacus()
        # Bank 0 activates row 7 five times; siblings in other banks less.
        for cycle in range(5):
            abacus.on_activate(0, 7, cycle)
        assert abacus._table[7].count == 4

    def test_trigger_refreshes_rav_banks(self):
        abacus = make_abacus(nrh=4)  # trigger threshold 2
        abacus.on_activate(0, 9, 0)
        abacus.on_activate(1, 9, 1)
        abacus.on_activate(0, 9, 2)   # count -> 1, rav = {0}
        abacus.on_activate(0, 9, 3)   # count -> 2 == threshold, refresh
        banks = set(abacus.banks_with_pending_refreshes())
        assert banks, "a preventive refresh must be queued"
        for bank in banks:
            refresh = abacus.pending_refresh(bank)
            assert refresh.aggressor_row == 9

    def test_no_refresh_below_threshold(self):
        abacus = make_abacus(nrh=64)
        for cycle in range(10):
            abacus.on_activate(cycle % 4, 3, cycle)
        assert abacus.total_pending_rows() == 0


class TestTableManagement:
    def test_table_capacity_respected(self):
        abacus = make_abacus(table_entries=4)
        for row in range(20):
            abacus.on_activate(0, row, row)
        assert len(abacus._table) <= 4

    def test_refresh_window_resets(self):
        abacus = make_abacus()
        abacus.on_activate(0, 1, 0)
        abacus.on_refresh_window(100)
        assert not abacus._table
        assert abacus._spillover == 0

    def test_default_table_size_grows_as_nrh_shrinks(self):
        small_nrh = ABACuS(nrh=20, num_banks=64)
        large_nrh = ABACuS(nrh=1024, num_banks=64)
        assert small_nrh.table_entries > large_nrh.table_entries

    def test_storage_grows_as_nrh_shrinks(self):
        big = ABACuS(nrh=20, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        small = ABACuS(nrh=1024, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        assert big > 10 * small

    def test_storage_much_smaller_than_graphene(self):
        from repro.core.graphene import Graphene

        abacus_bits = ABACuS(nrh=64, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        graphene_bits = Graphene(nrh=64, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        assert abacus_bits * 10 < graphene_bits

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ABACuS(nrh=64, num_banks=0)
