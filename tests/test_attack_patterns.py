"""Tests for the attack-pattern registry and AttackSpec compilation."""

import pytest

from repro.attacks.patterns import (
    ATTACK_PATTERNS,
    AttackSpec,
    default_search_specs,
    pattern_by_name,
    pattern_names,
    wave_attack_addresses,
    wave_attack_trace,
)
from repro.controller.address_mapping import mop_mapping
from repro.dram.organization import PAPER_ORGANIZATION


MAPPING = mop_mapping(PAPER_ORGANIZATION)


def decoded_banks_and_rows(trace):
    decoded = [MAPPING.decode(entry.address) for entry in trace]
    banks = {address.flat_bank(PAPER_ORGANIZATION) for address in decoded}
    rows = {address.row for address in decoded}
    return banks, rows


class TestRegistry:
    def test_expected_patterns_registered(self):
        assert set(pattern_names()) == {
            "single_sided",
            "double_sided",
            "many_sided",
            "wave",
            "rfm_dodge",
            "refresh_sync",
            "perf_attack",
        }

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError, match="unknown attack pattern"):
            pattern_by_name("rowpress")

    def test_every_pattern_compiles_with_defaults(self):
        for name in pattern_names():
            trace = AttackSpec(pattern=name).compile()
            assert trace.memory_accesses > 0
            assert all(not entry.is_write for entry in trace)

    def test_every_search_variant_compiles(self):
        for spec in default_search_specs():
            assert spec.compile().memory_accesses > 0

    def test_default_search_specs_cover_all_patterns(self):
        specs = default_search_specs()
        assert {spec.pattern for spec in specs} == set(pattern_names())
        variants = sum(len(p.search_variants) for p in ATTACK_PATTERNS.values())
        assert len(specs) == len(pattern_names()) + variants


class TestAttackSpec:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            AttackSpec.create("wave", {"warp_factor": 9})

    def test_params_normalised_sorted(self):
        spec = AttackSpec(pattern="wave", params=(("rounds", 2), ("num_rows", 4)))
        assert spec.params == (("num_rows", 4), ("rounds", 2))

    def test_specs_with_same_resolution_are_equal_and_hashable(self):
        first = AttackSpec.create("wave", {"rounds": 2, "num_rows": 4})
        second = AttackSpec(pattern="wave", params=(("rounds", 2), ("num_rows", 4)))
        assert first == second
        assert hash(first) == hash(second)

    def test_resolved_params_fill_defaults(self):
        spec = AttackSpec.create("wave", {"rounds": 3})
        resolved = spec.resolved_params
        assert resolved["rounds"] == 3
        assert resolved["num_rows"] == pattern_by_name("wave").default_params["num_rows"]

    def test_payload_records_full_resolution(self):
        payload = AttackSpec.create("wave", {"rounds": 3}).as_payload()
        assert payload["pattern"] == "wave"
        assert set(payload["params"]) == set(pattern_by_name("wave").default_params)

    def test_label(self):
        assert AttackSpec(pattern="wave").label == "wave"
        assert AttackSpec.create("wave", {"rounds": 3}).label == "wave(rounds=3)"

    def test_compile_deterministic(self):
        first = AttackSpec(pattern="perf_attack", seed=7).compile()
        second = AttackSpec(pattern="perf_attack", seed=7).compile()
        assert [e.address for e in first] == [e.address for e in second]

    def test_perf_attack_seed_changes_rows(self):
        first = AttackSpec(pattern="perf_attack", seed=1).compile()
        second = AttackSpec(pattern="perf_attack", seed=2).compile()
        assert [e.address for e in first] != [e.address for e in second]


class TestPatternShapes:
    def test_single_sided_two_rows_one_bank(self):
        trace = AttackSpec.create(
            "single_sided", {"hammer_count": 10, "bank_index": 3}
        ).compile()
        banks, rows = decoded_banks_and_rows(trace)
        assert banks == {3}
        assert len(rows) == 2

    def test_double_sided_straddles_victim(self):
        trace = AttackSpec.create(
            "double_sided", {"pair_rounds": 5, "victim_row": 40}
        ).compile()
        _, rows = decoded_banks_and_rows(trace)
        assert rows == {39, 41}

    def test_many_sided_row_count(self):
        trace = AttackSpec.create(
            "many_sided", {"num_sides": 6, "rounds": 4}
        ).compile()
        _, rows = decoded_banks_and_rows(trace)
        assert len(rows) == 6
        assert trace.memory_accesses == 24

    def test_rfm_dodge_spreads_over_banks(self):
        trace = AttackSpec.create(
            "rfm_dodge", {"num_banks": 5, "rows_per_bank": 2, "rounds": 3}
        ).compile()
        banks, _ = decoded_banks_and_rows(trace)
        assert len(banks) == 5

    def test_refresh_sync_has_gaps_between_bursts(self):
        trace = AttackSpec.create(
            "refresh_sync",
            {"burst_pairs": 4, "num_bursts": 3, "gap_instructions": 999},
        ).compile()
        gaps = [entry.gap_instructions for entry in trace if entry.gap_instructions]
        assert gaps == [999, 999]

    def test_out_of_range_row_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AttackSpec.create(
                "single_sided", {"row": PAPER_ORGANIZATION.rows}
            ).compile()


class TestWaveWrapAround:
    """The wave row set must fit in the bank (no silent modulo reuse)."""

    def test_addresses_raise_when_row_set_wraps(self):
        too_many = PAPER_ORGANIZATION.rows // 4 + 1
        with pytest.raises(ValueError, match="wrap"):
            wave_attack_addresses(too_many, row_stride=4)

    def test_addresses_raise_when_first_row_pushes_past_end(self):
        with pytest.raises(ValueError, match="does not fit"):
            wave_attack_addresses(16, row_stride=4, first_row=PAPER_ORGANIZATION.rows - 32)

    def test_largest_fitting_row_set_is_accepted_and_distinct(self):
        num_rows = PAPER_ORGANIZATION.rows // 4
        addresses = wave_attack_addresses(num_rows, row_stride=4)
        assert len(set(addresses)) == num_rows

    def test_trace_raises_when_row_set_wraps(self):
        with pytest.raises(ValueError, match="does not fit"):
            wave_attack_trace(num_rows=PAPER_ORGANIZATION.rows, rounds=1)

    def test_wave_spec_inherits_validation(self):
        with pytest.raises(ValueError, match="does not fit"):
            AttackSpec.create("wave", {"num_rows": PAPER_ORGANIZATION.rows}).compile()
