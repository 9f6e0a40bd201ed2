"""Tests for the experiment runner and figure data generators."""

import pytest

from repro.experiments import figures, runner as runner_module
from repro.experiments.runner import ExperimentRunner, default_mixes


ACCESSES = 250


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(accesses_per_core=ACCESSES, seed=0)


class TestRunner:
    def test_alone_ipc_cached(self, runner):
        first = runner.alone_ipc("429.mcf")
        second = runner.alone_ipc("429.mcf")
        assert first == second
        assert first > 0

    def test_baseline_cached(self, runner):
        apps = ("429.mcf", "401.bzip2")
        first = runner.baseline_result(apps)
        second = runner.baseline_result(apps)
        assert first is second

    def test_normalized_ws_close_to_one_for_baseline_like_run(self, runner):
        apps = ("429.mcf", "401.bzip2")
        result = runner.run_mix(apps, "Chronus", 1024)
        value = runner.normalized_ws(apps, result)
        assert 0.9 <= value <= 1.05

    def test_compare_produces_one_row_per_point(self, runner):
        mixes = [("429.mcf", "401.bzip2")]
        comparisons = runner.compare(["Chronus", "PRAC-4"], [1024, 20], mixes)
        assert len(comparisons) == 4
        keyed = {(c.mechanism, c.nrh): c for c in comparisons}
        assert keyed[("PRAC-4", 20)].mean_normalized_ws <= keyed[("Chronus", 20)].mean_normalized_ws
        for comparison in comparisons:
            assert 0.0 < comparison.mean_normalized_ws <= 1.2
            assert comparison.mean_normalized_energy > 0.0

    def test_default_mixes_spread_across_types(self):
        mixes = default_mixes(6)
        assert len(mixes) == 6
        assert len({mix.mix_type for mix in mixes}) == 6
        assert len(default_mixes(3, mix_types=["HHHH"])) == 3


#: ``default_mixes`` selections recorded before the mix table was memoised.
PINNED_MIXES = {
    (3, None, 42): [
        ("hhhh_00", ("549.fotonik3d", "429.mcf", "437.leslie3d", "510.parest")),
        ("hhmm_00", ("505.mcf", "507.cactuBSSN", "tpch6", "433.milc")),
        ("hhll_00", ("482.sphinx3", "470.lbm", "454.calculix", "456.hmmer")),
    ],
    (4, ("HHHH", "LLLL"), 42): [
        ("hhhh_00", ("549.fotonik3d", "429.mcf", "437.leslie3d", "510.parest")),
        ("llll_00", ("526.blender", "454.calculix", "465.tonto", "511.povray")),
        ("hhhh_01", ("510.parest", "459.GemsFDTD", "549.fotonik3d", "436.cactusADM")),
        ("llll_01", ("447.dealII", "gs", "444.namd", "h264_decode")),
    ],
    (2, ("MMLL",), 7): [
        ("mmll_00", ("523.xalancbmk", "jp2_decode", "525.x264", "456.hmmer")),
        ("mmll_01", ("462.soplex-pds", "403.gcc", "447.dealII", "541.leela")),
    ],
    (5, None, 1): [
        ("hhhh_00", ("459.GemsFDTD", "jp2_encode", "462.libquantum", "437.leslie3d")),
        ("hhmm_00", ("510.parest", "520.omnetpp", "ycsb_aserver", "450.soplex")),
        ("hhll_00", ("429.mcf", "tpch17", "456.hmmer", "400.perlbench")),
        ("mmmm_00", ("445.gobmk", "ycsb_eserver", "jp2_decode", "ycsb_cserver")),
        ("mmll_00", ("h264_encode", "ycsb_bserver", "511.povray", "511.povray")),
    ],
}


class TestDefaultMixesMemo:
    """The 60-mix table is built once per seed; callers still get fresh lists."""

    @pytest.mark.parametrize("args", list(PINNED_MIXES))
    def test_selection_matches_the_pinned_values(self, args):
        count, mix_types, seed = args
        for _ in range(2):
            mixes = default_mixes(count, mix_types=mix_types, seed=seed)
            assert [(mix.name, mix.applications) for mix in mixes] == PINNED_MIXES[args]

    @pytest.mark.parametrize("count", [3, 60, 100])
    def test_mutating_a_result_does_not_leak_into_the_next_call(self, count):
        first = default_mixes(count)
        expected = list(first)
        first.clear()
        first.append("junk")
        assert default_mixes(count) == expected
        assert len(expected) == min(count, 60)

    def test_table_is_built_once_per_seed(self, monkeypatch):
        builds = []
        real_workload_mixes = runner_module.workload_mixes

        def counting_workload_mixes(*args, **kwargs):
            builds.append(kwargs.get("seed"))
            return real_workload_mixes(*args, **kwargs)

        monkeypatch.setattr(runner_module, "workload_mixes", counting_workload_mixes)
        runner_module._mix_table.cache_clear()
        for _ in range(3):
            default_mixes(6)
            default_mixes(60, mix_types=["HHHH"])
        assert builds == [42]
        default_mixes(6, seed=7)
        assert builds == [42, 7]

    def test_different_seeds_give_different_tables(self):
        assert default_mixes(60, seed=1) != default_mixes(60, seed=2)
        assert default_mixes(60, seed=1) == default_mixes(60, seed=1)


class TestAnalyticalFigures:
    def test_table1(self):
        rows = figures.table1_data()
        assert {row["parameter"] for row in rows} == {"tRAS", "tRP", "tRC", "tRTP", "tWR"}

    def test_fig3a(self):
        rows = figures.fig3a_data(rfm_thresholds=(2, 32), row_set_sizes=(2048, 65536))
        assert len(rows) == 4
        assert all(row["max_acts"] >= 1 for row in rows)

    def test_fig3b(self):
        rows = figures.fig3b_data(backoff_thresholds=(1, 8), nrefs=(1, 4),
                                  row_set_sizes=(2048,))
        assert len(rows) == 4
        by_key = {(r["nbo"], r["nref"]): r["max_acts"] for r in rows}
        assert by_key[(8, 4)] >= by_key[(1, 4)]

    def test_fig11_and_fig13(self):
        fig11 = figures.fig11_data(nrh_values=(1024, 20))
        assert {row["mechanism"] for row in fig11} == set(figures.FIG11_MECHANISMS)
        fig13 = figures.fig13_data(nrh_values=(1024, 20))
        assert {row["mechanism"] for row in fig13} == {"Chronus", "ABACuS"}

    def test_sec11_theory(self):
        rows = figures.sec11_theory_data(nrh_values=(20,))
        by_mechanism = {row["mechanism"]: row for row in rows}
        assert by_mechanism["PRAC-4"]["max_bandwidth_consumption"] > \
            by_mechanism["Chronus"]["max_bandwidth_consumption"]

    def test_appendix_a(self):
        data = figures.appendix_a_data()
        assert data["gate_count"] == 21
        assert data["transistor_count"] == 96
        assert data["functional_mismatches"] == 0
        assert data["fits_within_trc"]

    def test_format_rows(self):
        text = figures.format_rows([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "2.500" in text
        assert figures.format_rows([]) == "(no rows)"


class TestSimulationFigures:
    def test_fig8_data_small(self):
        rows = figures.fig8_data(
            nrh_values=(1024,),
            mechanisms=("Chronus", "PRAC-4"),
            num_mixes=1,
            accesses_per_core=ACCESSES,
        )
        assert len(rows) == 2
        by_mechanism = {row["mechanism"]: row for row in rows}
        assert by_mechanism["Chronus"]["normalized_ws"] >= by_mechanism["PRAC-4"]["normalized_ws"]

    def test_fig9_data_small(self):
        rows = figures.fig9_data(
            nrh=64,
            mechanisms=("Chronus",),
            mixes_per_type=1,
            accesses_per_core=ACCESSES,
        )
        assert len(rows) == len(figures.MIX_TYPES)
        assert all(0.0 < row["normalized_ws"] <= 1.2 for row in rows)
