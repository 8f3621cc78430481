"""Experiment driver tests: row structure and basic invariants.

The paper-shape claims live in :mod:`repro.analysis.manifest` and are
checked by test_manifest.py; here we verify the drivers produce complete,
well-formed data.
"""

import pytest

from repro.analysis.experiments import (
    fig3_unrolling,
    fig7_conv1,
    fig9_zhang_comparison,
    table4_cpu_comparison,
    table5_pe_energy,
)
from repro.analysis.report import (
    render_fig3,
    render_fig7,
    render_fig9,
    render_table4,
    render_table5,
    format_table,
)
from repro.arch.config import CONFIG_16_16


class TestFig3:
    def test_ten_layers(self):
        rows = fig3_unrolling()
        assert len(rows) == 10
        assert {r.network for r in rows} == {"alexnet", "googlenet"}

    def test_unrolled_always_bigger(self):
        for row in fig3_unrolling():
            assert row.unrolled_bits > row.raw_bits

    def test_word_bits_scale(self):
        r16 = fig3_unrolling(word_bits=16)
        r32 = fig3_unrolling(word_bits=32)
        assert r32[0].raw_bits == 2 * r16[0].raw_bits


class TestFig7:
    def test_row_coverage(self):
        rows = fig7_conv1(configs=[CONFIG_16_16])
        assert len(rows) == 4 * 4  # 4 nets x 4 schemes
        assert {r.scheme for r in rows} == {"ideal", "inter", "intra", "partition"}

    def test_cycles_positive(self):
        for r in fig7_conv1(configs=[CONFIG_16_16]):
            assert r.cycles > 0


class TestFig9:
    def test_designs(self):
        rows = fig9_zhang_comparison()
        assert [r.design for r in rows] == [
            "zhang-7,64",
            "adpa-16-24",
            "adpa-16-28",
            "adpa-16-32",
        ]

    def test_conv1_fraction_of_whole(self):
        for r in fig9_zhang_comparison():
            assert 0 < r.conv1_ms < r.whole_ms


class TestTable4:
    def test_rows(self):
        rows = table4_cpu_comparison()
        assert [r.network for r in rows] == ["alexnet", "googlenet", "vgg", "nin"]
        for r in rows:
            assert r.speedup16 > 1
            assert r.speedup32 > r.speedup16


class TestTable5:
    def test_inter_is_implicit_baseline(self):
        rows = table5_pe_energy()
        assert {r.scheme for r in rows} == {
            "intra",
            "partition",
            "adaptive-1",
            "adaptive-2",
        }
        nets = {r.network for r in rows}
        assert nets == {"alexnet", "googlenet", "vgg"}


class TestRendering:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_renderers_mention_artifacts(self):
        assert "Fig. 3" in render_fig3(fig3_unrolling())
        assert "Fig. 7" in render_fig7(fig7_conv1(configs=[CONFIG_16_16]))
        assert "Fig. 9" in render_fig9(fig9_zhang_comparison())
        assert "Table 4" in render_table4(table4_cpu_comparison())
        assert "Table 5" in render_table5(table5_pe_energy())

    def test_fig7_pivot_has_all_columns(self):
        text = render_fig7(fig7_conv1(configs=[CONFIG_16_16]))
        for scheme in ("ideal", "inter", "intra", "partition"):
            assert scheme in text


class TestTable1:
    def test_three_rows(self):
        from repro.analysis.experiments import table1_scheme_comparison

        rows = table1_scheme_comparison()
        assert [r.scheme for r in rows] == ["inter", "intra", "partition"]

    def test_render(self):
        from repro.analysis.experiments import table1_scheme_comparison
        from repro.analysis.report import render_table1

        text = render_table1(table1_scheme_comparison())
        assert "Table 1" in text
        assert "kernel = stride" in text


class TestHeadline:
    def test_values_in_sane_ranges(self):
        from repro.analysis.headline import headline_numbers

        h = headline_numbers()
        assert h.best_layer_speedup >= h.conv1_partition_vs_inter >= 1.0
        assert h.avg_adaptive_vs_inter >= 1.0
        assert -100 < h.avg_pe_energy_saving_pct < 100

    def test_render_mentions_paper_values(self):
        from repro.analysis.headline import headline_numbers, render_headline

        text = render_headline(headline_numbers())
        assert "5.80" in text and "28.04" in text


class TestEnergyBreakdownRender:
    def test_rows_and_components(self, alexnet, cfg16):
        from repro.adaptive import plan_network
        from repro.analysis.report import render_energy_breakdown

        runs = [plan_network(alexnet, cfg16, p) for p in ("inter", "adaptive-2")]
        text = render_energy_breakdown(runs)
        assert "alexnet/inter" in text
        assert "alexnet/adaptive-2" in text
        for col in ("PE", "in-buf", "out-buf", "w-buf", "DRAM", "total"):
            assert col in text
