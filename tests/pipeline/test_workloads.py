"""Tests for the 14-program workload suite and the experiment harness.

The full Figures 5-7 matrix is exercised by the benchmarks; here we check
the registry, compile-and-run every program once (unoptimized), and run
the complete 4-variant matrix on three representative programs with the
output-agreement oracle.
"""

import pytest

from repro.frontend import compile_c
from repro.harness import figure_rows, format_figure, summary_line
from repro.interp import MachineOptions, run_module
from repro.runner.report import run_suite_report
from repro.workloads import all_workloads, get_workload, workload_names

EXPECTED_NAMES = {
    "tsp", "mlink", "fft", "clean", "compress", "dhrystone", "water",
    "indent", "allroots", "bc", "go", "bison", "gzip_enc", "gzip_dec",
}


class TestRegistry:
    def test_fourteen_programs(self):
        assert set(workload_names()) == EXPECTED_NAMES
        assert len(all_workloads()) == 14

    def test_lookup(self):
        w = get_workload("mlink")
        assert w.name == "mlink"
        assert "linkage" in w.description

    def test_every_workload_documents_paper_behaviour(self):
        for w in all_workloads():
            assert w.paper_behaviour, w.name

    def test_sources_are_nontrivial(self):
        for w in all_workloads():
            assert w.line_count >= 40, w.name


class TestExecution:
    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(n, marks=pytest.mark.slow)
            if n in {"compress", "gzip_enc", "gzip_dec"}
            else n
            for n in sorted(EXPECTED_NAMES)
        ],
    )
    def test_compiles_and_runs_unoptimized(self, name):
        w = get_workload(name)
        module = compile_c(w.source, name=w.name, defines=w.defines)
        result = run_module(module, options=MachineOptions(max_steps=30_000_000))
        assert result.exit_code == 0, result.output
        assert result.output.strip(), "every workload prints a result line"
        assert w.name.split("_")[0] in result.output

    @pytest.mark.slow
    def test_deterministic(self):
        w = get_workload("compress")
        first = run_module(compile_c(w.source, defines=w.defines))
        second = run_module(compile_c(w.source, defines=w.defines))
        assert first.output == second.output
        assert first.counters.total_ops == second.counters.total_ops


def program_matrix(name):
    """All four variants of one workload; every variant printed the same."""
    report = run_suite_report([name])
    assert report.ok, (report.failures, report.disagreements)
    return report.results[name]


class TestHarness:
    @pytest.fixture(scope="class")
    def mlink_matrix(self):
        return program_matrix("mlink")

    def test_matrix_has_four_cells(self, mlink_matrix):
        assert set(mlink_matrix.cells) == {
            "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo",
        }

    def test_mlink_shows_large_store_removal(self, mlink_matrix):
        row = mlink_matrix.row("modref", "stores")
        assert row.percent_removed > 40.0  # the paper's standout result

    def test_pointer_beats_modref_on_mlink(self, mlink_matrix):
        modref = mlink_matrix.row("modref", "stores")
        pointer = mlink_matrix.row("pointer", "stores")
        assert pointer.with_promotion <= modref.with_promotion

    def test_rows_and_formatting(self, mlink_matrix):
        rows = figure_rows({"mlink": mlink_matrix}, "loads")
        assert len(rows) == 2
        table = format_figure({"mlink": mlink_matrix}, "stores")
        assert "mlink" in table
        assert "% removed" in table
        assert summary_line(rows)

    def test_unknown_metric_rejected(self, mlink_matrix):
        with pytest.raises(ValueError):
            figure_rows({"mlink": mlink_matrix}, "cycles")

    @pytest.mark.slow
    def test_tsp_has_no_opportunities(self):
        matrix = program_matrix("tsp")
        for analysis in ("modref", "pointer"):
            assert matrix.row(analysis, "stores").difference == 0
            assert matrix.row(analysis, "loads").difference == 0

    def test_dhrystone_promotion_is_not_a_win(self):
        matrix = program_matrix("dhrystone")
        row = matrix.row("modref", "total_ops")
        # the paper: a marginal net loss (promotion in one-trip loops)
        assert row.percent_removed <= 0.5
