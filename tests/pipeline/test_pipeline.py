"""Integration tests for the full compilation pipeline."""

from repro.pipeline import (
    Analysis,
    PipelineOptions,
    check_outputs_agree,
    compile_and_run,
    compile_source,
    paper_variants,
)
from repro.regalloc import RegAllocOptions
from tests.helpers import run_all_variants, run_c

PROGRAM = r"""
int total;
int limit;

int step(int x) { return x * 3 + 1; }

int main(void) {
    int i;
    limit = 20;
    for (i = 0; i < limit; i++) {
        total += step(i) % 7;
    }
    printf("%d\n", total);
    return 0;
}
"""


class TestVariants:
    def test_four_paper_variants_exist(self):
        variants = paper_variants()
        assert set(variants) == {
            "modref/nopromo",
            "modref/promo",
            "pointer/nopromo",
            "pointer/promo",
        }
        assert variants["modref/promo"].promotion
        assert not variants["pointer/nopromo"].promotion
        assert variants["pointer/promo"].analysis is Analysis.POINTER

    def test_all_variants_preserve_semantics(self):
        run_all_variants(PROGRAM)

    def test_variant_name(self):
        opts = PipelineOptions(analysis=Analysis.POINTER, promotion=False)
        assert opts.variant_name() == "pointer/nopromo"

    def test_check_outputs_agree_reports_divergence(self):
        cells = run_all_variants(PROGRAM)
        assert check_outputs_agree(cells) == []
        # sabotage one cell
        import copy

        broken = copy.copy(cells["modref/promo"])
        broken.output = "different\n"
        cells["modref/promo"] = broken
        code = cells["modref/nopromo"].exit_code
        assert check_outputs_agree(cells) == [
            f"variant modref/promo diverged from modref/nopromo: "
            f"exit {code} vs {code}"
        ]


class TestOptimizationEffects:
    def test_optimized_never_slower_on_promotion_friendly_code(self):
        cells = run_all_variants(PROGRAM)
        raw = run_c(PROGRAM)
        for cell in cells.values():
            assert cell.counters.total_ops <= raw.counters.total_ops

    def test_promotion_effect_visible(self):
        cells = run_all_variants(PROGRAM)
        assert (
            cells["modref/promo"].counters.stores
            < cells["modref/nopromo"].counters.stores
        )

    def test_analysis_none_still_correct(self):
        opts = PipelineOptions(analysis=Analysis.NONE, promotion=True)
        cell = compile_and_run(PROGRAM, opts)
        assert cell.output == run_c(PROGRAM).output

    def test_no_promotion_without_analysis_for_globals_in_call_loops(self):
        # with Analysis.NONE every call keeps a universal summary, so the
        # promoter can find nothing in loops containing calls
        opts = PipelineOptions(analysis=Analysis.NONE, promotion=True)
        result = compile_source(PROGRAM, opts)
        report = result.promotion_reports["main"]
        assert report.promoted_tags == set()

    def test_verify_each_stage(self):
        opts = PipelineOptions(verify_each_stage=True)
        compile_source(PROGRAM, opts)

    def test_pass_toggles(self):
        opts = PipelineOptions(
            value_numbering=False,
            constant_propagation=False,
            licm=False,
            pre=False,
            dce=False,
            clean=False,
            run_regalloc=False,
            promotion=True,
        )
        cell = compile_and_run(PROGRAM, opts)
        assert cell.output == run_c(PROGRAM).output

    def test_small_register_file(self):
        opts = PipelineOptions(regalloc=RegAllocOptions(num_registers=6))
        cell = compile_and_run(PROGRAM, opts)
        assert cell.output == run_c(PROGRAM).output


class TestCompileResultReports:
    def test_reports_populated(self):
        result = compile_source(PROGRAM, PipelineOptions())
        assert "main" in result.promotion_reports
        assert "main" in result.regalloc_reports
        assert result.modref is not None

    def test_pointer_promotion_reports(self):
        opts = PipelineOptions(pointer_promotion=True)
        result = compile_source(PROGRAM, opts)
        assert "main" in result.pointer_promotion_reports
