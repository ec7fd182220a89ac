"""Tests for the pressure-aware promotion throttle (section 3.4)."""

from repro.analysis.loops import normalize_loops
from repro.analysis.modref import run_modref
from repro.frontend import compile_c
from repro.interp import run_module
from repro.opt.pressure import (
    RESERVE,
    estimate_loop_pressure,
    plan_promotions,
    tag_use_frequency,
)
from repro.opt.promotion import PromotionOptions, promote_module
from repro.pipeline import PipelineOptions
from repro.regalloc import RegAllocOptions
from tests.helpers import run_c, run_optimized

MANY_GLOBALS = r"""
int a; int b; int c; int d; int e; int f; int g; int h;

int main(void) {
    int i;
    for (i = 0; i < 100; i++) {
        a += i; b += i; c += i; d += i;
        e += i; f += i; g += i; h += i;
        a += b;        /* a and b are the hottest tags */
        b += a;
    }
    printf("%d %d %d %d %d %d %d %d\n", a, b, c, d, e, f, g, h);
    return 0;
}
"""


def analyzed_main(src):
    module = compile_c(src)
    run_modref(module)
    func = module.functions["main"]
    forest = normalize_loops(func)
    return module, func, forest


class TestEstimates:
    def test_pressure_positive_in_loop(self):
        module, func, forest = analyzed_main(MANY_GLOBALS)
        loop = forest.loops[0]
        assert estimate_loop_pressure(func, loop) >= 2

    def test_frequency_ranks_hot_tags_first(self):
        module, func, forest = analyzed_main(MANY_GLOBALS)
        loop = forest.loops[0]
        freq = tag_use_frequency(func, loop)
        by_name = {t.name: n for t, n in freq.items()}
        assert by_name["a"] > by_name["c"]
        assert by_name["b"] > by_name["h"]


class TestPlan:
    def test_generous_budget_keeps_everything(self):
        module, func, forest = analyzed_main(MANY_GLOBALS)
        from repro.opt.promotion import gather_block_info, solve_loop_equations

        explicit, ambiguous = gather_block_info(
            func, frozenset(module.memory_tags())
        )
        sets = solve_loop_equations(func, forest, explicit, ambiguous)
        promotable = {h: s.promotable for h, s in sets.items()}
        plan = plan_promotions(func, forest, promotable, num_registers=256)
        assert not plan.dropped

    def test_tight_budget_drops_cold_tags_first(self):
        module, func, forest = analyzed_main(MANY_GLOBALS)
        from repro.opt.promotion import gather_block_info, solve_loop_equations

        explicit, ambiguous = gather_block_info(
            func, frozenset(module.memory_tags())
        )
        sets = solve_loop_equations(func, forest, explicit, ambiguous)
        promotable = {h: s.promotable for h, s in sets.items()}
        header = forest.loops[0].header
        base = plan_promotions(func, forest, promotable, 256).base_pressure[header]
        # allow exactly 2 promoted homes above the base pressure
        plan = plan_promotions(
            func, forest, promotable, num_registers=base + RESERVE + 2
        )
        kept = {t.name for t in plan.allowed[header]}
        assert len(kept) == 2
        assert kept == {"a", "b"}  # the hottest tags survive


class TestEndToEnd:
    def test_budgeted_promotion_preserves_semantics(self):
        expected = run_c(MANY_GLOBALS).output
        options = PipelineOptions(
            promotion_options=PromotionOptions(pressure_budget=10),
            regalloc=RegAllocOptions(num_registers=10),
        )
        cell = run_optimized(MANY_GLOBALS, options)
        assert cell.output == expected

    def test_budget_never_worse_than_no_promotion_on_tight_machine(self):
        """The throttle's guarantee is one-sided: it may leave promotion
        wins on the table (it is a conservative estimate), but budgeted
        promotion must never lose to disabling promotion outright."""
        regalloc = RegAllocOptions(num_registers=12)
        nopromo = run_optimized(
            MANY_GLOBALS, PipelineOptions(promotion=False, regalloc=regalloc)
        )
        aware = run_optimized(
            MANY_GLOBALS,
            PipelineOptions(
                promotion=True,
                regalloc=regalloc,
                promotion_options=PromotionOptions(pressure_budget=12),
            ),
        )
        assert aware.output == nopromo.output
        assert aware.counters.total_ops <= nopromo.counters.total_ops
        assert aware.counters.memory_ops() <= nopromo.counters.memory_ops()

    def test_budget_allows_full_promotion_when_roomy(self):
        module = compile_c(MANY_GLOBALS)
        run_modref(module)
        reports = promote_module(
            module, PromotionOptions(pressure_budget=128)
        )
        assert len(reports["main"].promoted_tags) == 8
        assert run_module(module).exit_code == 0

    def test_zero_budget_disables_promotion(self):
        module = compile_c(MANY_GLOBALS)
        run_modref(module)
        reports = promote_module(module, PromotionOptions(pressure_budget=0))
        assert reports["main"].promoted_tags == set()
        assert run_module(module).exit_code == 0
