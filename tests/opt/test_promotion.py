"""Behavioural tests for scalar register promotion on real C programs."""

from repro.analysis.loops import normalize_loops
from repro.analysis.modref import run_modref
from repro.frontend import compile_c
from repro.interp import run_module
from repro.opt.promotion import (
    PromotionOptions,
    promote_function,
    promote_module,
)
from repro.pipeline import Analysis, PipelineOptions
from tests.helpers import run_all_variants, run_optimized


def promote(src: str, options: PromotionOptions | None = None):
    module = compile_c(src)
    run_modref(module)
    reports = promote_module(module, options)
    return module, reports


class TestWhatPromotes:
    def test_global_in_simple_loop(self):
        src = r"""
        int g;
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) { g = g + i; }
            return g;
        }
        """
        module, reports = promote(src)
        assert {t.name for t in reports["main"].promoted_tags} == {"g"}
        result = run_module(module)
        assert result.exit_code == 45

    def test_array_never_promotes(self):
        src = r"""
        int arr[8];
        int main(void) {
            int i;
            for (i = 0; i < 8; i++) { arr[i] = i; }
            return arr[3];
        }
        """
        module, reports = promote(src)
        assert reports["main"].promoted_tags == set()

    def test_call_blocks_promotion(self):
        src = r"""
        int g;
        void touch(void) { g = g + 1; }
        int main(void) {
            int i;
            for (i = 0; i < 5; i++) {
                g = g + 2;
                touch();
            }
            return g;
        }
        """
        module, reports = promote(src)
        # touch() modifies g: ambiguous inside main's loop
        assert "g" not in {t.name for t in reports["main"].promoted_tags}
        # but inside touch there is no loop at all, so nothing promotes
        assert reports["touch"].promoted_tags == set()
        assert run_module(module).exit_code == 15

    def test_unanalyzed_call_blocks_promotion(self):
        src = r"""
        int g;
        void bump(void) { g = g + 1; }
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) { g = g + 1; bump(); }
            printf("%d\n", g);
            return 0;
        }
        """
        # no analysis ran: the call's MOD/REF sets are universal, so they
        # reference every tag of the module, g included
        module = compile_c(src)
        func = module.functions["main"]
        report = promote_function(
            func, normalize_loops(func), frozenset(module.memory_tags())
        )
        assert "g" not in {t.name for t in report.promoted_tags}
        assert run_module(module).output == "20\n"

    def test_pure_call_does_not_block(self):
        src = r"""
        int g;
        int twice(int x) { return x * 2; }
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) { g = g + twice(i); }
            return g;
        }
        """
        module, reports = promote(src)
        assert {t.name for t in reports["main"].promoted_tags} == {"g"}
        assert run_module(module).exit_code == 12

    def test_aliased_global_blocked_without_pointer_analysis(self):
        src = r"""
        int g;
        int sink[4];
        int *p;
        int main(void) {
            int i;
            p = sink;
            for (i = 0; i < 4; i++) {
                g = g + 1;
                p[i] = g;
            }
            return g;
        }
        """
        # g's address is never taken, so even MOD/REF keeps p's tag sets
        # away from g and the promotion succeeds
        module, reports = promote(src)
        assert "g" in {t.name for t in reports["main"].promoted_tags}

    def test_address_taken_global_blocked_by_modref(self):
        src = r"""
        int g;
        int *alias;
        int main(void) {
            int i;
            alias = &g;
            for (i = 0; i < 4; i++) {
                g = g + 1;
                *alias = g;
            }
            return g;
        }
        """
        module, reports = promote(src)
        assert "g" not in {t.name for t in reports["main"].promoted_tags}

    def test_lift_to_outermost_loop(self):
        src = r"""
        int g;
        int main(void) {
            int i;
            int j;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 3; j++) {
                    g = g + 1;
                }
            }
            return g;
        }
        """
        module, reports = promote(src)
        report = reports["main"]
        lifted_counts = [len(l.lifted) for l in report.loops]
        # g is lifted around exactly one loop (the outer one)
        assert sum(lifted_counts) == 1
        outer = max(report.loops, key=lambda l: 0 if not l.lifted else 1)
        assert run_module(module).exit_code == 9

    def test_throttle_limits_promotions(self):
        src = r"""
        int a; int b; int c; int d;
        int main(void) {
            int i;
            for (i = 0; i < 3; i++) {
                a += 1; b += 1; c += 1; d += 1;
            }
            return a + b + c + d;
        }
        """
        module, reports = promote(
            src, PromotionOptions(max_promoted_per_loop=2)
        )
        assert len(reports["main"].promoted_tags) == 2
        assert run_module(module).exit_code == 12


class TestEndToEndCorrectness:
    def test_variants_agree_on_aliasing_program(self):
        src = r"""
        int acc;
        int data[6];
        int *cursor;
        int consume(void) {
            int v;
            v = *cursor;
            cursor = cursor + 1;
            return v;
        }
        int main(void) {
            int i;
            int total;
            for (i = 0; i < 6; i++) { data[i] = i * 7 % 5; }
            cursor = data;
            total = 0;
            for (i = 0; i < 6; i++) {
                acc = acc * 2 + 1;
                total += consume();
            }
            printf("%d %d\n", acc, total);
            return 0;
        }
        """
        run_all_variants(src)

    def test_promotion_reduces_memory_traffic(self):
        src = r"""
        int counter;
        int main(void) {
            int i;
            for (i = 0; i < 1000; i++) { counter += i; }
            printf("%d\n", counter);
            return 0;
        }
        """
        cells = run_all_variants(src)
        without = cells["modref/nopromo"].counters
        with_ = cells["modref/promo"].counters
        assert with_.stores < without.stores
        assert with_.loads < without.loads
        # the loop ran 1000 iterations with a load+store per iteration;
        # promotion leaves O(1) memory traffic
        assert with_.stores <= 5
        assert with_.loads <= 5

    def test_conditional_store_preserved(self):
        src = r"""
        int flag;
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) {
                if (i == 20) { flag = 99; }
            }
            printf("%d\n", flag);
            return 0;
        }
        """
        cells = run_all_variants(src)
        assert cells["modref/promo"].output == "0\n"

    def test_loop_never_entered(self):
        src = r"""
        int g = 5;
        int main(void) {
            int i;
            for (i = 0; i < 0; i++) { g = 77; }
            printf("%d\n", g);
            return 0;
        }
        """
        cells = run_all_variants(src)
        assert cells["modref/promo"].output == "5\n"

    def test_break_paths_demote_correctly(self):
        src = r"""
        int best;
        int main(void) {
            int i;
            for (i = 0; i < 100; i++) {
                best = best + i;
                if (best > 50) { break; }
            }
            printf("%d\n", best);
            return 0;
        }
        """
        run_all_variants(src)

    def test_multiple_disjoint_loops_same_tag(self):
        src = r"""
        int g;
        int main(void) {
            int i;
            for (i = 0; i < 5; i++) { g += 1; }
            printf("%d ", g);
            for (i = 0; i < 5; i++) { g += 2; }
            printf("%d\n", g);
            return 0;
        }
        """
        cells = run_all_variants(src)
        assert cells["modref/promo"].output == "5 15\n"

    def test_global_read_in_loop_written_outside(self):
        src = r"""
        int scale;
        int main(void) {
            int i;
            int total;
            scale = 3;
            total = 0;
            for (i = 0; i < 8; i++) { total += i * scale; }
            scale = total;
            printf("%d\n", scale);
            return 0;
        }
        """
        cells = run_all_variants(src)
        assert cells["modref/promo"].output == "84\n"
