"""Tests for pointer-based promotion (section 3.3) — the Figure 3 pattern."""

from textwrap import dedent

from repro.analysis.modref import run_modref
from repro.frontend import compile_c
from repro.interp import MachineOptions, run_module
from repro.ir.parser import parse_module
from repro.opt.licm import run_licm_module
from repro.opt.pointer_promotion import promote_pointers_module
from repro.pipeline import Analysis, PipelineOptions
from tests.helpers import run_c, run_optimized

FIGURE3 = r"""
#define DIM_X 6
#define DIM_Y 8

int A[DIM_X][DIM_Y];
int B[DIM_X];

int main(void) {
    int i;
    int j;
    for (i = 0; i < DIM_X; i++) {
        for (j = 0; j < DIM_Y; j++) {
            A[i][j] = i + j;
        }
    }
    for (i = 0; i < DIM_X; i++) {
        B[i] = 0;
        for (j = 0; j < DIM_Y; j++) {
            B[i] += A[i][j];
        }
    }
    printf("%d %d\n", B[0], B[DIM_X - 1]);
    return 0;
}
"""


def pipeline_with_pointer_promotion() -> PipelineOptions:
    return PipelineOptions(
        analysis=Analysis.MODREF, promotion=True, pointer_promotion=True
    )


class TestFigure3:
    def test_reference_promoted(self):
        module = compile_c(FIGURE3)
        run_modref(module)
        run_licm_module(module)  # exposes the invariant base &B[i]
        reports = promote_pointers_module(module)
        assert reports["main"].promoted_bases >= 1
        result = run_module(module)
        assert result.output == "28 68\n"

    def test_removes_inner_loop_traffic(self):
        baseline = run_optimized(FIGURE3, PipelineOptions(pointer_promotion=False))
        promoted = run_optimized(FIGURE3, pipeline_with_pointer_promotion())
        assert promoted.output == baseline.output == "28 68\n"
        # the B[i] load+store per inner iteration becomes one load+store
        # per outer iteration
        assert promoted.counters.stores < baseline.counters.stores
        assert promoted.counters.loads < baseline.counters.loads

    def test_scalar_promotion_alone_cannot_do_this(self):
        scalar_only = run_optimized(
            FIGURE3, PipelineOptions(promotion=True, pointer_promotion=False)
        )
        both = run_optimized(FIGURE3, pipeline_with_pointer_promotion())
        assert both.counters.stores < scalar_only.counters.stores


class TestSafetyConditions:
    def test_aliasing_second_pointer_blocks(self):
        # a second access path to B inside the loop must block promotion
        src = r"""
        int B[4];
        int main(void) {
            int i;
            int j;
            for (i = 0; i < 4; i++) {
                for (j = 0; j < 4; j++) {
                    B[i] += 1;
                    B[j] += 10;   /* different base register, same tag */
                }
            }
            printf("%d %d %d %d\n", B[0], B[1], B[2], B[3]);
            return 0;
        }
        """
        expected = run_c(src).output
        cell = run_optimized(src, pipeline_with_pointer_promotion())
        assert cell.output == expected

    def test_variant_base_blocks(self):
        # base address changes inside the loop: not promotable
        src = r"""
        int B[8];
        int main(void) {
            int i;
            for (i = 0; i < 8; i++) {
                B[i] = i * i;     /* address varies with i */
            }
            printf("%d\n", B[5]);
            return 0;
        }
        """
        expected = run_c(src).output
        cell = run_optimized(src, pipeline_with_pointer_promotion())
        assert cell.output == expected == "25\n"

    def test_call_touching_tag_blocks(self):
        src = r"""
        int B[4];
        void spoil(void) { B[2] = 99; }
        int main(void) {
            int i;
            int j;
            for (i = 0; i < 4; i++) {
                for (j = 0; j < 3; j++) {
                    B[i] += 1;
                    spoil();
                }
            }
            printf("%d %d\n", B[1], B[2]);
            return 0;
        }
        """
        expected = run_c(src).output
        cell = run_optimized(src, pipeline_with_pointer_promotion())
        assert cell.output == expected

        # a universal MOD set clobbers the base's tags even when the
        # call's REF set misses them
        text = """
        global a size=4
        global b size=4

        func f(%p0) {
        B0: ; entry
            jmp B1
        B1:
            %v1 = load [%p0] [a]
            store %v1 -> [%p0] [a]
            call spoil() mod={mod} ref=[b]
            %t2 = loadi 1
            cbr %t2 ? B1 : B2
        B2:
            ret
        }
        """
        for mod, action, reason in (("[*]", "blocked", "call-clobbers"),
                                    ("[]", "promoted", None)):
            module = parse_module(dedent(text).replace("{mod}", mod))
            (decision,) = promote_pointers_module(module)["f"].decisions
            assert (decision.action, decision.reason) == (action, reason)

    def test_read_only_reference_gets_no_store(self):
        src = r"""
        int table[4];
        int total;
        int main(void) {
            int i;
            int j;
            table[2] = 5;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 10; j++) {
                    total += table[2];
                }
            }
            printf("%d\n", total);
            return 0;
        }
        """
        expected = run_c(src).output
        cell = run_optimized(src, pipeline_with_pointer_promotion())
        assert cell.output == expected == "150\n"

    def test_through_heap_pointer(self):
        src = r"""
        int main(void) {
            int *buf;
            int i;
            int j;
            buf = (int *) malloc(16);
            buf[1] = 0;
            for (i = 0; i < 5; i++) {
                for (j = 0; j < 6; j++) {
                    buf[1] += i + j;
                }
            }
            printf("%d\n", buf[1]);
            return 0;
        }
        """
        expected = run_c(src).output
        opts = PipelineOptions(
            analysis=Analysis.POINTER, promotion=True, pointer_promotion=True
        )
        cell = run_optimized(src, opts)
        assert cell.output == expected
