"""A guided tour of the promotion algorithm on one function.

Run with::

    python examples/loop_promotion_tour.py

Prints the IL before promotion, the Figure 1 sets the algorithm computes
for every loop (EXPLICIT / AMBIGUOUS / PROMOTABLE / LIFT), and the IL
after the rewrite, so you can watch the ``sload``/``sstore`` references
turn into copies and the landing pads and exits pick up the promote/
demote operations.
"""

from repro.analysis.loops import normalize_loops
from repro.analysis.modref import run_modref
from repro.frontend import compile_c
from repro.ir import format_function
from repro.opt.promotion import (
    gather_block_info,
    promote_function,
    solve_loop_equations,
)

SOURCE = r"""
int hits;
int misses;
int table[64];

int main(void) {
    int probe;
    int round;
    for (round = 0; round < 8; round++) {
        for (probe = 0; probe < 64; probe++) {
            if (table[probe] == probe) {
                hits = hits + 1;
            } else {
                misses = misses + 1;
            }
        }
        table[round * 8] = round;
    }
    printf("hits=%d misses=%d\n", hits, misses);
    return 0;
}
"""


def describe(tags) -> str:
    return "{" + ", ".join(sorted(t.name for t in tags)) + "}"


def main() -> None:
    module = compile_c(SOURCE, name="tour")
    run_modref(module)
    main_fn = module.functions["main"]

    forest = normalize_loops(main_fn)
    universe = frozenset(module.memory_tags())
    print("=" * 70)
    print("IL before promotion (after MOD/REF analysis):")
    print(format_function(main_fn))

    explicit, ambiguous = gather_block_info(main_fn, universe)
    sets = solve_loop_equations(main_fn, forest, explicit, ambiguous)
    print()
    print("Figure 1 sets per loop:")
    for loop in forest.loops_outermost_first():
        s = sets[loop.header]
        print(f"  loop {loop.header} (depth {loop.depth}):")
        print(f"    EXPLICIT   = {describe(s.explicit)}")
        print(f"    AMBIGUOUS  = {describe(s.ambiguous)}")
        print(f"    PROMOTABLE = {describe(s.promotable)}")
        print(f"    LIFT       = {describe(s.lift)}")

    report = promote_function(main_fn, forest, universe)
    print()
    print(f"references rewritten to copies: {report.references_rewritten}")
    print(f"promote loads inserted:        {report.loads_inserted}")
    print(f"demote stores inserted:        {report.stores_inserted}")
    print()
    print("=" * 70)
    print("IL after promotion:")
    print(format_function(main_fn))

    from repro.interp import run_module

    result = run_module(module)
    print("program output:", result.output.strip())
    print("dynamic counts:", result.counters)


if __name__ == "__main__":
    main()
