"""Figure 2 — the paper's worked promotion example.

Rebuilds the Figure 2 triply nested loop nest, measures the promotion
algorithm itself (the paper argues it "runs quite quickly"), and checks
the published information table: PROMOTABLE(B1)={C}, PROMOTABLE(B3)={A},
LIFT at B3 not B5.
"""

from benchmarks.conftest import write_artifact
from repro.analysis.loops import find_loops, normalize_loops
from repro.opt.promotion import (
    gather_block_info,
    promote_function,
    solve_loop_equations,
)

from tests.opt.test_fig2_example import A, B, C, UNIVERSE, figure2_function


def test_fig2_equations_and_rewrite(benchmark, out_dir):
    def run_promotion():
        func = figure2_function()
        report = promote_function(func, normalize_loops(func), UNIVERSE)
        return func, report

    func, report = benchmark(run_promotion)

    assert report.promoted_tags == {A, C}
    assert report.lifted_in("B1") == frozenset({C})
    assert report.lifted_in("B3") == frozenset({A})
    assert report.lifted_in("B5") == frozenset()

    # regenerate the figure's information table
    check_func = figure2_function()
    forest = find_loops(check_func)
    explicit, ambiguous = gather_block_info(check_func, UNIVERSE)
    sets = solve_loop_equations(check_func, forest, explicit, ambiguous)
    lines = ["Figure 2: loop information sets",
             f"{'Loop':<6} {'EXPLICIT':<12} {'AMBIGUOUS':<12} "
             f"{'PROMOTABLE':<12} {'LIFT':<12}"]
    for header in ("B1", "B3", "B5"):
        s = sets[header]
        fmt = lambda tags: ",".join(sorted(t.name for t in tags)) or "-"
        lines.append(
            f"{header:<6} {fmt(s.explicit):<12} {fmt(s.ambiguous):<12} "
            f"{fmt(s.promotable):<12} {fmt(s.lift):<12}"
        )
    write_artifact(out_dir, "fig2_example.txt", "\n".join(lines))

    assert sets["B1"].promotable == {C}
    assert sets["B3"].promotable == {A}
    assert sets["B5"].promotable == {A}
