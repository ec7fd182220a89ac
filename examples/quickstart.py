"""Quickstart: compile a C program four ways and watch the memory traffic.

Run with::

    python examples/quickstart.py

This is the paper's experiment in miniature: the same program compiled
with and without register promotion, under MOD/REF and points-to
analysis, then executed on the instrumented interpreter.  Promotion keeps
``counter`` and ``limit`` in registers across the loop, so the loads and
stores collapse to a handful.
"""

from repro.pipeline import check_outputs_agree, compile_and_run, paper_variants

SOURCE = r"""
int counter;
int limit;

int main(void) {
    int i;
    limit = 1000;
    for (i = 0; i < limit; i++) {
        counter = counter + i % 10;
    }
    printf("counter=%d\n", counter);
    return 0;
}
"""


def main() -> None:
    cells = {}
    print(f"{'variant':<18} {'total ops':>10} {'loads':>8} {'stores':>8}")
    print("-" * 48)
    for name, options in paper_variants().items():
        cell = compile_and_run(SOURCE, options, name="quickstart")
        cells[name] = cell
        c = cell.counters
        print(f"{name:<18} {c.total_ops:>10} {c.loads:>8} {c.stores:>8}")

    disagreements = check_outputs_agree(cells)
    if disagreements:
        raise SystemExit("; ".join(disagreements))
    print()
    print("program output (identical for every variant):")
    print(" ", cells["modref/promo"].output.strip())

    report = cells["modref/promo"].compile_result.promotion_reports["main"]
    promoted = ", ".join(sorted(t.name for t in report.promoted_tags))
    print(f"promoted to registers in main: {promoted}")


if __name__ == "__main__":
    main()
