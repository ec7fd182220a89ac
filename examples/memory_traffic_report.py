"""Regenerate the paper's figures for any workload from the suite.

Run with::

    python examples/memory_traffic_report.py mlink
    python examples/memory_traffic_report.py           # the whole suite

Produces the Figure 5/6/7 rows (total operations, stores, loads; without
vs with promotion; MOD/REF vs points-to) for the chosen programs.
"""

import sys

from repro.harness import format_figure
from repro.runner import run_suite_report
from repro.workloads import get_workload, workload_names


def main() -> None:
    names = sys.argv[1:] or workload_names()
    unknown = [n for n in names if n not in workload_names()]
    if unknown:
        raise SystemExit(
            f"unknown workload(s) {unknown}; choose from {workload_names()}"
        )

    print(
        f"compiling and running {', '.join(names)} (4 variants each)...",
        flush=True,
    )
    report = run_suite_report(names)
    if not report.ok:
        raise SystemExit(
            f"suite failed: {[f.as_dict() for f in report.failures]} "
            f"{report.disagreements}"
        )
    results = report.results

    for metric in ("total_ops", "stores", "loads"):
        print()
        print(format_figure(results, metric))

    print()
    print("paper behaviour notes:")
    for name in names:
        print(f"  {name:<10} {get_workload(name).paper_behaviour}")


if __name__ == "__main__":
    main()
