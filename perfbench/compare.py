"""Compare benchmark results files, baseline against candidate.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.json NEW.json [NEW2.json ...]

Each file is written by ``python -m perfbench --out FILE`` and holds one
or more untraced runs per workload.  The first file is the baseline; the
runs of every later file are pooled as the candidate.  For each workload
and end-to-end metric the table shows both sides' median and quartiles,
the change of the median as a share of the baseline's (positive means
worse, whichever direction is better), the metric's bound, and a
verdict:

``within bound``
    the candidate's median is no worse than the baseline's by more than
    the bound;
``regression``
    it is worse by more than the bound;
``unresolved``
    the baseline's own spread (Q3 - Q1 over the median) is wider than
    the bound, so a change of that size cannot be told from noise --
    unless every candidate run is better than every baseline run.

A workload ``BENCHMARK.json`` does not list (``serve-mixed``) has its
verdict marked ``(not gated)``: its latencies drift between sittings by
more than the bound, so its verdict is shown but never fails the
comparison.  The exit code is 1 when any pairing of a listed workload is
a regression, 2 when the files were made with different settings (a
``--smoke`` file against a full one), else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import END_TO_END  # noqa: E402
from perfbench.run import BENCHMARK_WORKLOADS  # noqa: E402
from perfbench.stats import quartiles  # noqa: E402


def load_runs(paths: list[str]) -> tuple[tuple, dict[str, dict[str, list[float]]]]:
    """The run length and smoke flag the files share, and ``workload ->
    metric -> values`` over their untraced runs.  Raises ValueError for
    files made with different settings, whose runs cannot be pooled."""
    runs: dict[str, dict[str, list[float]]] = {}
    settings = set()
    for path in paths:
        payload = json.loads(Path(path).read_text())
        settings.add((payload.get("seconds"), payload.get("smoke")))
        if len(settings) > 1:
            raise ValueError(f"{path}: made with other settings than {paths[0]}")
        for workload, entry in payload["workloads"].items():
            for run in entry["runs"]:
                for name, metric in run["metrics"].items():
                    runs.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return settings.pop(), runs


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[float, str]:
    """``(worse_share, verdict)`` for one workload and metric."""
    sign = 1 if better == "lower" else -1
    _, base_median, _ = quartiles(base)
    _, new_median, _ = quartiles(new)
    if base_median:
        worse = sign * (new_median - base_median) / abs(base_median)
    else:
        worse = 0.0 if new_median == base_median else float("inf")
    q1, _, q3 = quartiles(base)
    spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    every_run_better = max(sign * v for v in new) < min(sign * v for v in base)
    if spread > bound and not every_run_better:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regression"
    return worse, "within bound"


def compare(base_paths: list[str], new_paths: list[str]) -> tuple[list[str], int]:
    """The report's lines and the number of regressions.  Raises
    ValueError when the files were made with different settings."""
    (base_settings, base), (new_settings, new) = load_runs(base_paths), load_runs(new_paths)
    if base_settings != new_settings:
        raise ValueError(f"{new_paths[0]}: made with other settings than {base_paths[0]}")
    lines = [
        f"{'workload':<15} {'metric':<12} {'unit':<6} "
        f"{'base median [Q1, Q3]':>32} {'new median [Q1, Q3]':>32} "
        f"{'delta':>8} {'bound':>6}  verdict"
    ]
    regressions = 0
    for workload in sorted(set(base) | set(new)):
        for name, (unit, better, bound) in END_TO_END.items():
            base_values = base.get(workload, {}).get(name)
            new_values = new.get(workload, {}).get(name)
            if not base_values or not new_values:
                lines.append(f"{workload:<15} {name:<12} missing on one side")
                continue
            worse, label = verdict(base_values, new_values, better, bound)
            if workload in BENCHMARK_WORKLOADS:
                regressions += label == "regression"
            else:
                label += " (not gated)"
            lines.append(
                f"{workload:<15} {name:<12} {unit:<6} "
                f"{_summary(base_values):>32} {_summary(new_values):>32} "
                f"{worse:>+8.1%} {bound:>6.1%}  {label}"
            )
    return lines, regressions


def _summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/compare.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("base", help="baseline results file")
    parser.add_argument("new", nargs="+", help="candidate results file(s), pooled")
    args = parser.parse_args(argv)
    try:
        lines, regressions = compare([args.base], args.new)
    except ValueError as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
