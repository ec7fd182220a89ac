"""One benchmark process: set a workload up, then measure it on request.

``perfbench/run.py`` starts this as ``python -m perfbench.worker`` and
talks to it over stdin/stdout: the worker prints ``ready`` once set up;
the parent then writes ``measure`` (measure, print one JSON result line,
tear down) or closes stdin (tear down and exit).  Timing set-up from the
parent's side makes ``setup_s`` the cost of a fresh process getting
ready: interpreter start, imports and the workload's own set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys

from . import use_source_tree


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # stdout carries the protocol; anything else the program prints goes
    # to stderr so it cannot be mistaken for a protocol line
    protocol, sys.stdout = sys.stdout, sys.stderr
    use_source_tree()
    from .workloads import workload_classes

    workload = workload_classes()[args.workload](
        args.seed, args.seconds, args.trace, args.smoke
    )
    try:
        workload.setup()
        # what set-up built stays alive for the whole run; keep the
        # collector from rescanning it inside every timed operation
        gc.collect()
        gc.freeze()
        print("ready", file=protocol, flush=True)
        if sys.stdin.readline().strip() != "measure":
            return 0
        outcome = workload.measure()
    finally:
        workload.close()
    for problem in outcome.problems:
        print(f"perfbench {args.workload}: FAILED {problem}", file=sys.stderr)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
