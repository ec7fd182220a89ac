"""Run every workload and write one results file.

Usage (from the repository root)::

    python -m perfbench [--seed S] [--repeat R] [--out FILE] [--smoke]

Each of the four workloads runs ``R`` times untraced (the end-to-end
metrics), the workloads taking turns so slow drift on the host spreads
over all of them, and then once traced (the per-layer metrics).  Every
run is the one ``perfbench/run.py`` makes, in fresh processes, and
measures for the default run length.  Each metric is
printed by name with its unit as its run finishes; ``--out`` writes all
runs, with host metadata, to one JSON file that ``perfbench/compare.py``
reads.  The exit code is 1 when any run failed or reported a wrong
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import use_source_tree
from .run import DEFAULT_SECONDS, WORKLOADS, WorkerFailed, measure

SMOKE_SECONDS = 0.5


def print_run(workload: str, traced: bool, result: dict) -> None:
    kind = "traced" if traced else "untraced"
    print(
        f"{workload} ({kind}): correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help=f"a few fast programs, {SMOKE_SECONDS:g} s runs, one set-up")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS

    use_source_tree()
    from repro.diag.host import host_metadata

    payload = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "host": host_metadata(),
        "workloads": {name: {"runs": [], "traced": None} for name in WORKLOADS},
    }
    ok = True
    try:
        for traced, rounds in ((False, args.repeat), (True, 1)):
            for _ in range(rounds):
                for workload in WORKLOADS:
                    result = measure(workload, args.seed, seconds, traced, args.smoke)
                    print_run(workload, traced, result)
                    ok &= result["correct"]
                    entry = payload["workloads"][workload]
                    if traced:
                        entry["traced"] = result
                    else:
                        entry["runs"].append(result)
    except WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        ok = False
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
