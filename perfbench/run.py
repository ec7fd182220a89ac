"""Run one benchmark workload and print its result as one JSON line.

Usage (from the repository root; no build step, no ``PYTHONPATH``)::

    python3 perfbench/run.py --workload compile-cold --seed 0 --seconds 20 --trace 0

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports every end-to-end metric; ``--trace
1`` makes a separate traced run and reports every per-layer metric.
An untraced run sets the workload up in ``SETUPS`` fresh processes one
after another and reports the median set-up time; the last of them goes
on to measure.  Every time is scaled to nominal host speed, see
``perfbench/speed.py``.  The exit code is 0 whenever a result is printed, also
when outputs were wrong (``correct`` says so), and 1 when no result
could be produced, as in a directory without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.speed import speed_scale, time_reference  # noqa: E402

WORKLOADS = ("compile-cold", "execute-hot", "edit-recompile", "serve-mixed")
#: the workloads BENCHMARK.json lists: those whose every end-to-end
#: metric stays well within its bound from run to run.  serve-mixed's
#: latencies moved 10-19% between runs on a shared host (see the README),
#: so it is run and compared, but not listed
BENCHMARK_WORKLOADS = ("compile-cold", "execute-hot", "edit-recompile")
SETUPS = 3
#: host-speed samples taken on each side of a set-up (the parent stays
#: idle while the worker sets up, so it samples only at the ends)
SETUP_SAMPLES = 10
DEFAULT_SECONDS = 20.0
#: a run that has not finished by now is killed, with every process it started
RUN_TIMEOUT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A ``perfbench.worker`` process in a session of its own, so that
    killing it also kills any server it started."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, smoke: bool):
        command = [
            sys.executable, "-m", "perfbench.worker", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ]
        command += ["--trace"] * traced + ["--smoke"] * smoke
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def read_line(self) -> str:
        line = self.process.stdout.readline()
        if not line:
            raise WorkerFailed(f"worker exited with code {self.process.wait()}")
        return line.strip()

    def send(self, line: str | None) -> None:
        """Write one line, or close stdin when ``line`` is None."""
        if line is not None:
            self.process.stdin.write(line + "\n")
            self.process.stdin.flush()
        self.process.stdin.close()

    def finish(self) -> None:
        code = self.process.wait()
        if code != 0:
            raise WorkerFailed(f"worker exited with code {code}")

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


def measure(workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    """One run of one workload: the result object ``run.py`` prints.

    Raises :class:`WorkerFailed` when a worker dies or the run overruns
    ``RUN_TIMEOUT_S``.
    """
    live: list[Worker] = []
    watchdog = threading.Timer(RUN_TIMEOUT_S, lambda: [worker.kill() for worker in live])
    watchdog.start()
    try:
        setups = 1 if traced or smoke else SETUPS
        setup_s = []
        for index in range(setups):
            references = [time_reference() for _ in range(SETUP_SAMPLES)]
            started = perf_counter()
            worker = Worker(workload, seed, seconds, traced, smoke)
            live.append(worker)
            try:
                if worker.read_line() != "ready":
                    raise WorkerFailed("worker did not report ready")
                wall_s = perf_counter() - started
                references += [time_reference() for _ in range(SETUP_SAMPLES)]
                setup_s.append(wall_s * speed_scale(references))
                if index < setups - 1:
                    worker.send(None)
                    worker.finish()
                    continue
                worker.send("measure")
                result = json.loads(worker.read_line())
                worker.finish()
            finally:
                worker.kill()
    finally:
        watchdog.cancel()
    return result_object(result, setup_s, traced)


def result_object(result: dict, setup_s: list[float], traced: bool) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    if traced:
        values = {name: result["metrics"].get(name, 0.0) for name in PER_LAYER}
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = dict(
            result["metrics"],
            setup_s=median(setup_s),
            peak_rss_mb=result["peak_rss_mb"],
            ok_frac=(attempted - failed) / attempted,
        )
        values = {name: values[name] for name in END_TO_END}
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few fast programs and one set-up (tests only)")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (WorkerFailed, ValueError, KeyError) as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
