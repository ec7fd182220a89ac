"""Shared fixtures for the runner tests: tiny cell specs that compile in
milliseconds, plus deliberately broken ones."""

from __future__ import annotations

import os

from repro.interp import MachineOptions
from repro.pipeline import PipelineOptions
from repro.runner import scheduler
from repro.runner.scheduler import CellSpec

_execute_cell = scheduler.execute_cell

GOOD_SOURCE = r"""
int total;
int main(void) {
    int i;
    for (i = 0; i < 25; i++) { total += i; }
    printf("total=%d\n", total);
    return 0;
}
"""

#: unparseable — fails in the front end, deterministically
CRASH_SOURCE = "int main( {"

#: runs forever; only the step limit or a scheduler timeout stops it
SPIN_SOURCE = r"""
int main(void) {
    int i;
    for (i = 0; i >= 0; i++) { i = i - 1; i = i + 1; }
    return 0;
}
"""


def make_spec(
    workload: str = "good",
    variant: str = "modref/promo",
    source: str = GOOD_SOURCE,
    max_steps: int = 1_000_000,
    **options,
) -> CellSpec:
    return CellSpec(
        workload=workload,
        variant=variant,
        source=source,
        options=PipelineOptions(**options),
        machine=MachineOptions(max_steps=max_steps),
    )


# Stand-ins for ``scheduler.execute_cell``: a test patches one over the
# scheduler's name and the forked workers inherit it.  They are module
# level so they also pickle by reference.


def execute_cell_recording_pid(spec, *args, **kwargs):
    """Write the worker's pid to ``$REPRO_TEST_PID_DIR/<workload>`` first."""
    path = os.path.join(os.environ["REPRO_TEST_PID_DIR"], spec.workload)
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    return _execute_cell(spec, *args, **kwargs)


def execute_cell_killing_killer(spec, *args, **kwargs):
    """Take the worker down without a reply when the cell is ``killer``."""
    if spec.workload == "killer":
        os._exit(3)
    return _execute_cell(spec, *args, **kwargs)
