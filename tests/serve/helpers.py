"""Shared fixtures for the serve tests: specs, jobs, and async runners."""

from __future__ import annotations

import asyncio

from repro.interp import MachineOptions
from repro.pipeline import PipelineOptions
from repro.runner.scheduler import CellSpec

FAST_SOURCE = """
int g;
int main() {
    int i;
    for (i = 0; i < 100; i++) g += i;
    return 0;
}
"""

#: ~0.75s of interpretation under the compiled engine at the default
#: 400000 iterations — long enough to observe "busy", kill mid-request,
#: or fire a deadline, short enough that a retry still finishes inside
#: the test budget
SLOW_TEMPLATE = """
long g;
int main() {
    long i; long j;
    for (i = 0; i < %d; i++)
        for (j = 0; j < 3; j++) g += i;
    return 0;
}
"""


def slow_source(iterations: int = 400000, salt: int = 0) -> str:
    """A distinct (un-coalescable, un-cached) slow program per salt."""
    source = SLOW_TEMPLATE % iterations
    if salt:
        source += f"/* salt {salt} */\n"
    return source


def make_spec(
    source: str = FAST_SOURCE,
    name: str = "test",
    max_steps: int = 50_000_000,
) -> CellSpec:
    options = PipelineOptions()
    return CellSpec(
        workload=name,
        variant=options.variant_name(),
        source=source,
        options=options,
        machine=MachineOptions(max_steps=max_steps),
    )


def make_cell_job(
    source: str = FAST_SOURCE,
    name: str = "test",
    max_steps: int = 50_000_000,
) -> dict:
    # shares the worker's compile memo, like the server's cell jobs
    return {
        "kind": "cell",
        "spec": make_spec(source, name, max_steps),
        "share_compile": True,
    }


def run_async(coroutine):
    """The tests run plain pytest (no asyncio plugin)."""
    return asyncio.run(coroutine)
