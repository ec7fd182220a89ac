"""Golden-IR snapshots: the regression net for every pass change.

For each of the 14 workloads under three pipeline configurations (O0,
full, pointer), the printed IR at three stage boundaries — ``frontend``
(straight out of the lowering), ``analysis`` (interprocedural facts
applied), ``optimized`` (final verified form) — is compared byte-for-
byte against a committed snapshot in ``snapshots/``.

A mismatch fails with a unified diff of the first diverging stage.  If
the change is an *intended* compiler-output change, regenerate with::

    pytest tests/golden --update-goldens

and commit the snapshot churn alongside the pass change — the diff in
review then shows exactly what the pass did to every program.
"""

from __future__ import annotations

import difflib
from pathlib import Path

import pytest

from repro.ir.printer import format_module
from repro.pipeline import Analysis, PipelineOptions, compile_source
from repro.workloads import get_workload, workload_names

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

#: section separator inside a snapshot file; IR never starts a line
#: with ``;; ==`` so splitting on it is unambiguous
STAGE_HEADER = ";; == stage: {stage} =="

STAGES = ("frontend", "analysis", "optimized")

CONFIGS = {
    "O0": PipelineOptions(
        analysis=Analysis.NONE,
        promotion=False,
        pointer_promotion=False,
        optimize=False,
    ),
    "full": PipelineOptions(),
    "pointer": PipelineOptions(
        analysis=Analysis.POINTER, pointer_promotion=True
    ),
}


def capture_stages(workload_name: str, config: str) -> dict[str, str]:
    wl = get_workload(workload_name)
    stages: dict[str, str] = {}

    def hook(stage: str, module) -> None:
        stages[stage] = format_module(module)

    compile_source(
        wl.source,
        CONFIGS[config],
        name=wl.name,
        defines=wl.defines or None,
        stage_hook=hook,
    )
    assert set(stages) == set(STAGES)
    return stages


def render_snapshot(stages: dict[str, str]) -> str:
    parts = []
    for stage in STAGES:
        parts.append(STAGE_HEADER.format(stage=stage))
        parts.append(stages[stage].rstrip("\n"))
    return "\n".join(parts) + "\n"


def parse_snapshot(text: str) -> dict[str, str]:
    stages: dict[str, str] = {}
    current: str | None = None
    lines: list[str] = []
    for line in text.splitlines():
        if line.startswith(";; == stage: ") and line.endswith(" =="):
            if current is not None:
                stages[current] = "\n".join(lines).rstrip("\n")
            current = line[len(";; == stage: ") : -len(" ==")]
            lines = []
        else:
            lines.append(line)
    if current is not None:
        stages[current] = "\n".join(lines).rstrip("\n")
    return stages


def snapshot_path(workload_name: str, config: str) -> Path:
    return SNAPSHOT_DIR / f"{workload_name}__{config}.ir"


def stage_diff(stage: str, want: str, got: str, context: int = 4) -> str:
    diff = difflib.unified_diff(
        want.splitlines(),
        got.splitlines(),
        fromfile=f"golden/{stage}",
        tofile=f"current/{stage}",
        lineterm="",
        n=context,
    )
    lines = list(diff)
    if len(lines) > 120:
        lines = lines[:120] + [f"... ({len(lines) - 120} more diff lines)"]
    return "\n".join(lines)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload_name", workload_names())
def test_ir_matches_golden(workload_name, config, request):
    path = snapshot_path(workload_name, config)
    stages = capture_stages(workload_name, config)

    if request.config.getoption("--update-goldens"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_snapshot(stages))
        return

    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path.name}; generate with "
            f"`pytest tests/golden --update-goldens` and commit it"
        )
    golden = parse_snapshot(path.read_text())
    for stage in STAGES:
        want = golden.get(stage, "")
        got = stages[stage].rstrip("\n")
        if got != want:
            pytest.fail(
                f"{workload_name} [{config}] printed IR diverged from "
                f"golden at stage '{stage}':\n"
                + stage_diff(stage, want, got)
                + "\n\nIf this change is intended, run "
                "`pytest tests/golden --update-goldens` and commit "
                "the snapshot update.",
                pytrace=False,
            )
