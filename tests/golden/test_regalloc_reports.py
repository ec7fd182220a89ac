"""Golden register-allocation reports: the net under the allocator.

Colors are never written back into the IR, so the printed-IR goldens
cannot see a coloring change.  This test pins what the allocator
decided for every function: its rounds, coalesced copies, spills and a
digest of the full coloring, for the 14 workloads under the four paper
variants (pointer promotion on) at the default register count, plus
water and go at K = 12, where spilling is heavy.

An intended allocator change regenerates the file with::

    pytest tests/golden --update-goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import compile_source, paper_variants
from repro.regalloc import RegAllocOptions, RegAllocReport
from repro.workloads import get_workload, workload_names

SNAPSHOT = Path(__file__).parent / "regalloc_reports.json"

#: (workload, register count); ``None`` is the allocator's default
CASES = [(name, None) for name in workload_names()] + [
    ("water", 12),
    ("go", 12),
]


def case_id(workload_name: str, k: int | None) -> str:
    return workload_name if k is None else f"{workload_name}@K{k}"


def report_row(report: RegAllocReport) -> list:
    coloring = json.dumps(sorted(report.coloring.items()))
    return [
        report.rounds,
        report.copies_coalesced,
        report.spilled_registers,
        report.spill_loads,
        report.spill_stores,
        report.colors_used,
        hashlib.sha256(coloring.encode()).hexdigest()[:16],
    ]


def capture_reports(workload_name: str, k: int | None) -> dict:
    wl = get_workload(workload_name)
    regalloc = RegAllocOptions() if k is None else RegAllocOptions(num_registers=k)
    cells = {}
    variants = paper_variants(pointer_promotion=True, regalloc=regalloc)
    for variant, options in variants.items():
        result = compile_source(
            wl.source, options, name=wl.name, defines=wl.defines or None
        )
        cells[variant] = {
            name: report_row(report)
            for name, report in sorted(result.regalloc_reports.items())
        }
    return cells


def render(cases: dict) -> str:
    """JSON with one line per function, so a diff names the function."""
    lines = ["{"]
    for i, (case, cells) in enumerate(sorted(cases.items())):
        lines.append(f" {json.dumps(case)}: {{")
        for j, (variant, rows) in enumerate(sorted(cells.items())):
            lines.append(f"  {json.dumps(variant)}: {{")
            items = sorted(rows.items())
            for n, (function, row) in enumerate(items):
                comma = "," if n < len(items) - 1 else ""
                lines.append(f"   {json.dumps(function)}: {json.dumps(row)}{comma}")
            lines.append("  }" + ("," if j < len(cells) - 1 else ""))
        lines.append(" }" + ("," if i < len(cases) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden(request):
    if request.config.getoption("--update-goldens"):
        rendered = {
            case_id(name, k): capture_reports(name, k) for name, k in CASES
        }
        SNAPSHOT.write_text(render(rendered))
    if not SNAPSHOT.exists():
        pytest.fail(
            f"missing {SNAPSHOT.name}; generate with "
            "`pytest tests/golden --update-goldens` and commit it"
        )
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize(
    "workload_name,k", CASES, ids=[case_id(name, k) for name, k in CASES]
)
def test_regalloc_reports_match_golden(workload_name, k, golden):
    want = golden[case_id(workload_name, k)]
    got = json.loads(json.dumps(capture_reports(workload_name, k)))
    for variant in want:
        for function, row in want[variant].items():
            assert got[variant].get(function) == row, (
                f"{workload_name} [{variant}, K={k or 'default'}] "
                f"{function}: allocator report diverged from golden\n"
                f"  want {row}\n  got  {got[variant].get(function)}"
            )
    assert got == want
