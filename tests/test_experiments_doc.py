"""EXPERIMENTS.md's measured numbers are copies of committed artifacts:
each must appear in the ``benchmarks/out/`` table its section cites, so
the prose cannot drift from what the benchmarks regenerate."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def section_table(heading: str) -> tuple[list[str], list[list[str]]]:
    """The first markdown table under ``heading``: header cells and rows."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    header, _rule, *rows = cells
    return header, rows


def artifact_tokens(name: str) -> set[str]:
    return set((ROOT / "benchmarks" / "out" / name).read_text().split())


def numbers(cell: str) -> list[str]:
    return NUMBER.findall(cell.replace(",", ""))


@pytest.mark.parametrize(
    "heading, artifact, columns",
    [
        ("Figure 5", "fig5_total_ops.txt", ["measured %removed"]),
        ("§5 water anecdote", "a2_register_pressure.txt", None),
    ],
)
def test_measured_numbers_appear_in_the_cited_artifact(heading, artifact, columns):
    header, rows = section_table(heading)
    picked = [header.index(name) for name in columns] if columns else range(len(header))
    tokens = artifact_tokens(artifact)
    checked = [
        (row[0], number)
        for row in rows
        for index in picked
        for number in numbers(row[index])
    ]
    assert len(checked) >= len(rows)
    missing = [pair for pair in checked if pair[1] not in tokens]
    assert not missing, f"EXPERIMENTS.md numbers not in {artifact}: {missing}"
