"""Reference outputs the workloads check the program against.

``expected/<program>.txt`` holds what the natively built program printed
(see ``make_expected.py``): ``exit <code>`` on the first line, then
stdout verbatim.  A missing or malformed file is not an error here; the
program it names simply has no valid reference, and every check against
it fails, so a corrupted reference shows up as failed operations rather
than a crashed run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import ROOT

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: per-cell interpreter counters committed with the Figure 5-7 tables
SUITE_JSON = ROOT / "benchmarks" / "out" / "suite.json"


@dataclass(frozen=True)
class Reference:
    exit_code: int
    stdout: str


def load_references(directory: Path = EXPECTED_DIR) -> dict[str, Reference]:
    """Every well-formed reference in ``directory``, keyed by program."""
    references = {}
    for path in sorted(directory.glob("*.txt")):
        head, newline, stdout = path.read_text().partition("\n")
        word, _, code = head.partition(" ")
        if word == "exit" and newline and code.lstrip("-").isdigit():
            references[path.stem] = Reference(int(code), stdout)
    return references


def output_problem(
    references: dict[str, Reference], program: str, exit_code: int, stdout: str
) -> str | None:
    """Why this output is wrong, or None when it matches the reference."""
    reference = references.get(program)
    if reference is None:
        return f"{program}: no valid reference output"
    if exit_code != reference.exit_code:
        return f"{program}: exit {exit_code}, reference exit {reference.exit_code}"
    if stdout != reference.stdout:
        return f"{program}: stdout differs from the reference"
    return None


def committed_counters(path: Path = SUITE_JSON) -> dict[tuple[str, str], dict]:
    """``(program, variant) -> counters`` from the committed suite run."""
    payload = json.loads(path.read_text())
    return {
        (program, variant): cell["counters"]
        for program, entry in payload["programs"].items()
        for variant, cell in entry["cells"].items()
    }
