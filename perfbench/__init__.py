"""perfbench: the repository's end-to-end and per-layer benchmark.

One run measures one workload in fresh processes and prints a single
JSON result line; ``python -m perfbench`` runs all four workloads and
writes one results file; ``perfbench/compare.py`` compares results
files.  The package only calls public functions of ``repro`` and
changes nothing under ``src/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (the directory holding ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for stores, caches and server state; removed after use
WORK = Path(__file__).resolve().parent / ".work"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
