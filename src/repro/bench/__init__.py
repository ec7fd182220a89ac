"""``repro.bench`` — the repo's in-program benchmarks, one per layer a
user can drive from the command line:

* :mod:`~repro.bench.interp` — ``repro bench``: both interpreter
  engines over the workloads, ``BENCH_interp.json``, and the geomean
  regression gate against a committed baseline;
* :mod:`~repro.bench.compile` — ``repro bench --compile``: scratch vs
  cold vs one-function-edit vs warm compiles against the function store,
  ``BENCH_compile.json``, and the byte-identity + speedup gate;
* :mod:`~repro.bench.serve` — ``repro loadgen``: a campaign against a
  running ``repro serve``, ``BENCH_serve.json``.

This module holds what the three share: the quick program subset, the
payload header every ``BENCH_*.json`` starts with, the one writer and
reader, and the p50/p95/p99/mean summary of a sample.  See
``docs/PERFORMANCE.md`` for how to read the files.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..diag.host import host_metadata
from ..diag.metrics import nearest_rank

__all__ = [
    "QUICK_PROGRAMS",
    "bench_payload",
    "load_bench_json",
    "percentile_summary",
    "write_bench_json",
]

#: small-but-representative subset for CI (``repro bench --quick``) and
#: the default ``repro loadgen`` mix
QUICK_PROGRAMS = ("dhrystone", "fft", "mlink", "tsp")


def bench_payload(schema: int, **sections) -> dict:
    """A ``BENCH_*.json`` payload: ``schema`` and ``host`` first, then
    the bench's own sections in the order given."""
    return {"schema": schema, "host": host_metadata(), **sections}


def write_bench_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_bench_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def percentile_summary(samples: list[float], scale: float = 1.0) -> dict:
    """``{p50, p95, p99, mean}`` of ``samples`` times ``scale``, rounded
    to three places; all zero for no samples."""
    ordered = sorted(value * scale for value in samples)
    return {
        "p50": round(nearest_rank(ordered, 0.50), 3),
        "p95": round(nearest_rank(ordered, 0.95), 3),
        "p99": round(nearest_rank(ordered, 0.99), 3),
        "mean": round(sum(ordered) / len(ordered), 3) if ordered else 0.0,
    }
