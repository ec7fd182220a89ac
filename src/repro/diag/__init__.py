"""Observability for the compiler: decision rows, per-loop dynamic
profiling, metrics registry, and the cross-PR drift gate.

The paper's evaluation (section 5) is an observability story — dynamic
operation/load/store counts explain *where* promotion pays off and *why*
points-to beats MOD/REF.  This package makes the same questions answerable
about our own pipeline:

* :mod:`repro.diag.ledger` — every optimization pass returns structured
  :class:`Decision` rows ("tag ``x`` was blocked in loop ``L2`` by the
  MOD set of callee ``f``"), which every compile gathers into
  ``CompileResult.decisions``, queryable via ``repro explain``;
* :mod:`repro.diag.profile` — fold the interpreter's per-block execution
  counts up through the loop forest into a hot-loop table
  (``repro run --profile`` / ``repro compare --profile``);
* :mod:`repro.diag.metrics` — the server's counter/gauge registry and
  latency histograms;
* :mod:`repro.diag.drift` — diff two ``suite.json`` files, each cell's
  ``counters`` merged with the ``metrics`` dict :mod:`repro.pipeline`
  returns with it (normally a fresh run against the committed
  ``benchmarks/out/suite.json``), and fail on metric regressions
  (``repro drift``);
* :mod:`repro.diag.log` — stdlib :mod:`logging` setup shared by the CLI's
  ``-v/-vv/-q`` flags and the module loggers.
"""

from .host import host_metadata
from .ledger import (
    Decision,
    decisions_jsonl,
    filter_decisions,
    format_decision_table,
)
from .log import get_logger, setup_logging
from .metrics import MetricsRegistry
from .profile import LoopProfileRow, format_profile, profile_loops

__all__ = [
    "Decision",
    "LoopProfileRow",
    "MetricsRegistry",
    "decisions_jsonl",
    "filter_decisions",
    "format_decision_table",
    "format_profile",
    "get_logger",
    "host_metadata",
    "profile_loops",
    "setup_logging",
]
