"""repro — a reproduction of "Register Promotion in C Programs"
(Cooper & Lu, PLDI 1997).

Public API, top to bottom:

* :func:`repro.frontend.compile_c` — C source to tagged IL;
* :class:`repro.pipeline.PipelineOptions` / :func:`repro.pipeline.compile_and_run`
  — one cell of the paper's experiment matrix;
* :func:`repro.pipeline.paper_variants` — the four cells of Figures 5-7;
* :func:`repro.pipeline.check_outputs_agree` — the end-to-end oracle:
  every variant of a program prints the same output;
* :func:`repro.runner.run_suite_report` / :func:`repro.harness.format_figure`
  — run the matrix over the 14-program suite (parallel, cached,
  instrumented; see docs/RUNNER.md) and regenerate the paper's tables;
* ``ExperimentCell.metrics`` — a cell's metrics as a plain dict,
  ``CompileResult.metrics`` (promotion yields, pass statistics); with
  the cell's ``counters`` it is what ``suite.json`` records and
  ``repro drift`` gates;
* ``CompileResult.decisions`` — every pass's decision rows (why a tag
  was promoted or blocked, what LICM hoisted), what ``repro explain``
  filters;
* :class:`repro.diag.metrics.MetricsRegistry` — the server's counter,
  gauge and latency-histogram registry;
* :mod:`repro.opt.promotion` — the promotion algorithm itself, usable on
  hand-built IL (see the Figure 2 tests).
"""

from .errors import (
    AnalysisError,
    FrontendError,
    InterpError,
    IRError,
    ReproError,
    UnsupportedFeatureError,
)
from .frontend import compile_c
from .interp import Counters, MachineOptions, RunResult, run_module
from .pipeline import (
    Analysis,
    CompileResult,
    ExperimentCell,
    PipelineOptions,
    check_outputs_agree,
    compile_and_run,
    compile_module,
    compile_source,
    paper_variants,
)

__version__ = "1.0.0"

__all__ = [
    "Analysis",
    "AnalysisError",
    "CompileResult",
    "Counters",
    "ExperimentCell",
    "FrontendError",
    "IRError",
    "InterpError",
    "MachineOptions",
    "PipelineOptions",
    "ReproError",
    "RunResult",
    "UnsupportedFeatureError",
    "__version__",
    "check_outputs_agree",
    "compile_and_run",
    "compile_c",
    "compile_module",
    "compile_source",
    "paper_variants",
    "run_module",
]
