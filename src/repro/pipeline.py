"""The compiler pipeline — the paper's experimental apparatus.

Section 5: "Four versions of each program were prepared, using the
combinations of scalar promotion, no scalar promotion, MOD/REF analysis,
and pointer analysis.  Each version was optimized with value numbering,
partial redundancy elimination, constant propagation, loop invariant code
motion, dead code elimination, register allocation, and a basic block
cleaning pass."

:func:`compile_and_run` reproduces one cell of that matrix:

1. front end (tagged IL with conservative tag sets);
2. interprocedural analysis — ``modref`` or ``pointer`` (points-to
   followed by a MOD/REF re-run, as in the paper) or ``none``;
3. tag refinement (opcode strengthening for singleton scalar tag sets);
4. the optimizer: value numbering, SCCP, loop normalization (landing
   pads and dedicated exits, once per function), **register
   promotion** (early, as section 3 specifies), LICM, pointer-based
   promotion (section 3.3, which depends on LICM having exposed
   invariant base registers), PRE, value numbering again, DCE, clean;
5. graph-coloring register allocation with coalescing and spilling;
6. the instrumented interpreter.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain

from .analysis.loops import normalize_loops
from .analysis.modref import ModRefResult, run_modref
from .analysis.pointsto import apply_points_to, run_points_to
from .analysis.tagrefine import RefineStats, refine_memory_ops
from .diag.log import get_logger
from .frontend import compile_c
from .inccomp.keys import function_digest, function_key, module_env_digest, options_digest
from .inccomp.store import FunctionRecord, FunctionStore
from .interp import Counters, MachineOptions, RunResult, run_module
from .interp.counters import COUNTED_AS
from .ir.function import Function
from .ir.instructions import Nop
from .ir.module import Module
from .ir.verify import verify_function, verify_module
from .opt.clean import clean_function
from .opt.constprop import run_sccp
from .opt.dce import run_dce
from .opt.licm import run_licm
from .opt.pointer_promotion import PointerPromotionReport, promote_pointers_function
from .opt.pre import pre_decision, run_pre
from .opt.promotion import PromotionOptions, PromotionReport, promote_function
from .opt.valuenum import run_value_numbering, vn_decision
from .regalloc import RegAllocOptions, RegAllocReport, allocate_function
from .diag.ledger import Decision
from .trace import current_trace, span


_log = get_logger(__name__)


#: the op classes of a pass span's ``ops_by_class_delta``: an
#: instruction's class is the first counter field it bumps, else ``other``
_OTHER = ("other",)
_OP_CLASSES = tuple(dict.fromkeys(f[0] for f in COUNTED_AS.values())) + _OTHER


def _op_census(func: Function) -> tuple[int, dict[str, int]]:
    """One walk over ``func``: its instruction count (``nop`` included,
    as :func:`repro.trace.module_op_count` counts) and its ``nop``-free
    count per op class."""
    by_type = Counter(
        map(type, chain.from_iterable(b.instrs for b in func.blocks.values()))
    )
    classes = dict.fromkeys(_OP_CLASSES, 0)
    for cls, count in by_type.items():
        if cls is not Nop:
            classes[COUNTED_AS.get(cls, _OTHER)[0]] += count
    return sum(by_type.values()), classes


@contextmanager
def _pass_span(
    name: str, func: Function | None = None, rows: Sequence[Decision] = ()
):
    """A pipeline-pass span; a free no-op while no trace is active.

    The pass appends its decision rows to ``rows``, and the span
    carries how many it added (``decisions``).  A per-function pass span
    also names its function and carries the function's op census around
    the pass (``ops_before``, ``ops_after``, ``ops_delta`` and the
    nonzero ``ops_by_class_delta``).  The census walks run outside the
    span's clock.
    """
    trace = current_trace()
    if trace is None:
        yield
        return
    decisions_before = len(rows)
    census = _op_census(func) if func is not None else None
    args = {} if func is None else {"function": func.name}
    with trace.span(name, **args) as extra:
        yield
        extra["decisions"] = len(rows) - decisions_before
    if census is None:
        return
    ops_before, classes_before = census
    ops_after, classes_after = _op_census(func)
    # the span just closed is the trace's last event
    event_args = trace.events[-1].args
    event_args["ops_before"] = ops_before
    event_args["ops_after"] = ops_after
    event_args["ops_delta"] = ops_after - ops_before
    class_delta = {
        cls: classes_after[cls] - classes_before[cls]
        for cls in _OP_CLASSES
        if classes_after[cls] != classes_before[cls]
    }
    if class_delta:
        event_args["ops_by_class_delta"] = class_delta


class Analysis(enum.Enum):
    """Which interprocedural analysis disambiguates memory."""

    NONE = "none"
    MODREF = "modref"
    POINTER = "pointer"


@dataclass
class PipelineOptions:
    """One cell of the paper's experiment matrix, plus knobs for the
    ablation benches."""

    analysis: Analysis = Analysis.MODREF
    promotion: bool = True
    pointer_promotion: bool = False
    promotion_options: PromotionOptions = field(default_factory=PromotionOptions)
    regalloc: RegAllocOptions = field(default_factory=RegAllocOptions)
    #: the baseline optimizer and register allocator (the paper applies
    #: them to *every* version); False sends the lowered IR straight to
    #: the interpreter
    optimize: bool = True
    verify_each_stage: bool = False

    def variant_name(self) -> str:
        promo = "promo" if self.promotion else "nopromo"
        return f"{self.analysis.value}/{promo}"


@dataclass
class CompileResult:
    """The optimized module plus every pass report."""

    module: Module
    options: PipelineOptions
    promotion_reports: dict[str, PromotionReport] = field(default_factory=dict)
    pointer_promotion_reports: dict[str, PointerPromotionReport] = field(
        default_factory=dict
    )
    regalloc_reports: dict[str, RegAllocReport] = field(default_factory=dict)
    modref: ModRefResult | None = None
    #: per-function cache traffic of this compile (0/0 without a store)
    fn_cache_hits: int = 0
    fn_cache_misses: int = 0
    #: the compile's share of every cell run from it: promotion yields,
    #: pass statistics and tag refinement, by metric name
    metrics: dict[str, int] = field(default_factory=dict)
    #: every pass's decision rows, in pass order: the analyses', then
    #: each function's, replayed from the store on a hit
    decisions: list[Decision] = field(default_factory=list)


def _worth_caching(options: PipelineOptions) -> bool:
    """A store entry only pays for itself when some per-function work
    exists to skip; O0-style configs bypass the store entirely.  The
    same predicate says whether a loop pass (promotion, LICM, pointer
    promotion) runs, and so whether loops get normalized."""
    return options.optimize or options.promotion or options.pointer_promotion


def _keep(rows: list[Decision], row: Decision | None) -> None:
    if row is not None:
        rows.append(row)


def _optimize_function(
    func: Function,
    options: PipelineOptions,
    universe: frozenset,
) -> FunctionRecord:
    """The per-function half of the pipeline: scalar optimizations,
    promotion, redundancy removal, and register allocation, mutating
    ``func`` in place.  Returns the :class:`FunctionRecord` capturing
    everything a later cache hit must replay, its decision rows
    included."""
    name = func.name
    record = FunctionRecord(function=func)
    rows = record.decisions

    def checkpoint() -> None:
        if options.verify_each_stage:
            verify_function(func)

    # -- early scalar optimizations ---------------------------------------
    if options.optimize:
        with _pass_span("clean", func, rows):
            clean_function(func)
        with _pass_span("value_numbering", func, rows):
            _keep(rows, vn_decision(name, run_value_numbering(func)))
        with _pass_span("sccp", func, rows):
            run_sccp(func)
    checkpoint()

    # -- loop shape: landing pads and dedicated exits --------------------
    # The loop passes below only insert non-terminator instructions into
    # existing blocks, so the one forest stays exact for all of them.
    if _worth_caching(options):
        with _pass_span("loops", func, rows):
            forest = normalize_loops(func)
        checkpoint()

    # -- register promotion (early, per section 3) -------------------------
    if options.promotion:
        with _pass_span("promotion", func, rows):
            record.promotion = promote_function(
                func, forest, universe, options.promotion_options
            )
            rows += record.promotion.decisions
        checkpoint()

    # -- loop and straight-line redundancy removal -------------------------
    if options.optimize:
        with _pass_span("licm", func, rows):
            licm_stats = run_licm(func, forest)
            rows += licm_stats.decisions
        record.stats["licm.hoisted"] = licm_stats.hoisted
        record.stats["licm.loads_hoisted"] = licm_stats.loads_hoisted
        checkpoint()
    if options.pointer_promotion:
        with _pass_span("pointer_promotion", func, rows):
            record.pointer_promotion = promote_pointers_function(
                func, forest, universe
            )
            rows += record.pointer_promotion.decisions
        checkpoint()
    if options.optimize:
        with _pass_span("pre", func, rows):
            pre_stats = run_pre(func)
            _keep(rows, pre_decision(name, pre_stats))
        record.stats["pre.expressions_removed"] = pre_stats.expressions_removed
        record.stats["pre.loads_removed"] = pre_stats.loads_removed
        with _pass_span("value_numbering", func, rows):
            vn_stats = run_value_numbering(func)
            _keep(rows, vn_decision(name, vn_stats))
        record.stats["valuenum.loads_removed"] = vn_stats.loads_removed
        with _pass_span("dce", func, rows):
            run_dce(func)
        with _pass_span("clean", func, rows):
            clean_function(func)
        checkpoint()

        # -- register allocation -------------------------------------------
        with _pass_span("regalloc", func, rows):
            record.regalloc = allocate_function(func, options.regalloc)
            run_dce(func)
            clean_function(func)

    return record


def _compile_metrics(
    module: Module,
    result: CompileResult,
    refined: RefineStats | None,
    totals: dict[str, int],
) -> dict[str, int]:
    """The compile's share of a cell's metrics, from the tag refinement
    and the per-function records — identical whether each record came
    from a fresh optimization or a cache hit."""
    options = result.options
    metrics: dict[str, int] = {}
    if refined is not None:
        metrics["tagrefine.strengthened"] = (
            refined.loads_strengthened + refined.stores_strengthened
        )
    if options.promotion:
        reports = result.promotion_reports.values()
        promoted = set().union(*(r.promoted_tags for r in reports))
        rewritten = sum(r.references_rewritten for r in reports)
        metrics["promotion.tags_promoted"] = len(promoted)
        metrics["promotion.refs_rewritten"] = rewritten
        metrics["promotion.loads_inserted"] = sum(r.loads_inserted for r in reports)
        metrics["promotion.stores_inserted"] = sum(
            r.stores_inserted for r in reports
        )
        _log.info(
            "%s: promoted %d tag(s), rewrote %d reference(s)",
            module.name, len(promoted), rewritten,
        )
    if options.pointer_promotion:
        metrics["pointer_promotion.promoted_bases"] = sum(
            r.promoted_bases for r in result.pointer_promotion_reports.values()
        )
    # the summed licm/pre/valuenum statistics, recorded only under
    # ``optimize``
    metrics.update(totals)
    return metrics


def compile_module(
    module: Module,
    options: PipelineOptions | None = None,
    fn_store: FunctionStore | None = None,
    stage_hook=None,
) -> CompileResult:
    """Run analysis + optimizer + allocator over an already-lowered module
    (the module is transformed in place).

    With ``fn_store``, the per-function optimize-and-allocate phase is
    content-addressed: the interprocedural analyses always run (they are
    cheap and their results — MOD/REF summaries on call sites, sharpened
    tag sets — are *inputs* to each function's key), then every function
    whose key is already in the store is spliced in from cache instead of
    re-optimized.  Cached and fresh compilations are observably
    identical: byte-identical printed IR, equal pass reports, metrics,
    and decision rows.

    ``stage_hook(stage_name, module)`` is called at the whole-module
    stage boundaries — ``"analysis"`` (interprocedural facts applied,
    nothing optimized yet) and ``"optimized"`` (verified final form) —
    so callers like the golden-IR harness can snapshot per-stage IR
    without re-implementing pipeline sequencing.
    """
    options = options or PipelineOptions()
    result = CompileResult(module=module, options=options)
    decisions = result.decisions

    # -- interprocedural analysis -----------------------------------------
    _log.debug(
        "compiling %s with analysis=%s promotion=%s",
        module.name, options.analysis.value, options.promotion,
    )
    refined = None
    if options.analysis is Analysis.POINTER:
        # the paper's sequencing: MOD/REF to seed, points-to to sharpen
        # pointer-op tag sets, MOD/REF repeated (below) on the sharper
        # sets.  Only the repeat's summaries reach the call sites, so the
        # seeding run's rows are dropped.
        with _pass_span("modref", rows=decisions):
            seed = run_modref(module)
        with _pass_span("points_to", rows=decisions):
            points = run_points_to(module)
            decisions += apply_points_to(module, points, seed.visible)
    if options.analysis is not Analysis.NONE:
        with _pass_span("modref", rows=decisions):
            result.modref = run_modref(module)
            refined = refine_memory_ops(module, result.modref.sccs)
            decisions += result.modref.decisions
            decisions += refined.decisions
    if options.verify_each_stage:
        verify_module(module)
    if stage_hook is not None:
        stage_hook("analysis", module)

    # -- per-function optimization + allocation ----------------------------
    # The promotion universe is snapshotted once, post-analysis: register
    # allocation appends spill tags to local_tags as functions complete,
    # and promotion of a later function must not observe them (the
    # module-at-a-time pipeline never did).
    universe = frozenset(module.memory_tags())
    use_store = fn_store is not None and _worth_caching(options)
    if use_store:
        env_digest = module_env_digest(module)
        opts_digest = options_digest(options)
    totals: dict[str, int] = {}
    for name in list(module.functions):
        func = module.functions[name]
        key = None
        record = None
        if use_store:
            key = function_key(function_digest(func), env_digest, opts_digest)
            record = fn_store.get(key)
        if record is not None:
            result.fn_cache_hits += 1
            with span("fn_cache_hit", function=name):
                module.functions[name] = record.function
        else:
            record = _optimize_function(func, options, universe)
            if use_store:
                result.fn_cache_misses += 1
                fn_store.put(key, record)
        decisions += record.decisions
        if record.promotion is not None:
            result.promotion_reports[name] = record.promotion
        if record.pointer_promotion is not None:
            result.pointer_promotion_reports[name] = record.pointer_promotion
        if record.regalloc is not None:
            result.regalloc_reports[name] = record.regalloc
        for metric, value in record.stats.items():
            totals[metric] = totals.get(metric, 0) + value

    result.metrics = _compile_metrics(module, result, refined, totals)
    with _pass_span("verify"):
        verify_module(module)
    if stage_hook is not None:
        stage_hook("optimized", module)
    return result


def compile_source(
    source: str,
    options: PipelineOptions | None = None,
    name: str = "program",
    defines: dict[str, str] | None = None,
    fn_store: FunctionStore | None = None,
    stage_hook=None,
) -> CompileResult:
    """Front end + :func:`compile_module`.

    With ``fn_store``, the front end also parses and lowers through the
    store's memo (``fn_store.decls``): a declaration one of ``name``'s
    last two compiles used is not parsed again, nor a function body
    lowered again while nothing its lowering reads has changed.

    ``stage_hook`` additionally fires with ``"frontend"`` right after
    parsing/lowering, before any analysis touches the module.
    """
    with span("parse"):
        module = compile_c(
            source,
            name=name,
            defines=defines,
            decls=fn_store.decls if fn_store is not None else None,
        )
    if stage_hook is not None:
        stage_hook("frontend", module)
    with span("optimize"):
        return compile_module(
            module, options, fn_store=fn_store, stage_hook=stage_hook
        )


@dataclass
class ExperimentCell:
    """Result of running one pipeline variant on one program — also the
    runner's successful-cell outcome, slim and picklable once
    ``compile_result`` is dropped."""

    variant: str
    counters: Counters
    exit_code: int
    output: str
    #: absent for cells that crossed a process or cache boundary (the IR
    #: does not travel; counters/output/exit code are the experiment data)
    compile_result: CompileResult | None = None
    workload: str = ""
    seconds: float = 0.0
    from_cache: bool = False
    trace_events: list[dict] = field(default_factory=list)
    #: the compile's metrics, sorted by name; with ``counters`` the
    #: drift gate's raw material
    metrics: dict[str, float] = field(default_factory=dict)

    ok = True

    def cache_payload(self) -> dict:
        return {
            "counters": self.counters.as_dict(),
            "exit_code": self.exit_code,
            "output": self.output,
            "seconds": self.seconds,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_cache_payload(cls, spec, payload: dict) -> "ExperimentCell":
        """Rebuild the cell ``spec`` (a runner ``CellSpec``) cached as
        ``payload``."""
        return cls(
            variant=spec.variant,
            counters=Counters(**payload["counters"]),
            exit_code=int(payload["exit_code"]),
            output=payload["output"],
            workload=spec.workload,
            seconds=float(payload["seconds"]),
            from_cache=True,
            metrics=dict(payload.get("metrics", {})),
        )


def run_compiled(
    compiled: CompileResult,
    machine_options: MachineOptions | None = None,
) -> ExperimentCell:
    """Interpret an already-compiled module as one experiment cell.

    Running never mutates the module (the machine materializes its own
    :class:`~repro.interp.memory.MemoryImage`), so the same
    ``CompileResult`` can back any number of cells that differ only in
    machine options — e.g. the fuzz oracle's engine pairs.
    """
    options = compiled.options
    machine_options = machine_options or MachineOptions()
    with span(
        "execute", variant=options.variant_name(), engine=machine_options.engine
    ):
        run: RunResult = run_module(compiled.module, options=machine_options)
    return ExperimentCell(
        variant=options.variant_name(),
        counters=run.counters,
        exit_code=run.exit_code,
        output=run.output,
        compile_result=compiled,
        metrics=dict(sorted(compiled.metrics.items())),
    )


def compile_and_run(
    source: str,
    options: PipelineOptions | None = None,
    name: str = "program",
    defines: dict[str, str] | None = None,
    machine_options: MachineOptions | None = None,
    fn_store: FunctionStore | None = None,
) -> ExperimentCell:
    options = options or PipelineOptions()
    with span("compile", variant=options.variant_name()):
        compiled = compile_source(
            source, options, name=name, defines=defines, fn_store=fn_store
        )
    return run_compiled(compiled, machine_options)


def paper_variants(
    pointer_promotion: bool = False,
    regalloc: RegAllocOptions | None = None,
) -> dict[str, PipelineOptions]:
    """The four cells of the paper's Figures 5-7 matrix."""
    base = PipelineOptions(
        pointer_promotion=pointer_promotion,
        regalloc=regalloc or RegAllocOptions(),
    )
    return {
        "modref/nopromo": replace(base, analysis=Analysis.MODREF, promotion=False),
        "modref/promo": replace(base, analysis=Analysis.MODREF, promotion=True),
        "pointer/nopromo": replace(base, analysis=Analysis.POINTER, promotion=False),
        "pointer/promo": replace(base, analysis=Analysis.POINTER, promotion=True),
    }


def check_outputs_agree(cells: dict[str, ExperimentCell]) -> list[str]:
    """Every variant of a program must produce identical output and exit
    code — the optimizer's end-to-end correctness oracle.  Returns one
    message per variant that diverged from the first; empty when all
    agree."""
    baseline_variant, baseline = next(iter(cells.items()))
    return [
        f"variant {variant} diverged from {baseline_variant}: "
        f"exit {cell.exit_code} vs {baseline.exit_code}"
        for variant, cell in cells.items()
        if cell.output != baseline.output or cell.exit_code != baseline.exit_code
    ]
