"""The benchmark's workloads.

Each in-process workload does a fixed set of operations per *pass* (the
same set every pass, in an order drawn from the seed) and runs whole
passes until another would overrun the run's time budget, with at least
one.  A pass is the unit the end-to-end ``mean_ms`` is taken over:
operation time per operation within a pass, median over passes.
``p50_ms`` and ``tail_ms`` pool every operation of every pass.  Every
operation starts from a collected heap, so what it costs does not depend
on which operations the seed put before it, and its time is scaled to
nominal host speed (:mod:`perfbench.speed`).

In a traced run each operation is done twice in a row, once with the
timing wrappers of :mod:`perfbench.layers` installed and once without,
alternating which goes first, so the same run also measures what the
wrappers cost (``trace.overhead_frac``) with the host's drift cancelled
within each pair.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import random
import shutil
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from . import WORK
from .expected import load_references, output_problem
from .layers import LayerTimer
from .metrics import layer_metrics
from .speed import SpeedProbe, Timing
from .stats import percentile, ratio

#: interpreter fuel per cell, as ``repro suite`` and ``repro serve`` use
MAX_STEPS = 50_000_000

#: the fast programs a ``--smoke`` run restricts itself to
SMOKE_PROGRAMS = ("allroots", "water", "mlink", "fft")


@dataclass
class Outcome:
    """What one measured run did: operations, failures and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass(frozen=True)
class Cell:
    """One program under one of the paper's four pipeline variants."""

    program: object  # repro.workloads.Workload
    variant: str
    options: object  # repro.pipeline.PipelineOptions

    @property
    def key(self) -> str:
        return f"{self.program.name}/{self.variant}"


def seeded_order(items: list, *seed_parts) -> list:
    """``items`` in an order that depends only on ``seed_parts``."""
    rng = random.Random(":".join(str(part) for part in ("perfbench", *seed_parts)))
    return rng.sample(items, len(items))


def run_passes(seconds: float, run_pass, min_passes: int = 1) -> int:
    """Call ``run_pass(pass_no)`` until one more pass of median length
    would end past ``seconds``; returns the number of passes run."""
    started = perf_counter()
    durations: list[float] = []
    while True:
        pass_started = perf_counter()
        run_pass(len(durations))
        durations.append(perf_counter() - pass_started)
        elapsed = perf_counter() - started
        if len(durations) >= min_passes and elapsed + median(durations) > seconds:
            return len(durations)


@contextmanager
def timed(probe: SpeedProbe, into: list[Timing]):
    """Time one operation from a collected heap; its :class:`Timing` is
    appended to ``into`` unless it raised."""
    gc.collect()
    with probe.measure() as timing:
        yield
    into.append(timing)


def compile_cell(cell: Cell, source: str | None = None, fn_store=None):
    from repro.pipeline import compile_source

    return compile_source(
        source if source is not None else cell.program.source,
        cell.options,
        name=cell.program.name,
        defines=cell.program.defines or None,
        fn_store=fn_store,
    )


def ir_digest(module) -> str:
    from repro.ir.printer import format_module

    return hashlib.sha256(format_module(module).encode()).hexdigest()


class Workload:
    """Set up once, then measure for ``seconds``; see the module doc."""

    name = ""
    #: the highest percentile with at least ten operations beyond it in a
    #: default-length run, fixed per workload so runs stay comparable
    tail_q = 0.90

    def __init__(self, seed: int, seconds: float, traced: bool, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.probe = SpeedProbe()
        self.timer = LayerTimer(clock=self.probe.clock)

    def programs(self) -> list:
        from repro.workloads import all_workloads, get_workload

        if self.smoke:
            return [get_workload(name) for name in SMOKE_PROGRAMS]
        return all_workloads()

    def cells(self) -> list[Cell]:
        from repro.pipeline import paper_variants

        return [
            Cell(program, variant, options)
            for program in self.programs()
            for variant, options in paper_variants().items()
        ]

    def schedule(self, pass_no: int) -> list:
        """The keys of the pass's operations, in the pass's seeded order."""
        return seeded_order([cell.key for cell in self.cells()], self.name, self.seed, pass_no)

    def modes(self, index: int) -> tuple[bool, ...]:
        """Whether each run of the ``index``-th operation is traced: once
        untraced, or in a traced run a pair in alternating order."""
        if not self.traced:
            return (False,)
        return (False, True) if index % 2 == 0 else (True, False)

    def tracing(self, traced: bool):
        """The layer wrappers around a traced operation, else nothing."""
        return self.timer.installed() if traced else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PassLog:
    """Per-pass operation timings and exact counts of an in-process
    workload."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        #: per pass, the timings of its untraced (False) and traced (True) runs
        self.passes: list[dict[bool, list[Timing]]] = []
        self.counts: list[int] = []

    def start(self) -> None:
        self.passes.append({False: [], True: []})

    def timed(self, traced: bool = False):
        return timed(self.probe, self.passes[-1][traced])

    def end_to_end(self, outcome: Outcome, tail_q: float) -> None:
        """``mean_ms``, ``p50_ms``, ``tail_ms`` and ``exact_ops`` from the
        untraced passes; a pass whose count differs is a failure."""
        passes = [[timing.scaled for timing in p[False]] for p in self.passes if p[False]]
        samples = [t for times in passes for t in times]
        outcome.metrics.update(
            mean_ms=median([sum(times) / len(times) for times in passes]) * 1000,
            p50_ms=percentile(samples, 0.50) * 1000,
            tail_ms=percentile(samples, tail_q) * 1000,
            exact_ops=self.counts[0],
        )
        if len(set(self.counts)) > 1:
            outcome.fail(f"exact count differs between passes: {self.counts}")

    def trace_metrics(self, outcome: Outcome, timer: LayerTimer) -> None:
        """Per-pass layer metrics and the tracer's own overhead, from a
        run of traced and untraced pairs."""
        traced = [timing for p in self.passes for timing in p[True]]
        untraced_s = sum(timing.scaled for p in self.passes for timing in p[False])
        scaled_s = sum(timing.scaled for timing in traced)
        wall_s = sum(timing.wall for timing in traced)
        outcome.metrics.update(layer_metrics(timer, len(self.passes), ratio(scaled_s, wall_s)))
        outcome.metrics["trace.overhead_frac"] = ratio(scaled_s, untraced_s) - 1
        outcome.metrics["trace.attributed_frac"] = ratio(timer.attributed_s(), wall_s)


class CompileCold(Workload):
    """Every cell compiled from source with no store and no execution."""

    name = "compile-cold"
    tail_q = 0.90

    def setup(self) -> None:
        self.by_key = {cell.key: cell for cell in self.cells()}

    def measure(self) -> Outcome:
        from repro.trace import module_op_count

        outcome = Outcome()
        log = PassLog(self.probe)
        digests: dict[str, str] = {}

        def one_pass(pass_no: int) -> None:
            log.start()
            static_ops = 0
            for index, key in enumerate(self.schedule(pass_no)):
                for traced in self.modes(index):
                    outcome.attempted += 1
                    try:
                        with self.tracing(traced), log.timed(traced):
                            result = compile_cell(self.by_key[key])
                    except Exception as error:  # counted; the run goes on
                        outcome.fail(f"{key}: {error!r}")
                        continue
                    if not traced:
                        static_ops += module_op_count(result.module)
                    # every compile of a cell, traced or not, prints the same IR
                    digest = ir_digest(result.module)
                    if digests.setdefault(key, digest) != digest:
                        outcome.fail(f"{key}: IR differs between compiles")
            log.counts.append(static_ops)

        run_passes(self.seconds, one_pass)
        if self.traced:
            log.trace_metrics(outcome, self.timer)
            outcome.metrics["ir.static_ops"] = log.counts[0]
        else:
            log.end_to_end(outcome, self.tail_q)
        return outcome


class ExecuteHot(Workload):
    """Every cell compiled once in setup; each pass runs a fresh copy of
    each module (a copy carries no decode cache), as ``repro suite`` pays
    per cell."""

    name = "execute-hot"
    tail_q = 0.80

    def setup(self) -> None:
        from repro.trace import module_op_count

        self.references = load_references()
        self.compiled = {}
        compiles: list[Timing] = []
        # a traced run books this compile to the compile layers
        with self.tracing(self.traced):
            for cell in self.cells():
                with timed(self.probe, compiles):
                    module = compile_cell(cell).module
                self.compiled[cell.key] = (cell, module)
        self.compile_s = sum(timing.wall for timing in compiles)
        self.compile_scale = ratio(sum(timing.scaled for timing in compiles), self.compile_s)
        self.static_ops = sum(module_op_count(module) for _, module in self.compiled.values())

    def execute(self, outcome: Outcome, key: str, into: list[Timing], runs: int = 1):
        """Run one fresh copy of ``key``'s module ``runs`` times, timing
        each run into ``into``; returns the last result, None on a crash."""
        from repro.interp import MachineOptions, run_module

        cell, compiled = self.compiled[key]
        module = copy.deepcopy(compiled)
        result = None
        for _ in range(runs):
            outcome.attempted += 1
            try:
                with timed(self.probe, into):
                    result = run_module(module, options=MachineOptions(max_steps=MAX_STEPS))
            except Exception as error:  # counted; the run goes on
                outcome.fail(f"{key}: {error!r}")
                return None
            problem = output_problem(
                self.references, cell.program.name, result.exit_code, result.output
            )
            if problem is not None:
                outcome.fail(f"{key}: {problem}")
        return result

    def measure(self) -> Outcome:
        outcome = Outcome()
        if self.traced:
            return self.measure_traced(outcome)
        log = PassLog(self.probe)

        def one_pass(pass_no: int) -> None:
            log.start()
            memops = 0
            for key in self.schedule(pass_no):
                result = self.execute(outcome, key, log.passes[-1][False])
                if result is not None:
                    memops += result.counters.loads + result.counters.stores
            log.counts.append(memops)

        run_passes(self.seconds, one_pass)
        log.end_to_end(outcome, self.tail_q)
        return outcome

    def measure_traced(self, outcome: Outcome) -> Outcome:
        """One pass running each copy twice: the first run pays decoding,
        the second reuses it."""
        first = steady = 0.0
        ops = memops = 0
        for key in self.schedule(0):
            runs: list[Timing] = []
            result = self.execute(outcome, key, runs, runs=2)
            if result is not None:
                first += runs[0].scaled
                steady += runs[1].scaled
                ops += result.counters.total_ops
                memops += result.counters.loads + result.counters.stores
        outcome.metrics.update(layer_metrics(self.timer, 1, self.compile_scale))
        outcome.metrics.update({
            "trace.attributed_frac": ratio(self.timer.attributed_s(), self.compile_s),
            "ir.static_ops": self.static_ops,
            "interp.first_run_s": first,
            "interp.steady_s": steady,
            "interp.decode_s": first - steady,
            "interp.ops_per_s": ratio(ops, steady),
            "interp.dyn_ops": ops,
            "interp.dyn_memops": memops,
        })
        return outcome


class EditRecompile(Workload):
    """One-function edits recompiled against a disk ``FunctionStore``.

    A pass edits every function of every program once, each edit on the
    pristine source and carrying a constant unique to the run, so every
    edit is new to the store: the edited function misses and every other
    function hits.
    """

    name = "edit-recompile"
    tail_q = 0.90
    VARIANT = "modref/promo"
    scratch: Path | None = None

    def edits(self) -> list[tuple[str, str]]:
        from repro.inccomp import list_functions

        return [
            (program.name, function)
            for program in self.programs()
            for function in list_functions(program.source)
        ]

    def schedule(self, pass_no: int) -> list[tuple[str, str]]:
        return seeded_order(self.edits(), self.name, self.seed, pass_no)

    def setup(self) -> None:
        from repro.inccomp import FunctionStore

        WORK.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="edit-"))
        self.store = FunctionStore(root=self.scratch / "fn")
        self.by_program = {
            cell.program.name: cell for cell in self.cells() if cell.variant == self.VARIANT
        }
        for cell in self.by_program.values():
            compile_cell(cell, fn_store=self.store)
        self.edit_no = 0

    def edited_source(self, program: str, function: str) -> str:
        from repro.inccomp import EDIT_MARKER, mutate_function

        self.edit_no += 1
        source, _ = mutate_function(self.by_program[program].program.source, function)
        unique = EDIT_MARKER.replace("40", str(1000 + self.edit_no))
        if unique == EDIT_MARKER:
            raise RuntimeError("the edit marker has no constant to make unique")
        return source.replace(EDIT_MARKER, unique, 1)

    def measure(self) -> Outcome:
        from repro.ir.printer import format_module
        from repro.trace import module_op_count

        outcome = Outcome()
        log = PassLog(self.probe)
        last_edit: dict[str, tuple[str, str]] = {}
        misses = edits = 0

        def one_pass(pass_no: int) -> None:
            nonlocal misses, edits
            log.start()
            static_ops = 0
            for index, (program, function) in enumerate(self.schedule(pass_no)):
                # each run of a pair is an edit of its own, new to the store
                for traced in self.modes(index):
                    outcome.attempted += 1
                    source = self.edited_source(program, function)
                    misses_before = self.store.misses
                    try:
                        with self.tracing(traced), log.timed(traced):
                            result = compile_cell(self.by_program[program], source, self.store)
                    except Exception as error:  # counted; the run goes on
                        outcome.fail(f"{program}.{function}: {error!r}")
                        continue
                    missed = self.store.misses - misses_before
                    if missed == 0:
                        outcome.fail(f"{program}.{function}: edited function served from the store")
                    if traced:
                        misses += missed
                        edits += 1
                    else:
                        static_ops += module_op_count(result.module)
                    last_edit[program] = (source, format_module(result.module))
            log.counts.append(static_ops)

        run_passes(self.seconds, one_pass)
        # the last edit of each program must print the IR a scratch compile does
        for program, (source, text) in last_edit.items():
            if format_module(compile_cell(self.by_program[program], source).module) != text:
                outcome.fail(f"{program}: incremental IR differs from a scratch compile")
        if self.traced:
            log.trace_metrics(outcome, self.timer)
            counts = self.timer.counts
            outcome.metrics.update({
                "ir.static_ops": log.counts[0],
                "inccomp.hit_frac": ratio(
                    counts["inccomp.hits"], counts["inccomp.hits"] + counts["inccomp.misses"]
                ),
                "inccomp.misses_per_edit": ratio(misses, edits),
            })
        else:
            log.end_to_end(outcome, self.tail_q)
        return outcome

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def workload_classes() -> dict[str, type[Workload]]:
    from .serve_mixed import ServeMixed

    return {cls.name: cls for cls in (CompileCold, ExecuteHot, EditRecompile, ServeMixed)}
