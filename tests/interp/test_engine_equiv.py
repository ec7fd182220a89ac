"""Differential oracle: the compiled tier vs the reference loop.

The engine contract is *bit-identical observables* — counters (every
field), output, exit code, ``block_visits`` under profiling, ``clock()``
values, traps, and the exact operation count and counter state at which
``max_steps`` exhaustion fires.  The compiled tier must satisfy it through
batching and exact deoptimization to the reference loop.  These tests
enforce the contract over the whole 14-program benchmark suite at -O0 and
through the full pipeline, profiled and unprofiled, plus targeted
boundary cases the suite cannot hit (the deopt edges: ``max_steps``
expiring inside compiled code, also in the path after a call and near
the end of a run, where a fuel check deoptimizes conservatively; traps
inside code with promoted slots and inside copied joins; cache
invalidation between runs; and deeply nested branches), the
soundness of the registers the tier proves to hold ints (or non-negative
ints), every shape of its overflow check at the bounds it tests, the int
facts it keeps along a path, and the call depth across a deopt.
"""

from __future__ import annotations

import copy
import math
import pickle
import re
import sys
from collections import Counter

import pytest

from repro.analysis.loops import find_loops
from repro.errors import InterpError, InterpTrap, ResourceLimitError
from repro.interp import Machine, MachineOptions, compiled, invalidate_decoded
from repro.ir.cfg import predecessors, reachable_labels
from repro.ir.instructions import BinOp, LoadI
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_module
from repro.pipeline import Analysis, PipelineOptions, compile_source, paper_variants
from repro.trace import tracing
from repro.workloads import get_workload, workload_names

O0 = PipelineOptions(
    analysis=Analysis.NONE,
    promotion=False,
    pointer_promotion=False,
    optimize=False,
)
FULL = PipelineOptions()

PIPELINES = {"O0": O0, "full": FULL}

#: the reference loop first, then the engine held to its contract
ENGINES = ("simple", "compiled")


def _module(workload, options):
    return compile_source(
        workload.source, options, name=workload.name, defines=workload.defines
    ).module


def _run(module, engine, **kwargs):
    options = MachineOptions(engine=engine, profile=True, **kwargs)
    return Machine(module, options).run()


def _assert_identical(simple, compiled, context, visits=True):
    assert simple.counters.as_dict() == compiled.counters.as_dict(), context
    assert simple.output == compiled.output, context
    assert simple.exit_code == compiled.exit_code, context
    assert simple.returned == compiled.returned, context
    if visits:
        assert simple.block_visits == compiled.block_visits, context


def _compiled(module) -> bool:
    """Has the compiled tier generated code for ``module``?"""
    cm = module.__dict__.get("_compiled")
    return cm is not None and bool(cm.code)


#: suite programs whose full-equivalence sweep dominates tier-1 wall
#: time; they run in CI and under plain `pytest`, but `-m "not slow"`
#: skips them for the fast lane, which keeps allroots/dhrystone/fft/mlink
#: as its equivalence smoke
SLOW_WORKLOADS = frozenset(
    {
        "bc",
        "bison",
        "clean",
        "compress",
        "go",
        "gzip_enc",
        "gzip_dec",
        "indent",
        "tsp",
        "water",
    }
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW_WORKLOADS else n
        for n in workload_names()
    ],
)
@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_workload_observables_identical(name, pipeline):
    workload = get_workload(name)
    options = PIPELINES[pipeline]
    simple = _run(_module(workload, options), "simple")
    module = _module(workload, options)
    run = _run(module, "compiled")
    _assert_identical(simple, run, f"{name}/{pipeline}")
    # a second run on the same module exercises the warm cache
    rerun = _run(module, "compiled")
    _assert_identical(run, rerun, f"{name}/{pipeline} warm")
    # the unprofiled code is what the suite, serve and perfbench execute
    plain = Machine(module, MachineOptions(engine="compiled")).run()
    assert plain.block_visits is None
    _assert_identical(simple, plain, f"{name}/{pipeline} unprofiled", visits=False)


class TestMaxStepsExhaustion:
    """The limit fires at the same op count, with the same message, and
    leaves the counters in the same state under both engines."""

    @pytest.mark.slow
    def test_limit_boundary(self):
        workload = get_workload("fft")
        total = _run(_module(workload, FULL), "compiled").counters.total_ops
        for engine in ENGINES:
            # exactly enough steps: completes
            run = _run(_module(workload, FULL), engine, max_steps=total)
            assert run.counters.total_ops == total
        # one short (and much shorter): raises, in identical state
        for limit in (total - 1, total // 2, 1):
            states = []
            for engine in ENGINES:
                machine = Machine(
                    _module(workload, FULL),
                    MachineOptions(engine=engine, max_steps=limit),
                )
                with pytest.raises(ResourceLimitError) as exc:
                    machine.run()
                assert str(exc.value) == f"exceeded {limit} executed operations"
                states.append(machine.counters.as_dict())
            assert states[0] == states[1], limit


def test_clock_values_identical():
    source = r"""
    int main(void) {
        int t0 = clock();
        int i; int s = 0;
        for (i = 0; i < 100; i = i + 1) { s = s + i; }
        int t1 = clock();
        printf("c0=%d c1=%d s=%d\n", t0, t1, s);
        return 0;
    }
    """
    outputs = set()
    for engine in ENGINES:
        module = compile_source(source, FULL).module
        outputs.add(_run(module, engine).output)
    assert len(outputs) == 1


def test_trap_identical():
    source = 'int main(void) { int a = 7; int b = 0; printf("%d", a / b); return 0; }'
    messages = set()
    for engine in ENGINES:
        module = compile_source(source, FULL).module
        with pytest.raises(InterpTrap) as exc:
            _run(module, engine)
        messages.add(str(exc.value))
    assert messages == {"integer division by zero"}


@pytest.mark.parametrize("pipeline", list(PIPELINES))
@pytest.mark.parametrize(
    "big,value,message",
    [
        ("h(1e308)", "x - x", "cannot convert float NaN to integer"),
        ("h(1e308)", "-x", "cannot convert float infinity to integer"),
        # constants: the optimizer's folders must leave the F2I alone
        ("1e308", "x - x", "cannot convert float NaN to integer"),
        ("1e308", "x", "cannot convert float infinity to integer"),
    ],
)
def test_f2i_of_nan_or_infinity_traps_identically(pipeline, big, value, message):
    source = f"""
    double h(double v) {{ return v; }}
    int main(void) {{
        double x = {big} * 10.0;
        long z = (long)({value});
        printf("%ld\\n", z);
        return 0;
    }}
    """
    messages = set()
    for engine in ENGINES:
        module = compile_source(source, PIPELINES[pipeline]).module
        with pytest.raises(InterpTrap) as exc:
            _run(module, engine)
        messages.add(str(exc.value))
    assert messages == {f"float-to-int conversion: {message}"}


@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_literal_at_2_63_is_negative_in_and_out_of_functions(pipeline):
    """A literal is one signed 64-bit value wherever it stands: gcc prints
    ``-9223372036854775808 1`` for both lines."""
    source = r"""
    long g = 0x8000000000000000;
    int main(void) {
        long x = 0x8000000000000000;
        printf("%ld %d\n", g, g < 0);
        printf("%ld %d\n", x, x < 0);
        return 0;
    }
    """
    runs = []
    for engine in ENGINES:
        module = compile_source(source, PIPELINES[pipeline]).module
        runs.append(_run(module, engine))
    _assert_identical(*runs, pipeline)
    assert runs[0].output == "-9223372036854775808 1\n" * 2


@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_out_of_range_literals_wrap_identically(pipeline):
    """Literals at or above 2**63 wrap to negative values, and every
    inlined fast path must keep wrapping its results the way the
    reference does."""
    source = r"""
    long big = 0x8000000000000000;
    long ones = 0xFFFFFFFFFFFFFFFF;
    int main(void) {
        long x = 0x8000000000000000;
        long y = 0xFFFFFFFFFFFFFFFF;
        printf("%ld %ld %ld %ld %ld\n", x ^ 0, x | 0, x & y, x >> 0, x / 1);
        printf("%ld %ld %ld %ld %ld\n", y ^ 0, y | 0, y >> 1, y / 1, y % 3);
        printf("%ld %ld %ld %ld %ld\n", ~x, ~y, big ^ 0, ones / 1, big % ones);
        return (x ^ 0) < 0;
    }
    """
    runs = []
    for engine in ENGINES:
        module = compile_source(source, PIPELINES[pipeline]).module
        runs.append(_run(module, engine))
    _assert_identical(*runs, pipeline)
    assert runs[0].exit_code == 1


def test_deep_recursion_limit_identical():
    source = r"""
    int f(int n) { if (n == 0) { return 0; } return f(n - 1); }
    int main(void) { return f(5000); }
    """
    messages = set()
    for engine in ENGINES:
        module = compile_source(source, O0).module
        with pytest.raises(ResourceLimitError) as exc:
            _run(module, engine)
        messages.add(str(exc.value))
    assert messages == {"interpreted call stack too deep"}


def test_unknown_engine_rejected():
    module = compile_source("int main(void) { return 0; }", O0).module
    for name in ("jit", "threaded", "tier2"):
        with pytest.raises(InterpError, match="unknown interpreter engine"):
            Machine(module, MachineOptions(engine=name)).run()


class TestDecodeCache:
    def test_cache_lives_on_module_and_pickles_away(self):
        module = compile_source("int main(void) { return 3; }", O0).module
        _run(module, "compiled")
        assert hasattr(module, "_compiled")
        clone = pickle.loads(pickle.dumps(module))
        assert not hasattr(clone, "_compiled")
        assert _run(clone, "compiled").exit_code == 3
        deep = copy.deepcopy(module)
        assert not hasattr(deep, "_compiled")
        assert _run(deep, "compiled").exit_code == 3

    def test_invalidate_decoded(self):
        module = compile_source("int main(void) { return 3; }", O0).module
        _run(module, "compiled")
        invalidate_decoded(module)
        assert not hasattr(module, "_compiled")
        assert _run(module, "compiled").exit_code == 3
        invalidate_decoded(module)
        invalidate_decoded(module)  # idempotent on a cold module

    def test_instruction_replacement_invalidates(self):
        # passes rewrite programs by splicing in new instruction objects;
        # the staleness signature must notice and regenerate
        module = compile_source(
            'int main(void) { printf("%d\\n", 7); return 0; }', O0
        ).module
        assert _run(module, "compiled").output == "7\n"
        for func in module.functions.values():
            for block in func.blocks.values():
                block.instrs = [
                    LoadI(i.dst, 8)
                    if isinstance(i, LoadI) and i.value == 7
                    else i
                    for i in block.instrs
                ]
        assert _run(module, "compiled").output == "8\n"


#: a hot callee plus a caller loop around it
HOT_SOURCE = r"""
int g;
int work(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; g = g + 1; }
    return s;
}
int main(void) {
    int r = 0; int k;
    for (k = 0; k < 40; k = k + 1) { r = r + work(50); }
    printf("r=%d g=%d\n", r, g);
    return 0;
}
"""


def _limit_states(source, options, limits):
    """Per limit: the (message, counters) each engine stops with."""
    states = {}
    for limit in limits:
        seen = []
        for engine in ENGINES:
            module = compile_source(source, options).module
            machine = Machine(module, MachineOptions(engine=engine, max_steps=limit))
            with pytest.raises(ResourceLimitError) as exc:
                machine.run()
            if engine == "compiled":
                # the limit really interrupted generated code
                assert _compiled(module)
            seen.append((str(exc.value), machine.counters.as_dict()))
        states[limit] = seen
    return states


class TestCompiledDeopt:
    """The compiled tier's exactness contract at its deoptimization edges:
    it must leave *identical* observables when generated code is
    interrupted (fuel exhaustion, traps) or its cache is torn down
    (invalidation, pickling) — not merely on clean completions."""

    def test_max_steps_expires_mid_region_with_identical_counters(self):
        total = _run(compile_source(HOT_SOURCE, FULL).module, "simple")
        total = total.counters.total_ops
        limits = (total // 2, 2 * total // 3, total - 1)
        for limit, (reference, compiled) in _limit_states(
            HOT_SOURCE, FULL, limits
        ).items():
            assert reference[0] == f"exceeded {limit} executed operations"
            assert compiled == reference, limit

    def test_max_steps_expires_in_segment_after_call(self, monkeypatch):
        # the loop body calls bump() mid-block, so a limit swept over one
        # iteration must stop some runs inside the path that follows the
        # call; the reference loop then resumes mid-block
        source = r"""
        int g;
        int bump(int x) { g = g + x; return x + 1; }
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 50; i = i + 1) { s = s + bump(i) * 3 + i; }
            printf("%d %d\n", s, g);
            return 0;
        }
        """
        resumed = []
        exec_blocks = Machine._exec_blocks

        def spy(self, func, regs, frame, label, start=None):
            if start:
                resumed.append((func.name, label, start))
            return exec_blocks(self, func, regs, frame, label, start)

        monkeypatch.setattr(Machine, "_exec_blocks", spy)
        total = _run(compile_source(source, FULL).module, "simple")
        middle = total.counters.total_ops // 2
        for limit, (reference, compiled) in _limit_states(
            source, FULL, range(middle, middle + 24)
        ).items():
            assert compiled == reference, limit
        assert any(name == "main" for name, _, _ in resumed), resumed

    def test_trap_inside_promoted_region_flushes_state(self):
        # with promotion off, the loop loads and stores the frame slot of
        # `x` every iteration; its address never survives optimization, so
        # the compiled tier keeps it in a Python local.  The division traps
        # on iteration 50: the handler must store the slot back and add
        # the counts of the trapping path up to the division, leaving memory
        # and counters exactly as the reference loop leaves them
        source = r"""
        int main(void) {
            int x = 0; int *p = &x; int i;
            for (i = 0; i < 100; i = i + 1) {
                *p = *p + 1000 / (50 - i);
            }
            printf("x=%d\n", x);
            return 0;
        }
        """
        options = PipelineOptions(promotion=False)
        states = []
        for engine in ENGINES:
            module = compile_source(source, options).module
            machine = Machine(module, MachineOptions(engine=engine))
            with pytest.raises(InterpTrap) as exc:
                machine.run()
            assert str(exc.value) == "integer division by zero"
            cells = {a: v for a, v in machine.mem.cells.items() if v != 0}
            states.append((machine.counters.as_dict(), cells))
        code = module._compiled.code[("main", False)]
        assert re.search(r"\bx\d+ = r\d+", code.source), code.source
        assert states[0] == states[1]

    def test_recursion_into_invalidated_region_recompiles(self):
        # after invalidation the next run re-enters fib through fresh
        # stubs (recursively) and must regenerate to the same observables
        source = r"""
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { printf("%d\n", fib(15)); return 0; }
        """
        simple = _run(compile_source(source, FULL).module, "simple")
        module = compile_source(source, FULL).module
        first = _run(module, "compiled")
        _assert_identical(simple, first, "first run")
        assert _compiled(module)
        invalidate_decoded(module)
        assert not hasattr(module, "_compiled")
        again = _run(module, "compiled")
        _assert_identical(simple, again, "after invalidation")
        assert _compiled(module)

    def test_pickle_and_deepcopy_strip_compiled_regions(self):
        module = compile_source(HOT_SOURCE, FULL).module
        reference = _run(module, "compiled")
        assert _compiled(module)
        clone = pickle.loads(pickle.dumps(module))
        assert not hasattr(clone, "_compiled")
        _assert_identical(reference, _run(clone, "compiled"), "pickle clone")
        deep = copy.deepcopy(module)
        assert not hasattr(deep, "_compiled")
        _assert_identical(reference, _run(deep, "compiled"), "deepcopy clone")


def _nested_ifs_source(depth: int) -> str:
    nest = "".join(f"if (x > {k}) {{ s = s + {k}; " for k in range(depth))
    return f"""
    int f(int x) {{ int s = 0; {nest}s = s * 2; {"} " * depth}return s; }}
    int main(void) {{
        int x; int t = 0;
        for (x = 0; x < 130; x = x + 3) {{ t = t + f(x); }}
        printf("%d\\n", t);
        return t & 255;
    }}
    """


#: a loop whose body branches into a small join; the join divides by zero
#: on iteration TRAP
DIAMOND_SOURCE = r"""
int g;
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 40; i = i + 1) {
        if (i & 1) { s = s + i; } else { g = g + 2; }
        s = s + 1000 / (TRAP - i) + g;
    }
    printf("%d %d\n", s, g);
    return 0;
}
"""

_VISIT = re.compile(r"_vb\[\('[^']*', '([^']*)'\)\]")
_ARM = re.compile(r" *(?:if|elif) (?:_pc == \d+|True):")


def _layout(module, name):
    """The labels ``name``'s profiled code dispatches to on ``_pc``, and
    how many copies of each label's code it holds."""
    source = module._compiled.code[(name, True)].source
    lines = source.splitlines()
    arms = [
        _VISIT.match(lines[n + 1].strip()).group(1)
        for n, line in enumerate(lines)
        if _ARM.fullmatch(line)
    ]
    return arms, Counter(_VISIT.findall(source))


def _division_block(func) -> str:
    for label, block in func.blocks.items():
        if any(
            isinstance(i, BinOp) and i.opcode is Opcode.DIV for i in block.instrs
        ):
            return label
    raise AssertionError("no division")


class TestStraightLineShapes:
    """The code shapes of straight-line generation: both branch arms
    inlined, small joins copied into each predecessor, and the dispatch
    loop kept for the entry, loop headers and oversized joins."""

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_deeply_nested_ifs(self, pipeline):
        source = _nested_ifs_source(120)
        runs = [
            _run(compile_source(source, PIPELINES[pipeline]).module, engine)
            for engine in ENGINES
        ]
        _assert_identical(*runs, pipeline)
        assert runs[0].output == "148380\n"
        # the smaller arm nests, so depth grows with log2 of the code size
        module = compile_source(source, PIPELINES[pipeline]).module
        _run(module, "compiled")
        size = sum(1 for _ in module.functions["f"].instructions())
        generated = module._compiled.code[("f", True)].source.splitlines()
        depth = max(len(line) - len(line.lstrip()) for line in generated) // 4
        assert depth <= math.log2(size) + 9

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_limit_sweep_over_duplicated_join(self, pipeline):
        # limits swept over one iteration stop runs at every point of the
        # loop body, both copies of the join included
        options = PIPELINES[pipeline]
        source = DIAMOND_SOURCE.replace("TRAP", "30")
        machine = Machine(
            compile_source(source, options).module, MachineOptions(engine="simple")
        )
        with pytest.raises(InterpTrap):
            machine.run()
        middle = machine.counters.total_ops // 2
        for limit, (reference, generated) in _limit_states(
            source, options, range(middle, middle + 30)
        ).items():
            assert generated == reference, limit

    @pytest.mark.parametrize("trap", [30, 31])  # one copy each
    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_trap_inside_duplicated_join(self, pipeline, trap):
        source = DIAMOND_SOURCE.replace("TRAP", str(trap))
        states = []
        for engine in ENGINES:
            module = compile_source(source, PIPELINES[pipeline]).module
            machine = Machine(module, MachineOptions(engine=engine, profile=True))
            with pytest.raises(InterpTrap) as exc:
                machine.run()
            assert str(exc.value) == "integer division by zero"
            cells = {a: v for a, v in machine.mem.cells.items() if v != 0}
            states.append((machine.counters.as_dict(), machine.block_visits, cells))
        assert states[0] == states[1]
        # the trapping join really is copied into both of its predecessors
        _, copies = _layout(module, "main")
        assert copies[_division_block(module.functions["main"])] == 2

    @pytest.mark.parametrize(
        "name", [n for n in workload_names() if n not in SLOW_WORKLOADS]
    )
    def test_arms_are_entry_headers_and_oversized_joins(self, name):
        module = _module(get_workload(name), FULL)
        _run(module, "compiled")
        for fname, profiled in module._compiled.code:
            if not profiled:
                continue
            func = module.functions[fname]
            arms, copies = _layout(module, fname)
            headers = {loop.header for loop in find_loops(func).loops}
            assert len(set(arms)) == len(arms), fname
            assert arms and {func.entry} | headers <= set(arms), fname
            reach = reachable_labels(func)
            preds = {
                label: set(p for p in ps if p in reach)
                for label, ps in predecessors(func).items()
            }
            assert set(copies) == reach, fname

            def inlined_size(label: str) -> int:
                # IR instructions emitted where ``label`` is inlined
                if label in arms:
                    return 0
                block = func.blocks[label]
                return len(block.instrs) + sum(
                    map(inlined_size, set(block.successors()))
                )

            for label in reach - set(arms):
                if len(preds[label]) > 1:
                    assert inlined_size(label) <= compiled._JOIN_LIMIT, label
            for label in set(arms) - {func.entry} - headers:
                assert len(preds[label]) > 1, label
                assert (
                    len(func.blocks[label].instrs)
                    + sum(map(inlined_size, set(func.blocks[label].successors())))
                    > compiled._JOIN_LIMIT
                ), label

    def test_small_join_is_copied_and_big_join_dispatched(self):
        tail = "".join(f"s = s * 3 + {k}; " for k in range(20))
        source = f"""
        int main(void) {{
            int i; int s = 0;
            for (i = 0; i < 10; i = i + 1) {{
                if (i & 1) {{ s = s + i; }} else {{ s = s - 1; }}
                s = s + 2;
            }}
            if (s > 5) {{ s = s + 1; }} else {{ s = s - 1; }}
            {tail}
            printf("%d\\n", s);
            return 0;
        }}
        """
        module = compile_source(source, O0).module
        runs = [_run(module, engine) for engine in ENGINES]
        _assert_identical(*runs, "joins")
        func = module.functions["main"]
        arms, copies = _layout(module, "main")
        headers = {loop.header for loop in find_loops(func).loops}
        joins = set(arms) - {func.entry} - headers
        assert len(headers) == 1 and len(joins) == 1, arms
        assert max(copies.values()) == 2


#: a loop whose body is a diamond: a 3-op arm on seven iterations of eight,
#: a 40-op arm on the eighth, joined by a 2-op block that the tier copies
#: into both arms.  The header's fuel check covers the longest path, so
#: with too little fuel left for the long arm it trips even on iterations
#: that take the short one
_LONG_ARM = "\n".join("    %r1 = add %r1, %r4" for _ in range(39))
DIAMOND_IR = f"""func main() {{
B0: ; entry
    %r0 = loadi 0
    %r1 = loadi 0
    %r2 = loadi 1
    %r3 = loadi 8
    %r4 = loadi 7
    %r5 = loadi 30
    jmp H1
H1:
    %r6 = cmp_lt %r0, %r5
    cbr %r6 ? B2 : X5
B2:
    %r7 = mod %r0, %r3
    %r8 = cmp_eq %r7, %r4
    cbr %r8 ? L3 : S4
S4:
    %r1 = add %r1, %r0
    %r1 = xor %r1, %r2
    jmp J6
L3:
{_LONG_ARM}
    jmp J6
J6:
    %r0 = add %r0, %r2
    jmp H1
X5:
    ret %r1
}}
"""

_FUEL_CHECK = re.compile(r" *if _t > _lim - (\d+):")
#: a generated call: to a generated function or to an intrinsic
_CALL = re.compile(r"(?! *def ).*\b(?:_F_\w+|m\._exec_intrinsic)\(")
#: what a call's code may hold between the call and its path's check
_AFTER_CALL = re.compile(r" *(?:r\d+ = 0 if v is None else v|_lim = _m - c\.total_ops)")


def _spy_deopts(monkeypatch):
    """Record every resume of the reference loop: the function, block and
    instruction it resumes at, and the fuel left at that moment."""
    deopts = []
    exec_blocks = Machine._exec_blocks

    def spy(self, func, regs, frame, label, start=None):
        if start is not None:
            left = self.options.max_steps - self.counters.total_ops
            deopts.append((func.name, label, start, left))
        return exec_blocks(self, func, regs, frame, label, start)

    monkeypatch.setattr(Machine, "_exec_blocks", spy)
    return deopts


def _stop_state(module, engine, limit, profile=True):
    """``(how the run ended, counters, output, block visits)`` of a run
    with ``limit`` steps (None: the default budget)."""
    options = MachineOptions(engine=engine, profile=profile)
    if limit is not None:
        options.max_steps = limit
    machine = Machine(module, options)
    try:
        run = machine.run()
        how = f"exit {run.exit_code} returned {run.returned!r}"
    except ResourceLimitError as exc:
        how = f"ResourceLimitError: {exc}"
    return how, machine.counters.as_dict(), "".join(machine.output), machine.block_visits


class TestPathAccounting:
    """Per-path accounting at its edges: a fuel check covers every path
    from an arm head or a call, so near the end of the budget it trips on
    paths that would still fit, and the reference loop it deoptimizes to
    must then finish or stop exactly as it would have on its own."""

    def test_fuel_sweep_near_end_of_run(self, monkeypatch):
        deopts = _spy_deopts(monkeypatch)
        finished_after_deopt = []
        for name in ("allroots", "water", "fft", "mlink"):
            workload = get_workload(name)
            module = _module(workload, paper_variants()["modref/promo"])
            finished = _stop_state(module, "simple", None)
            total = finished[1]["total_ops"]
            for limit in range(total - 5, total + 61):
                # the reference loop never looks at a budget it does not
                # exhaust, so every limit from the total up finishes its run
                reference = finished
                if limit < total:
                    reference = _stop_state(module, "simple", limit)
                    assert reference[0] == (
                        f"ResourceLimitError: exceeded {limit} executed operations"
                    )
                for profile in (True, False):
                    del deopts[:]
                    state = _stop_state(module, "compiled", limit, profile)
                    if profile:
                        assert state == reference, (name, limit)
                    else:
                        assert state[:3] == reference[:3], (name, limit)
                    if limit >= total and deopts:
                        finished_after_deopt.append((name, limit, deopts[0]))
        # some check tripped with fuel left for the path actually taken:
        # the reference loop took over and finished the run
        assert finished_after_deopt

    def test_check_trips_while_short_arm_runs(self, monkeypatch):
        module = parse_module(DIAMOND_IR)
        finished = _stop_state(module, "simple", None)
        assert finished[0] == "exit 184 returned 1208"
        assert _stop_state(module, "compiled", None) == finished
        # the header's check covers the 47-op path through the long arm
        source = module._compiled.code[("main", True)].source
        assert "if _t > _lim - 47:" in source
        # the entry runs 7 ops, a short-arm iteration 10 from the header;
        # sweep the limit across iterations 8 to 10 (the long arm is
        # iteration 7)
        deopts = _spy_deopts(monkeypatch)
        start = 7 + 7 * 10 + 47
        conservative = []
        for limit in range(start, start + 3 * 10 + 1):
            reference = _stop_state(module, "simple", limit)
            del deopts[:]
            assert _stop_state(module, "compiled", limit) == reference, limit
            assert [d[:3] for d in deopts] == [("main", "H1", 0)], limit
            if deopts[0][3] >= 10:
                # fuel was left for the short arm: the check tripped
                # although this iteration could not exhaust it
                conservative.append(limit)
        assert conservative

    @pytest.mark.parametrize(
        "name", [n for n in workload_names() if n not in SLOW_WORKLOADS]
    )
    def test_one_fuel_compare_per_arm_head_and_post_call_point(self, name):
        module = _module(get_workload(name), FULL)
        Machine(module, MachineOptions(engine="compiled", profile=True)).run()
        Machine(module, MachineOptions(engine="compiled")).run()
        for (fname, profiled), code in module._compiled.code.items():
            lines = code.source.splitlines()
            checks = [n for n, line in enumerate(lines) if _FUEL_CHECK.fullmatch(line)]
            expected = []
            for n, line in enumerate(lines):
                if _ARM.fullmatch(line):
                    n += 1 + profiled  # a profiled arm counts its visit first
                elif _CALL.match(line):
                    n += 1
                    while _AFTER_CALL.fullmatch(lines[n]):
                        n += 1
                else:
                    continue
                assert _FUEL_CHECK.fullmatch(lines[n]), (fname, n)
                expected.append(n)
            assert checks == expected, (fname, profiled)
            # no other fuel test, and nothing taken back
            assert code.source.count("_lim") == len(checks) + code.source.count(
                "_lim = _m - c.total_ops"
            ), fname
            assert "_t -=" not in code.source, fname


#: the compare feeds its branch and is read again after it
LIVE_COMPARE_IR = """func main() {
B0: ; entry
    %r0 = loadi 3
    %r1 = loadi 5
    %r2 = cmp_lt %r0, %r1
    cbr %r2 ? T1 : F2
T1:
    %r3 = add %r2, %r1
    ret %r3
F2:
    %r4 = cmp_gt %r0, %r1
    cbr %r4 ? T1 : X3
X3:
    ret %r0
}
"""


def test_only_a_compare_read_by_its_branch_alone_is_folded():
    module = parse_module(LIVE_COMPARE_IR)
    runs = [Machine(module, MachineOptions(engine=e)).run() for e in ENGINES]
    _assert_identical(*runs, "live compare", visits=False)
    assert runs[0].exit_code == 6
    source = module._compiled.code[("main", False)].source
    # r2 is read in T1, so it stays; r4 only feeds its branch
    assert "r2 = 1 if r0 < r1 else 0" in source
    assert "r4 =" not in source and "r0 > r1" in source


#: claimed negative cases: registers an int proof must not claim
NOT_INT_IR = """global g size=8

func h() {
B0: ; entry
    %r0 = loadi 2.5
    ret %r0
}

func main(%p0) {
B0: ; entry
    %r1 = loadi 1
    %r2 = loadi 2.5
    cbr %p0 ? T1 : F2
T1:
    %r3 = mov %r1
    jmp J3
F2:
    %r3 = mov %r2
    jmp J3
J3:
    %r4 = sload [g]
    %r5 = call h() mod=[*] ref=[*]
    %r6 = mov %r4
    %r7 = div %r1, %r2
    %r8 = add %r3, %r1
    %r9 = mov %p0
    %r10 = add %r1, %r1
    %r11 = cmp_lt %r2, %r2
    %r12 = f2i %r2
    %r13 = div %r10, %r1
    %r14 = and %r4, %r5
    ret %r10
}
"""


def _in_range(value) -> bool:
    return value.__class__ is int and -(2**63) <= value < 2**63


def _non_negative(value) -> bool:
    return value.__class__ is int and 0 <= value < 2**63


class _CheckedRegs(list):
    """A register file that records every value written to a claimed
    register that its claim (a predicate) rejects."""

    def __init__(self, values, claims, bad):
        super().__init__(values)
        self.claims = claims
        self.bad = bad

    def __setitem__(self, index, value):
        for claimed, holds in self.claims:
            if index in claimed and not holds(value):
                self.bad.append((index, value))
        super().__setitem__(index, value)


class TestIntRegisters:
    """``_int_registers`` claims only registers that hold nothing but
    in-range ints, and ``_nonneg_registers`` only those that hold nothing
    but non-negative ones: the compiled tier drops class tests and
    one-sided range checks on them."""

    @pytest.mark.parametrize("variant", list(paper_variants()))
    @pytest.mark.parametrize("name", ["allroots", "dhrystone", "fft", "mlink"])
    def test_claimed_registers_only_ever_hold_ints(self, name, variant, monkeypatch):
        module = _module(get_workload(name), paper_variants()[variant])
        claims = {}
        for fname, func in module.functions.items():
            graph = compiled._def_graph(func)
            claims[fname] = (
                (compiled._int_registers(graph), _in_range),
                (compiled._nonneg_registers(graph), _non_negative),
            )
        assert any(ints for (ints, _), _ in claims.values())
        assert any(nonneg for _, (nonneg, _) in claims.values())
        bad: list = []
        exec_blocks = Machine._exec_blocks

        def spy(self, func, regs, frame, label, start=None):
            for claimed, holds in claims[func.name]:
                bad.extend((func.name, r) for r in claimed if not holds(regs[r]))
            checked = _CheckedRegs(regs, claims[func.name], bad)
            return exec_blocks(self, func, checked, frame, label, start)

        monkeypatch.setattr(Machine, "_exec_blocks", spy)
        _run(module, "simple")
        assert bad == []

    def test_unknown_values_are_not_claimed(self):
        module = parse_module(NOT_INT_IR)
        main = compiled._def_graph(module.functions["main"])
        claimed = compiled._int_registers(main)
        # r3 joins an int and a float, p0 is a parameter, r4 a load, r5 a
        # call result, r6 a copy of an unknown value, r7 a DIV with a
        # float operand, r8 and r9 derive from them, r14's operands are
        # unknown but AND always makes an int
        assert claimed == {1, 10, 11, 12, 13, 14}
        # of those, only the constant 1 and the compare are never
        # negative: a sum, a conversion, a quotient of a sum and an AND of
        # unknown values may be
        assert compiled._nonneg_registers(main) == {1, 11}
        h = compiled._def_graph(module.functions["h"])
        assert compiled._int_registers(h) == frozenset()
        runs = [
            Machine(parse_module(NOT_INT_IR), MachineOptions(engine=e)).run()
            for e in ENGINES
        ]
        _assert_identical(*runs, "not int", visits=False)

    def test_proven_ints_drop_class_tests(self):
        module = parse_module(DIAMOND_IR)
        Machine(module, MachineOptions(engine="compiled")).run()
        source = module._compiled.code[("main", False)].source
        # every register is an int: no class test is left, and each
        # compare that only feeds its branch is folded into the branch
        assert ".__class__" not in source
        assert "if not (r0 < r5):" in source
        assert "r6 =" not in source and "r8 =" not in source


def test_codegen_spans_on_first_run_only():
    module = compile_source(HOT_SOURCE, FULL).module
    with tracing() as first:
        Machine(module, MachineOptions()).run()
    codegen = [e for e in first.events if e.name == "interp.codegen"]
    assert sorted(e.args["function"] for e in codegen) == ["main", "work"]
    run_ids = {e.span_id for e in first.events if e.name == "interp.run"}
    for event in codegen:
        assert event.parent_id in run_ids
        assert event.args["lines"] == len(
            module._compiled.code[(event.args["function"], False)].source.splitlines()
        )
    with tracing() as warm:
        Machine(module, MachineOptions()).run()
    names = [e.name for e in warm.events]
    assert "interp.run" in names and "interp.codegen" not in names


def test_recursion_limit_restored_after_run():
    old = sys.getrecursionlimit()
    module = compile_source("int main(void) { return 0; }", O0).module
    for engine in ENGINES:
        Machine(module, MachineOptions(engine=engine)).run()
        assert sys.getrecursionlimit() == old

    # restored even when the run raises
    trap = compile_source(
        "int main(void) { int z = 0; return 1 / z; }", O0
    ).module
    with pytest.raises(InterpTrap):
        Machine(trap, MachineOptions(engine="compiled")).run()
    assert sys.getrecursionlimit() == old


_SMALL = 2**30 - 1
_INT_MAX = 2**63 - 1
#: magnitudes around the compact bound and at the 64-bit one
_EDGES = (_SMALL, _SMALL + 1, _INT_MAX)
_SIGNED_EDGES = _EDGES + tuple(-v for v in _EDGES) + (-(2**63),)
#: non-negative constants a one-sided check may rely on
_NONNEG = (0, 1, _SMALL, _SMALL + 1, _INT_MAX)


def _wrap64(value: int) -> int:
    return (value + 2**63) % 2**64 - 2**63


class _GuardIR:
    """Hand-written IL with one stored result per case, so every value
    each check shape meets can be compared: ``opaque`` operands are
    proven ints the tier cannot call non-negative (a MUL by one), ``const``
    operands are non-negative constants, and ``param`` operands pass
    through ``pass2``'s parameters, which may hold anything."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.globals: list[str] = []
        self.expected: dict[str, int | float] = {}
        self.next = 0

    def reg(self) -> str:
        self.next += 1
        return f"%r{self.next}"

    def operand(self, kind: str, value) -> str:
        dst = self.reg()
        self.lines.append(f"    {dst} = loadi {value!r}")
        if kind == "opaque":
            one, opaque = self.reg(), self.reg()
            self.lines.append(f"    {one} = loadi 1")
            self.lines.append(f"    {opaque} = mul {dst}, {one}")
            return opaque
        return dst

    def case(self, op: str, lhs, rhs, expected) -> None:
        """``lhs`` and ``rhs`` are ``(kind, value)``; ``rhs`` None for a
        unary op."""
        out = f"o{len(self.globals)}"
        self.globals.append(out)
        self.expected[out] = expected
        a = self.operand(*lhs)
        dst = self.reg()
        if rhs is None:
            self.lines.append(f"    {dst} = {op} {a}")
        elif lhs[0] == "param":
            b = self.operand("const", rhs[1])
            self.lines.append(f"    {dst} = call pass2({a}, {b}) mod=[] ref=[]")
            dst2 = self.reg()
            self.lines.append(f"    {dst2} = {op} {dst}, {b}")
            dst = dst2
        else:
            b = self.operand(*rhs)
            self.lines.append(f"    {dst} = {op} {a}, {b}")
        self.lines.append(f"    sstore {dst} -> [{out}]")

    def source(self) -> str:
        head = "".join(f"global {g} size=8\n" for g in self.globals)
        return (
            head
            + "\nfunc pass2(%p0, %p1) {\nB0: ; entry\n    ret %p0\n}\n\n"
            + "func main() {\nB0: ; entry\n"
            + "\n".join(self.lines)
            + "\n    %r0 = loadi 0\n    ret %r0\n}\n"
        )


def _guard_cases() -> _GuardIR:
    ir = _GuardIR()
    for a in _SIGNED_EDGES:
        for b in (1, -1, a):
            # two-sided: neither operand is known non-negative
            ir.case("add", ("opaque", a), ("opaque", b), _wrap64(a + b))
            ir.case("sub", ("opaque", a), ("opaque", b), _wrap64(a - b))
            ir.case("mul", ("opaque", a), ("opaque", b), _wrap64(a * b))
        for d in _NONNEG:
            # one-sided: a non-negative addend or subtrahend
            ir.case("add", ("opaque", a), ("const", d), _wrap64(a + d))
            ir.case("add", ("const", d), ("opaque", a), _wrap64(a + d))
            ir.case("sub", ("opaque", a), ("const", d), _wrap64(a - d))
            ir.case("sub", ("const", d), ("opaque", a), _wrap64(d - a))
            # mixed: the left operand may be a float
            ir.case("add", ("param", a), ("const", d), _wrap64(a + d))
            ir.case("sub", ("param", a), ("const", d), _wrap64(a - d))
        ir.case("neg", ("opaque", a), None, _wrap64(-a))
        ir.case("add", ("param", float(a)), ("const", 1), float(a) + 1)
    for a in _NONNEG:
        for b in _NONNEG:
            # no check: both operands non-negative, as at 0 - MAX
            ir.case("sub", ("const", a), ("const", b), a - b)
        ir.case("neg", ("const", a), None, -a)
    return ir


class TestOverflowGuards:
    """Every shape of the inline 64-bit wrap check gives the reference
    loop's value at the compact bound (2**30 - 1), just past it and at
    2**63 - 1, on both sides."""

    def test_every_check_shape_wraps_like_the_reference(self):
        ir = _guard_cases()
        results = []
        for engine in ENGINES:
            module = parse_module(ir.source())
            machine = Machine(module, MachineOptions(engine=engine, profile=True))
            run = machine.run()
            addr = machine.mem.global_addr
            stored = {g: machine.mem.cells.get(addr[g], 0) for g in ir.globals}
            assert stored == ir.expected, engine
            results.append(run)
        _assert_identical(*results, "guards")
        # every shape met those values: the two-sided, one-sided and float
        # checks all stand in main, and so does a SUB of two non-negative
        # constants with no check at all
        source = module._compiled.code[("main", True)].source
        for name, check in compiled._CHECKS.items():
            pattern = re.escape(check.format(v="@")).replace("@", r"r\d+")
            assert re.search(f"if {pattern}:", source), name
        assert re.search(r"r\d+ = r\d+ - r\d+\n(?! *if )", source)

    def test_no_range_check_tests_the_64_bit_bound_first(self):
        """Over the 56 cells, every generated test of +-2**63 follows a
        compact-bound test on the same line."""
        shapes: Counter = Counter()
        for name in workload_names():
            workload = get_workload(name)
            for options in paper_variants().values():
                module = _module(workload, options)
                cm = compiled.get_compiled(module, Machine(module).mem)
                for func in module.functions.values():
                    code = compiled._Gen(cm, func, False, cm.namespaces[0]).build()
                    for line in code.source.splitlines():
                        if "922337203685477580" not in line:
                            continue
                        assert line.index("1073741823") < line.index(
                            "922337203685477580"
                        ), (name, func.name, line)
                        shapes[re.sub(r"r\d+", "v", line.strip())] += 1
        checks = {check.format(v="v") for check in compiled._CHECKS.values()}
        assert {line[3:-1] for line in shapes} == checks, shapes


#: ``%r1`` passes a trap test, is redefined by a call returning a float,
#: and is used as an address again: the second use must trap
REDEFINED_ADDRESS_IR = """global g size=8

func addr() {
B0: ; entry
    %r0 = la g
    ret %r0
}

func half() {
B0: ; entry
    %r0 = loadi 2.5
    ret %r0
}

func main() {
B0: ; entry
    %r1 = call addr() mod=[] ref=[]
    %r2 = load [%r1] [*]
    %r3 = load [%r1] [*]
    cbr %r2 ? T1 : F2
T1:
    %r4 = load [%r1] [*]
    ret %r4
F2:
    %r1 = call half() mod=[] ref=[]
    %r5 = load [%r1] [*]
    ret %r5
}
"""


class TestPathIntFacts:
    """A register trap-tested on a path is an int for the rest of it, on
    both arms of a later branch, until something redefines it."""

    def test_call_redefining_a_tested_register_drops_the_fact(self):
        states = []
        for engine in ENGINES:
            module = parse_module(REDEFINED_ADDRESS_IR)
            machine = Machine(module, MachineOptions(engine=engine, profile=True))
            with pytest.raises(InterpTrap) as exc:
                machine.run()
            assert str(exc.value) == "load through non-integer address 2.5"
            states.append((machine.counters.as_dict(), machine.block_visits))
        assert states[0] == states[1]
        source = module._compiled.code[("main", True)].source
        # tested once before the branch, and again after the call only
        assert source.count("if r1.__class__ is not int:") == 2

    def test_facts_of_one_arm_do_not_reach_the_other(self):
        # the smaller arm T1 is emitted first and tests a fresh %r1; F2,
        # taken at run time, loads through the float %r1 and must trap
        source = """func addr() {
B0: ; entry
    %r0 = loadi 64
    ret %r0
}

func half() {
B0: ; entry
    %r0 = loadi 2.5
    ret %r0
}

func main() {
B0: ; entry
    %r1 = call half() mod=[] ref=[]
    %r2 = loadi 0
    cbr %r2 ? T1 : F2
T1:
    %r1 = call addr() mod=[] ref=[]
    %r3 = load [%r1] [*]
    ret %r3
F2:
    %r4 = loadi 1
    %r5 = loadi 2
    %r6 = load [%r1] [*]
    ret %r6
}
"""
        for engine in ENGINES:
            module = parse_module(source)
            with pytest.raises(InterpTrap, match="non-integer address 2.5"):
                Machine(module, MachineOptions(engine=engine)).run()
        generated = module._compiled.code[("main", False)].source
        assert generated.index("r3 = ") < generated.index("r6 = ")

    def test_dispatch_arm_starts_without_facts(self):
        # the loop header is a dispatch arm: %r1 is tested again there,
        # though the entry tested it before jumping in
        source = """global g size=8

func addr() {
B0: ; entry
    %r0 = la g
    ret %r0
}

func main() {
B0: ; entry
    %r1 = call addr() mod=[] ref=[]
    %r2 = load [%r1] [*]
    %r3 = loadi 0
    %r6 = loadi 1
    %r7 = loadi 3
    jmp H1
H1:
    %r4 = load [%r1] [*]
    %r3 = add %r3, %r6
    %r5 = cmp_lt %r3, %r7
    cbr %r5 ? H1 : X2
X2:
    ret %r3
}
"""
        runs = [
            Machine(parse_module(source), MachineOptions(engine=e)).run()
            for e in ENGINES
        ]
        _assert_identical(*runs, "dispatch arm", visits=False)
        assert runs[0].returned == 3
        module = parse_module(source)
        Machine(module, MachineOptions(engine="compiled")).run()
        generated = module._compiled.code[("main", False)].source
        assert generated.count("if r1.__class__ is not int:") == 2


#: recursion to the depth limit; the never-taken arm of 20 statements
#: makes every activation's fuel check cover far more than the path it
#: takes
DEEP_SOURCE = r"""
long s;
int f(int n) {
    if (n < 0) { WIDE }
    s = s + n;
    return f(n + 1) + 1;
}
int main(void) { return f(1); }
""".replace("WIDE", "s = s * 3 + n; " * 20)


class TestCallDepth:
    """Generated code passes the call depth as an argument; the limit
    fires at the same call as in the reference loop, also when the
    reference loop takes over deep in the recursion."""

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    @pytest.mark.parametrize("depth,ok", [(1999, True), (2000, False)])
    def test_limit_fires_at_the_same_depth(self, pipeline, depth, ok):
        # main is depth 1, so f(1) .. f(depth) are depths 2 .. depth + 1
        source = f"""
        int f(int n) {{ if (n == {depth}) {{ return n; }} return f(n + 1); }}
        int main(void) {{ return f(1) & 127; }}
        """
        states = []
        for engine in ENGINES:
            module = compile_source(source, PIPELINES[pipeline]).module
            machine = Machine(module, MachineOptions(engine=engine))
            try:
                how = machine.run().exit_code
            except ResourceLimitError as exc:
                how = str(exc)
            states.append((how, machine.counters.as_dict()))
        assert states[0] == states[1]
        assert states[0][0] == (depth & 127 if ok else "interpreted call stack too deep")

    def test_deopt_deep_in_recursion_keeps_the_depth(self, monkeypatch):
        modules = {e: compile_source(DEEP_SOURCE, O0).module for e in ENGINES}
        machine = Machine(modules["simple"], MachineOptions(engine="simple"))
        with pytest.raises(ResourceLimitError, match="too deep"):
            machine.run()
        total = machine.counters.total_ops
        deopts = _spy_deopts(monkeypatch)
        # one short of the total runs out of fuel; from the total up the
        # last activations' checks trip and the reference loop finishes
        for limit in (total - 1, total, total + 1, total + 30):
            states = []
            for engine in ENGINES:
                del deopts[:]
                machine = Machine(
                    modules[engine], MachineOptions(engine=engine, max_steps=limit)
                )
                with pytest.raises(ResourceLimitError) as exc:
                    machine.run()
                states.append((str(exc.value), machine.counters.as_dict()))
            assert states[0] == states[1], limit
            if limit >= total:
                assert states[0][0] == "interpreted call stack too deep"
                # the reference loop took over inside f, with fuel to
                # spare, and recursed on until the depth limit fired
                assert [d[0] for d in deopts] == ["f"], limit
