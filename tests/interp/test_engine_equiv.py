"""Differential oracle: the compiled tier vs the reference loop.

The engine contract is *bit-identical observables* — counters (every
field), output, exit code, ``block_visits`` under profiling, ``clock()``
values, traps, and the exact operation count and counter state at which
``max_steps`` exhaustion fires.  The compiled tier must satisfy it through
batching and exact deoptimization to the reference loop.  These tests
enforce the contract over the whole 14-program benchmark suite at -O0 and
through the full pipeline, plus targeted boundary cases the suite cannot
hit (the deopt edges: ``max_steps`` expiring inside compiled code, also in
the segment after a call; traps inside code with promoted slots; and
cache invalidation between runs).
"""

from __future__ import annotations

import copy
import pickle
import re
import sys

import pytest

from repro.errors import InterpError, InterpTrap, ResourceLimitError
from repro.interp import Machine, MachineOptions, invalidate_decoded
from repro.ir.instructions import LoadI
from repro.pipeline import Analysis, PipelineOptions, compile_source
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


def _assert_identical(simple, compiled, context):
    assert simple.counters.as_dict() == compiled.counters.as_dict(), context
    assert simple.output == compiled.output, context
    assert simple.exit_code == compiled.exit_code, context
    assert simple.returned == compiled.returned, context
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
def test_out_of_range_literals_wrap_identically(pipeline):
    """The front end keeps literals at or above 2**63 unwrapped, so every
    inlined fast path must wrap its result the way the reference does."""
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
        # iteration must stop some runs inside the segment that follows
        # the call; the reference loop then resumes mid-block
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
        # on iteration 50: the handler must store the slot back and take
        # back the trapping segment's unexecuted counts, leaving memory
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
