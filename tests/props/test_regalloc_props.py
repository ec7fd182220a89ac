"""Property-based tests for the register allocator.

Generates random straight-line-plus-loops IL via the C grammar from the
differential tester, then checks the allocator's core guarantees:

* the coloring is a proper coloring of the final interference graph
  (adjacent nodes get different colors) within the K budget;
* allocation at any K preserves program semantics;
* coalescing never changes observable behaviour;
* the interference graph equals a reference model built from the
  definition of liveness, with no data-flow fixpoint.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import compute_liveness
from repro.frontend import compile_c
from repro.interp import MachineOptions, run_module
from repro.ir import Function, IRBuilder, VReg
from repro.ir.instructions import Mov
from repro.regalloc import RegAllocOptions, allocate_function, build_interference
from tests.props.test_differential_props import programs


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs(), st.sampled_from([4, 8, 16, 32]))
def test_coloring_is_proper_and_semantics_preserved(source, k):
    machine = MachineOptions(max_steps=2_000_000)
    expected = run_module(compile_c(source), options=machine)

    module = compile_c(source)
    options = RegAllocOptions(num_registers=k)
    for func in module.functions.values():
        report = allocate_function(func, options)
        coloring = report.coloring
        # proper coloring over the post-spill interference graph
        graph = build_interference(func, compute_liveness(func))
        for node, neighbors in graph.adjacency.items():
            if node not in coloring:
                continue
            assert coloring[node] < k
            for other in neighbors:
                if other in coloring:
                    assert coloring[node] != coloring[other], (
                        f"{func.name}: nodes {node} and {other} share color"
                    )

    actual = run_module(module, options=machine)
    assert actual.output == expected.output
    assert actual.exit_code == expected.exit_code


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_coalescing_preserves_semantics_and_reduces_copies(source):
    machine = MachineOptions(max_steps=2_000_000)
    expected = run_module(compile_c(source), options=machine)

    module = compile_c(source)
    for func in module.functions.values():
        allocate_function(func)

    allocated = run_module(module, options=machine)
    assert allocated.output == expected.output
    assert allocated.counters.copies <= expected.counters.copies


def reference_live_at(func) -> dict[tuple[str, int], set[int]]:
    """``(label, j) -> registers live just before instruction j`` (``j``
    may be the block length: the end of the block).

    Straight from the definition: a register is live at a point when some
    path from it reaches a use before any definition.  For each register
    the points are found by walking backwards from its uses.  Nothing flows into or out of a block
    the entry cannot reach, the convention the allocator's liveness
    follows.
    """
    reachable = {func.entry}
    work = [func.entry]
    while work:
        for succ in func.block(work.pop()).successors():
            if succ not in reachable:
                reachable.add(succ)
                work.append(succ)
    preds: dict[str, list[str]] = {label: [] for label in func.blocks}
    for label in reachable:
        for succ in func.block(label).successors():
            preds[succ].append(label)

    seeds: dict[int, set[tuple[str, int]]] = {}
    for label, block in func.blocks.items():
        for j, instr in enumerate(block.instrs):
            for reg in instr.uses():
                seeds.setdefault(reg.id, set()).add((label, j))

    live_at: dict[tuple[str, int], set[int]] = {}
    for reg_id, points in seeds.items():
        seen = set(points)
        work = list(points)
        while work:
            label, j = work.pop()
            if j == 0:
                steps = [(p, len(func.block(p).instrs)) for p in preds[label]]
            else:
                dest = func.block(label).instrs[j - 1].dest
                killed = dest is not None and dest.id == reg_id
                steps = [] if killed else [(label, j - 1)]
            for point in steps:
                if point not in seen:
                    seen.add(point)
                    work.append(point)
        for point in seen:
            live_at.setdefault(point, set()).add(reg_id)
    return live_at


def reference_interference(func) -> dict[int, set[int]]:
    """The textbook graph: each definition interferes with everything live
    after it, except itself and, for ``d = mov s``, ``s``; parameters are
    defined on entry and interfere with each other and with whatever is
    live into the entry block."""
    live_at = reference_live_at(func)
    adjacency: dict[int, set[int]] = {p.id: set() for p in func.params}

    def edge(a: int, b: int) -> None:
        if a != b:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

    for label, block in func.blocks.items():
        for i, instr in enumerate(block.instrs):
            for reg in instr.uses():
                adjacency.setdefault(reg.id, set())
            dest = instr.dest
            if dest is None:
                continue
            adjacency.setdefault(dest.id, set())
            skip = instr.src.id if isinstance(instr, Mov) else None
            for other in live_at.get((label, i + 1), ()):
                if other != skip:
                    edge(dest.id, other)
    for i, param in enumerate(func.params):
        for other in live_at.get((func.entry, 0), ()):
            edge(param.id, other)
        for other_param in func.params[i + 1 :]:
            edge(param.id, other_param.id)
    return adjacency


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs(), st.sampled_from([4, 8, 32]))
def test_interference_matches_reference_model(source, k):
    module = compile_c(source)
    for func in module.functions.values():
        assert build_interference(func).adjacency == reference_interference(func)
        allocate_function(func, RegAllocOptions(num_registers=k))
        assert build_interference(func).adjacency == reference_interference(func)


def test_interference_matches_reference_model_on_parameters():
    """The generated programs have one-parameter helpers and the front end
    zero-initialises locals, so this hand-built function covers the rest:
    parameter-parameter edges and a register ``u``, read before any
    write, live into the entry block beside the parameters."""
    for k in (2, 32):
        func = Function("pick", params=[VReg(0, "a"), VReg(1, "b"), VReg(2, "c")])
        a, b, c = func.params
        u = func.new_vreg("u")
        builder = IRBuilder(func)
        builder.start_block()
        t = builder.add(u, a)
        copy = builder.mov(b)
        builder.ret(builder.add(builder.add(t, copy), c))
        graph = build_interference(func)
        assert graph.adjacency == reference_interference(func)
        assert graph.interferes(u.id, c.id) and graph.interferes(a.id, b.id)
        allocate_function(func, RegAllocOptions(num_registers=k))
        assert build_interference(func).adjacency == reference_interference(func)
