"""Property-based tests for the register allocator.

Generates random straight-line-plus-loops IL via the C grammar from the
differential tester, then checks the allocator's core guarantees:

* the coloring is a proper coloring of the final interference graph
  (adjacent nodes get different colors) within the K budget;
* allocation at any K preserves program semantics;
* coalescing never changes observable behaviour.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import compute_liveness
from repro.frontend import compile_c
from repro.interp import MachineOptions, run_module
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
