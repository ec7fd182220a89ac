"""Tracing-off overhead guards.

The contract is that with no trace installed, the hot paths are the
*original* code paths — not "instrumentation that happens to be cheap".
These are structural checks (like the profiler's dispatch-loop guard in
``tests/diag/test_profile.py``): they pin the shape of the code rather
than assert on noisy wall-clock ratios.  The ≤2% ``repro bench --quick``
budget from the issue is enforced operationally (see CHANGES.md) — a
timing assertion here would flake on loaded CI machines.
"""

import inspect

from repro.trace import current_trace, span
from repro.trace.spans import Trace


class TestGlobalSpanIsFreeWhenOff:
    def test_span_yields_immediately_without_a_trace(self):
        assert current_trace() is None
        with span("anything", irrelevant=1) as extra:
            assert extra is None

    def test_span_source_checks_current_before_any_work(self):
        """The no-trace exit must come before argument processing."""
        source = inspect.getsource(span)
        body = source.split('"""', 2)[2]  # after the docstring
        # the None check must come before the real span machinery runs
        assert body.index("is None") < body.index(".span(")


class TestEngineHotPathUntraced:
    def test_exec_entry_keeps_the_original_untraced_path(self):
        from repro.interp.compiled import exec_entry

        source = inspect.getsource(exec_entry)
        untraced = source.split("if trace is None:", 1)[1]
        untraced = untraced.split("cached =", 1)[0]
        # the trace-off branch calls straight into the generated code
        # with no span machinery
        assert "span" not in untraced
        assert "_call_entry" in untraced

    def test_exec_function_dispatch_loop_has_no_tracing(self):
        """The generated dispatch loops must never consult the trace."""
        from repro.interp import Machine, MachineOptions
        from repro.pipeline import compile_source

        module = compile_source(
            "int f(int n) { int i; int s = 0;"
            " for (i = 0; i < n; i++) { s += i; } return s; }"
            " int main(void) { return f(10); }"
        ).module
        Machine(module, MachineOptions(engine="compiled")).run()
        sources = [code.source for code in module._compiled.code.values()]
        assert len(sources) == 2
        for source in sources:
            assert "trace" not in source
            assert "span" not in source


class TestPipelineSpansAreAnonymousCompatible:
    def test_pass_span_without_trace_is_noop(self):
        from repro.pipeline import _pass_span

        assert current_trace() is None
        with _pass_span("promotion") as extra:
            assert extra is None

    def test_trace_events_list_not_populated_when_off(self):
        from repro.pipeline import compile_source

        assert current_trace() is None
        compile_source("int main(void) { return 0; }")
        assert current_trace() is None


class TestPoolJobPathUntraced:
    def test_handle_job_skips_tracing_without_context(self):
        from repro.runner.pool import _maybe_tracing

        with _maybe_tracing("compile", None, "w0") as trace:
            assert trace is None

    def test_execute_cell_without_context_collects_nothing(self):
        from repro.interp import MachineOptions
        from repro.pipeline import PipelineOptions
        from repro.runner.scheduler import CellSpec, execute_cell

        spec = CellSpec(
            workload="t",
            variant="modref/promo",
            source="int main(void) { return 0; }",
            options=PipelineOptions(),
            machine=MachineOptions(),
        )
        cell = execute_cell(spec)
        assert cell.trace_events == []


class TestSpanEventSlots:
    def test_trace_span_overhead_is_bounded_allocation(self):
        """A traced span allocates one SpanEvent and no per-span dicts
        beyond args — guard the shape by counting events."""
        trace = Trace("t")
        for _ in range(100):
            with trace.span("x"):
                pass
        assert len(trace.events) == 100
