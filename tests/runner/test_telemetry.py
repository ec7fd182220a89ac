"""Telemetry: span nesting, self-time accounting, pipeline integration,
and Chrome-trace export."""

import json
import time

from repro.pipeline import PipelineOptions, compile_and_run
from repro.trace import (
    SpanEvent,
    chrome_trace,
    current_trace,
    format_span_summary,
    module_op_count,
    span,
    tracing,
    write_chrome_trace,
)

from tests.runner.helpers import GOOD_SOURCE


class TestSpans:
    def test_span_without_trace_is_a_noop(self):
        assert current_trace() is None
        with span("orphan"):
            pass
        assert current_trace() is None

    def test_spans_nest_with_depths(self):
        with tracing() as trace:
            with span("outer"):
                with span("inner_a"):
                    pass
                with span("inner_b"):
                    pass
        by_name = {event.name: event for event in trace.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner_a"].depth == 1
        assert by_name["inner_b"].depth == 1

    def test_child_time_sums_into_parent(self):
        with tracing() as trace:
            with span("outer"):
                with span("inner"):
                    time.sleep(0.02)
        by_name = {event.name: event for event in trace.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner.seconds <= outer.seconds
        # self time excludes children: outer's self is its total minus inner
        assert abs(outer.self_seconds - (outer.seconds - inner.seconds)) < 1e-6

    def test_tracing_restores_previous_trace(self):
        with tracing("a") as outer_trace:
            with tracing("b"):
                assert current_trace().name == "b"
            assert current_trace() is outer_trace
        assert current_trace() is None

    def test_event_round_trips_through_dicts(self):
        with tracing() as trace:
            with span("x", answer=42):
                pass
        event = trace.events[0]
        clone = SpanEvent.from_dict(json.loads(json.dumps(event.as_dict())))
        assert clone == event


class TestPipelineIntegration:
    def test_compile_records_per_pass_spans(self):
        with tracing() as trace:
            compile_and_run(GOOD_SOURCE, PipelineOptions())
        names = [event.name for event in trace.events]
        for expected in ("parse", "promotion", "regalloc", "compile", "execute"):
            assert expected in names, expected

    def test_pass_spans_carry_op_deltas(self):
        with tracing() as trace:
            compile_and_run(GOOD_SOURCE, PipelineOptions())
        dce = [event for event in trace.events if event.name == "dce"]
        assert dce, "dce pass should be traced"
        for event in dce:
            assert event.args["ops_after"] == (
                event.args["ops_before"] + event.args["ops_delta"]
            )
        # dead-code elimination never adds operations
        assert all(event.args["ops_delta"] <= 0 for event in dce)

    def test_untraced_compile_records_nothing(self):
        compile_and_run(GOOD_SOURCE, PipelineOptions())
        assert current_trace() is None

    def test_pass_spans_carry_opcode_class_deltas(self):
        with tracing() as trace:
            compile_and_run(GOOD_SOURCE, PipelineOptions())
        deltas = [
            event.args["ops_by_class_delta"]
            for event in trace.events
            if "ops_by_class_delta" in event.args
        ]
        assert deltas, "some pass should change the instruction mix"
        # only nonzero classes are recorded
        for delta in deltas:
            assert all(v != 0 for v in delta.values())
            assert set(delta) <= {
                "loads", "stores", "copies", "calls", "branches", "other"
            }
        # promotion's whole point: some pass removes loads
        assert any(delta.get("loads", 0) < 0 for delta in deltas)


class TestPassOpDeltas:
    TWO_FUNCTIONS = r"""
int g;
int h[8];
int sum(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i++) { s += h[i & 7]; g += i; }
    return s;
}
int main(void) {
    int i;
    for (i = 0; i < 8; i++) { h[i] = i * 3; }
    printf("%d %d\n", sum(20), g);
    return 0;
}
"""

    def test_deltas_sum_to_each_functions_change(self):
        """A pass span counts only its own function: per function, the
        pass deltas telescope from the post-analysis op count to the
        final one."""
        from repro.pipeline import compile_source

        counts: dict[str, dict[str, int]] = {}

        def hook(stage, module):
            counts[stage] = {
                name: sum(1 for _ in func.instructions())
                for name, func in module.functions.items()
            }

        with tracing() as trace:
            compile_source(self.TWO_FUNCTIONS, PipelineOptions(), stage_hook=hook)
        assert set(counts["analysis"]) == {"sum", "main"}
        for name in ("sum", "main"):
            deltas = [
                event.args["ops_delta"]
                for event in trace.events
                if event.args.get("function") == name and "ops_delta" in event.args
            ]
            assert len(deltas) >= 8
            assert sum(deltas) == (
                counts["optimized"][name] - counts["analysis"][name]
            )

    def test_module_level_spans_carry_no_op_args(self):
        with tracing() as trace:
            compile_and_run(GOOD_SOURCE, PipelineOptions())
        module_level = [
            event for event in trace.events
            if event.name in ("modref", "verify", "optimize", "parse")
        ]
        assert module_level
        for event in module_level:
            assert not {"ops_before", "ops_after", "ops_delta"} & set(event.args)


class TestOpBreakdown:
    """The pass spans' per-function op census (``_op_census``)."""

    def _census(self, module):
        from repro.pipeline import _op_census

        return {name: _op_census(f) for name, f in module.functions.items()}

    def test_breakdown_matches_op_count_minus_nops(self):
        from repro.frontend import compile_c
        from repro.ir.instructions import Nop

        module = compile_c(GOOD_SOURCE)
        census = self._census(module)
        for name, (ops, classes) in census.items():
            nops = sum(
                1
                for instr in module.functions[name].instructions()
                if isinstance(instr, Nop)
            )
            assert sum(classes.values()) == ops - nops
        assert sum(ops for ops, _ in census.values()) == module_op_count(module)

    def test_loop_program_has_loads_stores_and_branches(self):
        from repro.frontend import compile_c

        breakdown: dict[str, int] = {}
        for _, classes in self._census(compile_c(GOOD_SOURCE)).values():
            for cls, count in classes.items():
                breakdown[cls] = breakdown.get(cls, 0) + count
        assert breakdown["loads"] > 0
        assert breakdown["stores"] > 0
        assert breakdown["branches"] > 0
        assert breakdown["calls"] > 0  # printf


class TestExport:
    def _traced_groups(self):
        with tracing() as trace:
            compile_and_run(GOOD_SOURCE, PipelineOptions())
        return {"good:modref/promo": trace.events}

    def test_chrome_trace_shape(self):
        payload = chrome_trace(self._traced_groups())
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta and complete
        assert meta[0]["args"]["name"] == "good:modref/promo"
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        json.dumps(payload)  # must be serializable

    def test_summary_aggregates_by_span_name(self):
        groups = self._traced_groups()
        summary = format_span_summary(groups)
        assert "promotion" in summary
        assert "ops removed" in summary
        assert "loads removed" in summary

    def test_write_chrome_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        write_chrome_trace(out, self._traced_groups())
        assert json.loads(out.read_text())["traceEvents"]
