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
    module_op_breakdown,
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
        assert trace.total_seconds() >= inner.seconds

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


class TestOpBreakdown:
    def test_breakdown_matches_op_count_minus_nops(self):
        from repro.frontend import compile_c
        from repro.ir.instructions import Nop

        module = compile_c(GOOD_SOURCE)
        breakdown = module_op_breakdown(module)
        nops = sum(
            1
            for func in module.functions.values()
            for instr in func.instructions()
            if isinstance(instr, Nop)
        )
        assert sum(breakdown.values()) == module_op_count(module) - nops

    def test_loop_program_has_loads_stores_and_branches(self):
        from repro.frontend import compile_c

        breakdown = module_op_breakdown(compile_c(GOOD_SOURCE))
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
