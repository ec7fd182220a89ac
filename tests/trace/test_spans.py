"""The span model: identity, nesting, adoption, sampling."""

import pickle

from repro.trace import (
    HeadSampler,
    SpanEvent,
    Trace,
    TraceContext,
    current_trace,
    new_trace_id,
    span,
    tracing,
)


class TestIdentity:
    def test_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)

    def test_span_ids_unique_across_traces_in_one_process(self):
        """Two concurrent traces must never mint the same span id — the
        counter is module-global, not per-Trace."""
        a = Trace("a", context=TraceContext(new_trace_id()))
        b = Trace("b", context=TraceContext(new_trace_id()))
        ids = {a.new_span_id(), b.new_span_id(), a.new_span_id()}
        assert len(ids) == 3

    def test_tracing_without_a_context_mints_identity(self):
        """There is one trace regime: a trace installed without a
        context mints its own trace id, and every span carries it."""
        with tracing() as trace:
            with span("outer"):
                with span("inner"):
                    pass
        outer = next(e for e in trace.events if e.name == "outer")
        inner = next(e for e in trace.events if e.name == "inner")
        assert len(trace.context.trace_id) == 16
        assert outer.trace_id == inner.trace_id == trace.context.trace_id
        assert outer.span_id and inner.span_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        data = outer.as_dict()
        for key in ("trace_id", "span_id", "parent_id", "worker",
                    "wall_start"):
            assert key in data

    def test_identified_trace_events_carry_identity(self):
        ctx = TraceContext(new_trace_id(), parent_id="parent-1")
        trace = Trace("req", context=ctx, worker="serve")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        outer = next(e for e in trace.events if e.name == "outer")
        inner = next(e for e in trace.events if e.name == "inner")
        assert outer.trace_id == inner.trace_id == ctx.trace_id
        assert outer.parent_id == "parent-1"  # roots under the context
        assert inner.parent_id == outer.span_id
        assert outer.worker == inner.worker == "serve"
        assert outer.wall_start is not None

    def test_event_dict_round_trip(self):
        ctx = TraceContext(new_trace_id())
        trace = Trace("t", context=ctx, worker="w0")
        with trace.span("work", answer=42):
            pass
        event = trace.events[0]
        assert SpanEvent.from_dict(event.as_dict()) == event


class TestContextPropagation:
    def test_context_dict_round_trip(self):
        ctx = TraceContext(new_trace_id(), parent_id="abc-1", sampled=True)
        assert TraceContext.from_dict(ctx.as_dict()) == ctx

    def test_context_survives_pickling(self):
        """The pool ships contexts over a multiprocessing pipe."""
        ctx = TraceContext(new_trace_id(), parent_id="abc-1")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_tracing_installs_and_restores_current(self):
        assert current_trace() is None
        with tracing("outer") as outer:
            assert current_trace() is outer
            with tracing("inner") as inner:
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None


class TestSpans:
    def test_module_level_span_is_noop_without_a_trace(self):
        with span("orphan") as extra:
            assert extra is None

    def test_exit_args_merge_into_the_event(self):
        trace = Trace("t", context=TraceContext(new_trace_id()))
        with trace.span("cache_lookup") as extra:
            extra["hit"] = True
        assert trace.events[0].args["hit"] is True

    def test_self_time_excludes_children(self):
        trace = Trace("t")
        with trace.span("parent"):
            with trace.span("child"):
                pass
        parent = next(e for e in trace.events if e.name == "parent")
        child = next(e for e in trace.events if e.name == "child")
        assert parent.self_seconds <= parent.seconds - child.seconds + 1e-6

    def test_add_event_records_retroactive_span(self):
        """Queue wait is measured at dequeue, after the fact."""
        import time

        ctx = TraceContext(new_trace_id())
        trace = Trace("req", context=ctx)
        t0 = time.perf_counter()
        minted = trace.new_span_id()
        event = trace.add_event(
            "queue_wait", start_perf=t0, seconds=0.25, span_id=minted,
            priority="normal",
        )
        assert event.seconds == 0.25
        assert event.span_id == minted
        assert event.parent_id is None  # no open span, no context parent
        assert event.args["priority"] == "normal"


class TestAdoption:
    def test_adopt_rebases_onto_wall_clock(self):
        """Worker spans merge into the server trace on the same timeline."""
        ctx = TraceContext(new_trace_id())
        parent = Trace("req", context=ctx, worker="serve")
        dispatch_id = parent.new_span_id()
        child = Trace(
            "cell",
            context=TraceContext(ctx.trace_id, parent_id=dispatch_id),
            worker="w0",
        )
        with child.span("compile"):
            pass
        shipped = [e.as_dict() for e in child.events]

        adopted = parent.adopt(shipped)
        assert len(adopted) == 1
        event = adopted[0]
        assert event.trace_id == ctx.trace_id
        assert event.parent_id == dispatch_id
        assert event.worker == "w0"
        # rebased start: the child began after the parent trace's epoch
        assert event.start >= 0.0
        assert event in parent.events


class TestHeadSampler:
    def test_rate_zero_never_samples(self):
        sampler = HeadSampler(0.0)
        assert not any(sampler.sample() for _ in range(200))

    def test_rate_one_always_samples(self):
        sampler = HeadSampler(1.0)
        assert all(sampler.sample() for _ in range(200))

    def test_fractional_rate_is_roughly_proportional(self):
        sampler = HeadSampler(0.25, seed=7)
        hits = sum(sampler.sample() for _ in range(2000))
        assert 350 < hits < 650
