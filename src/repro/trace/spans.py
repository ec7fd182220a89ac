"""The span model: nested wall-clock spans with trace-context identity.

This module is the core of :mod:`repro.trace`.  A :class:`Trace`
records nested :func:`span`\\ s — one per compiler pass, plus ``parse``,
``execute``, and the serving layer's request lifecycle — and stamps
every one with ``trace_id`` / ``span_id`` / ``parent_id`` and an
absolute ``wall_start``.  That identity is what lets spans recorded in
a forked worker merge with the serving parent's spans into one
connected tree (see :meth:`Trace.adopt`).  A trace installed without a
context mints a fresh trace id, so every span has one.

The layer knows nothing about what it measures: callers attach their
own args (the pipeline adds per-function op counts to its pass spans).
It costs nothing when disabled: :func:`span` checks a module-level
current trace and yields immediately when none is installed, so the
pipeline can be instrumented unconditionally.  Spans additionally yield
a mutable dict — args discovered only at span *exit* (decision counts,
dynamic op totals) are merged into the event there.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "HeadSampler",
    "SpanEvent",
    "Trace",
    "TraceContext",
    "current_trace",
    "module_op_count",
    "new_trace_id",
    "span",
    "tracing",
]


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return os.urandom(8).hex()


# span ids are pid-qualified so they stay unique across the fork boundary,
# and drawn from one process-wide counter so concurrent traces in the same
# process (the async server handles many requests at once) never collide
_SPAN_IDS = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: what crosses process boundaries.

    ``trace_id`` names the whole request; ``parent_id`` is the span the
    receiving side should parent its top-level spans under (the sender's
    currently-open span).  The dict form is what travels inside worker
    job payloads across the fork boundary.
    """

    trace_id: str
    parent_id: str | None = None
    sampled: bool = True

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            parent_id=data.get("parent_id"),
            sampled=bool(data.get("sampled", True)),
        )


@dataclass
class SpanEvent:
    """One completed span.

    ``start`` is seconds since the owning trace began; ``seconds`` is the
    inclusive duration and ``self_seconds`` excludes time spent in child
    spans, so summing ``self_seconds`` over a trace never double-counts.
    An identity field is ``None`` only when there is nothing to name: a
    root span's ``parent_id``, a trace recorded with no ``worker``, or a
    span read from outside input that lacks the field.
    """

    name: str
    start: float
    seconds: float
    depth: int
    self_seconds: float
    args: dict[str, object] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    #: which process recorded this span ("serve", "w0", ...)
    worker: str | None = None
    #: absolute ``time.time()`` at span start — the cross-process timeline
    wall_start: float | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "depth": self.depth,
            "self_seconds": self.self_seconds,
            "args": dict(self.args),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "worker": self.worker,
            "wall_start": self.wall_start,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SpanEvent":
        wall_start = data.get("wall_start")
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            seconds=float(data["seconds"]),  # type: ignore[arg-type]
            depth=int(data["depth"]),  # type: ignore[arg-type]
            self_seconds=float(data["self_seconds"]),  # type: ignore[arg-type]
            args=dict(data.get("args", {})),  # type: ignore[arg-type]
            trace_id=data.get("trace_id"),  # type: ignore[arg-type]
            span_id=data.get("span_id"),  # type: ignore[arg-type]
            parent_id=data.get("parent_id"),  # type: ignore[arg-type]
            worker=data.get("worker"),  # type: ignore[arg-type]
            wall_start=float(wall_start) if wall_start is not None else None,  # type: ignore[arg-type]
        )


def module_op_count(module) -> int:
    """Static instruction count of a whole module, ``nop`` included."""
    return sum(
        1 for function in module.functions.values() for _ in function.instructions()
    )


class Trace:
    """An ordered collection of spans from one traced activity."""

    def __init__(
        self,
        name: str = "trace",
        context: TraceContext | None = None,
        worker: str | None = None,
    ) -> None:
        self.name = name
        self.context = context or TraceContext(new_trace_id())
        self.worker = worker
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self.events: list[SpanEvent] = []
        # one child-time accumulator per open span, plus a root slot
        self._child_time: list[float] = [0.0]
        #: span ids of currently-open spans, outermost first
        self._open_ids: list[str] = []

    def new_span_id(self) -> str:
        """A span id unique across the fork boundary (pid-qualified)."""
        return f"{os.getpid():x}-{next(_SPAN_IDS):x}"

    def open_parent_id(self) -> str | None:
        """The id new spans would be parented under right now."""
        if self._open_ids:
            return self._open_ids[-1]
        return self.context.parent_id

    def _event(
        self,
        name: str,
        start: float,
        seconds: float,
        depth: int,
        self_seconds: float,
        args: dict[str, object],
        span_id: str,
        parent_id: str | None,
    ) -> SpanEvent:
        """Record one event at ``start`` (a ``perf_counter`` reading)."""
        event = SpanEvent(
            name=name,
            start=start - self.epoch,
            seconds=seconds,
            depth=depth,
            self_seconds=self_seconds,
            args=args,
            trace_id=self.context.trace_id,
            span_id=span_id,
            parent_id=parent_id,
            worker=self.worker,
            wall_start=self.wall_epoch + (start - self.epoch),
        )
        self.events.append(event)
        return event

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[dict]:
        """Record one live span; yields a dict for exit-time args."""
        depth = len(self._child_time) - 1
        self._child_time.append(0.0)
        sid = self.new_span_id()
        parent = self.open_parent_id()
        self._open_ids.append(sid)
        extra: dict[str, object] = {}
        start = time.perf_counter()
        try:
            yield extra
        finally:
            seconds = time.perf_counter() - start
            child_time = self._child_time.pop()
            self._child_time[-1] += seconds
            self._open_ids.pop()
            # a block may ask for its own self time to be booked as an
            # explicit child (``extra["frame_gap"] = name``): the gap is
            # derived from the same clock read as ``seconds``, so no
            # scheduling hiccup between a measurement and the span close
            # can leave unattributed time — this is how the serving layer
            # keeps a traced request's span coverage at ~100% regardless
            # of machine load
            gap_name = extra.pop("frame_gap", None)
            if gap_name is not None and seconds > child_time:
                gap = seconds - child_time
                self._event(
                    str(gap_name), start, gap, depth + 1, gap, {},
                    self.new_span_id(), sid,
                )
                child_time = seconds
            self._event(
                name, start, seconds, depth, max(0.0, seconds - child_time),
                {**args, **extra}, sid, parent,
            )

    def add_event(
        self,
        name: str,
        *,
        start_perf: float,
        seconds: float,
        span_id: str | None = None,
        parent_id: str | None = None,
        **args: object,
    ) -> SpanEvent:
        """Record an already-elapsed span (e.g. queue wait measured at
        dequeue).  It is attributed as a child of the innermost open span
        for self-time accounting."""
        self._child_time[-1] += seconds
        return self._event(
            name, start_perf, seconds, len(self._child_time) - 1, seconds,
            dict(args), span_id or self.new_span_id(),
            parent_id or self.open_parent_id(),
        )

    def adopt(self, span_dicts: list[dict]) -> list[SpanEvent]:
        """Merge spans recorded in another process into this trace.

        Each adopted span's ``start`` is re-based onto this trace's
        timeline through its absolute ``wall_start`` (the processes share
        a clock — the fork boundary is on one host), and its depth is
        shifted under the innermost open span.
        """
        base_depth = len(self._child_time) - 1
        adopted = []
        for data in span_dicts:
            event = SpanEvent.from_dict(data)
            if event.wall_start is not None:
                event.start = event.wall_start - self.wall_epoch
            event.depth += base_depth
            self.events.append(event)
            adopted.append(event)
        return adopted


_CURRENT: Trace | None = None


def current_trace() -> Trace | None:
    return _CURRENT


@contextmanager
def tracing(
    name: str = "trace",
    context: TraceContext | None = None,
    worker: str | None = None,
) -> Iterator[Trace]:
    """Install a fresh trace as the current one for the duration."""
    global _CURRENT
    previous = _CURRENT
    trace = Trace(name, context=context, worker=worker)
    _CURRENT = trace
    try:
        yield trace
    finally:
        _CURRENT = previous


#: ``span``'s default ``trace``: whatever trace is current when it opens
_CURRENT_TRACE = object()


@contextmanager
def span(name: str, *, trace=_CURRENT_TRACE, **args: object) -> Iterator[dict | None]:
    """Record a span on ``trace`` (default: the current trace); a free
    no-op when that is ``None``.

    Yields the span's mutable exit-args dict (``None`` when tracing is
    off) so instrumentation can attach values computed inside the span.
    """
    if trace is _CURRENT_TRACE:
        trace = _CURRENT
    if trace is None:
        yield None
        return
    with trace.span(name, **args) as extra:
        yield extra


class HeadSampler:
    """Head-based sampling: decide at admission, propagate everywhere.

    ``rate`` is the fraction of requests traced: 0 disables, 1 traces
    everything.  A dedicated :class:`random.Random` keeps the decision
    stream independent of application randomness (and seedable in tests).
    """

    def __init__(self, rate: float, seed: int | None = None) -> None:
        self.rate = max(0.0, min(1.0, float(rate)))
        self._rng = random.Random(seed)

    def sample(self) -> bool:
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return self._rng.random() < self.rate
