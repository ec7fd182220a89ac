"""Persistent worker pool: warm processes executing scheduler cells.

The one-shot CLI pays interpreter start-up, module imports, and compile
time on every invocation.  Workers here are long-lived
:mod:`multiprocessing` processes that amortize all three:

* imports happen once per worker lifetime;
* each worker keeps a ``compile_cache`` dict (keyed by
  :func:`repro.runner.scheduler.compile_memo_key`) so repeat requests
  for the same source/options reuse the compiled module — and with it
  the interpreter's generated code, which lives on the
  :class:`~repro.ir.module.Module`;
* below that, a memory-only :class:`~repro.inccomp.FunctionStore` memo
  makes *cold* requests incremental: a request whose source misses
  ``compile_cache`` still reuses every per-function optimized body whose
  content key matches an earlier request (see :mod:`repro.inccomp`);
* the request unit is exactly the scheduler's cell
  (:func:`repro.runner.scheduler.execute_cell`), so serving and the
  batch runner share semantics, metrics, and cache keys.

Lifecycle invariants (the parts the tests pin down):

* a worker is **recycled** (graceful shutdown + fresh spawn) after
  ``recycle_after`` requests, bounding memory growth of the warm caches;
* a worker that **crashes** mid-request (segfault, ``kill -9``) is
  killed/joined — never left as a zombie — and respawned; the in-flight
  request is retried once on the fresh worker, then failed cleanly with
  ``worker_crashed`` while the pool keeps serving;
* when a request **deadline fires mid-cell** the worker is killed and
  reaped immediately (the cell cannot be cancelled cooperatively —
  unlike the batch scheduler we never abandon a hot worker to its
  ``max_steps`` fuel) and a replacement is spawned before the next
  ticket is picked up.

Each pool slot runs one asyncio *driver* task: pull a ticket from the
admission queue, ship the job over the worker's pipe, await the reply in
an executor thread (bounded by the ticket's remaining deadline), settle
the ticket's future.  Drain = close the queue; drivers finish their
in-flight ticket, shut their worker down gracefully, and exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import stat
import time
import traceback

from ..diag.log import current_verbosity, get_logger, set_log_context
from .metrics import ServeMetrics
from .queue import AdmissionQueue, Ticket

_log = get_logger(__name__)

__all__ = ["WorkerPool", "worker_main"]

#: default requests handled before a worker is recycled
DEFAULT_RECYCLE_AFTER = 200

#: crash retries per request ("retried once then failed cleanly")
CRASH_RETRIES = 1

_JOIN_TIMEOUT = 5.0


# --------------------------------------------------------------------------
# child side


@contextlib.contextmanager
def _maybe_tracing(name: str, trace_ctx, worker_label: str):
    """Trace the job only when the requester sent a context — untraced
    requests keep the original zero-instrumentation path."""
    if trace_ctx is None:
        yield None
        return
    from ..trace import tracing

    with tracing(name, context=trace_ctx, worker=worker_label) as trace:
        yield trace


def _handle_job(
    job: dict,
    compile_cache: dict,
    worker_index: int = 0,
    fn_store=None,
) -> dict:
    """Execute one job inside the worker process.

    A ``trace_ctx`` dict in the job joins this execution to the
    requesting side's trace: spans recorded here carry its trace id, are
    parented under the parent's dispatch span, and travel back in the
    reply as ``trace_spans`` for the server to adopt.
    """
    kind = job["kind"]
    ctx_data = job.get("trace_ctx")
    trace_ctx = None
    if ctx_data is not None:
        from ..trace import TraceContext

        trace_ctx = TraceContext.from_dict(ctx_data)
    worker_label = f"w{worker_index}"
    if kind == "cell":
        from ..runner.scheduler import execute_cell

        spec = job["spec"]
        cell = execute_cell(
            spec,
            compile_cache=compile_cache,
            trace_ctx=trace_ctx,
            trace_worker=worker_label,
            fn_store=fn_store,
        )
        result = {
            "workload": cell.workload,
            "variant": cell.variant,
            "cell": cell.cache_payload(),
        }
        if trace_ctx is not None:
            result["trace_spans"] = cell.trace_events
        return result
    if kind == "compile":
        from ..ir.printer import format_module
        from ..pipeline import compile_source

        with _maybe_tracing("compile", trace_ctx, worker_label) as trace:
            compiled = compile_source(
                job["source"],
                job["options"],
                name=job.get("name", "request"),
                defines=job.get("defines") or None,
                fn_store=fn_store,
            )
        reports = list(compiled.promotion_reports.values())
        tags = (
            set().union(*(r.promoted_tags for r in reports)) if reports else set()
        )
        result = {
            "variant": job["options"].variant_name(),
            "il": format_module(compiled.module),
            "promotion": {
                "tags_promoted": len(tags),
                "references_rewritten": sum(
                    r.references_rewritten for r in reports
                ),
                "loads_inserted": sum(r.loads_inserted for r in reports),
                "stores_inserted": sum(r.stores_inserted for r in reports),
            },
        }
        if trace_ctx is not None:
            result["trace_spans"] = [e.as_dict() for e in trace.events]
        return result
    if kind == "explain":
        from ..diag.ledger import decision_ledger
        from ..pipeline import compile_source

        with _maybe_tracing("explain", trace_ctx, worker_label) as trace:
            with decision_ledger() as ledger:
                compile_source(
                    job["source"],
                    job["options"],
                    name=job.get("name", "request"),
                    defines=job.get("defines") or None,
                    fn_store=fn_store,
                )
        filters = job.get("filters") or {}
        decisions = ledger.query(**filters)
        result = {
            "count": len(decisions),
            "decisions": [decision.as_dict() for decision in decisions],
        }
        if trace_ctx is not None:
            result["trace_spans"] = [e.as_dict() for e in trace.events]
        return result
    raise ValueError(f"unknown job kind {kind!r}")


def _close_inherited_sockets(keep_fd: int) -> None:
    """Close every socket fd a forked child inherited except ``keep_fd``.

    Only sockets: the parent's listening socket and accepted client
    connections are the fds whose inherited dups change kernel-visible
    behaviour (no FIN on close, port staying bound after parent death).
    Pipes and the event loop's epoll fd are inert in the child.  The job
    pipe itself is a Unix socketpair, hence the explicit keep.
    """
    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - no procfs (non-Linux POSIX)
        return
    for name in fd_names:
        fd = int(name)
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # pragma: no cover - raced with the listdir
            continue


def worker_main(
    conn,
    worker_index: int = 0,
    verbosity: int | None = None,
    slow_start_s: float = 0.0,
) -> None:
    """Child entry point: serve jobs from the pipe until told to stop.

    ``verbosity`` is the parent's global ``-v/-vv/-q`` level at spawn
    time; worker records are re-formatted with the worker id and the
    trace id of the job in flight (``-`` when untraced).
    ``slow_start_s`` is the chaos layer's ``pool.slow_start`` fault: the
    worker sleeps that long before serving its first job.
    """
    # the server handles SIGINT/SIGTERM itself and drains; a stray
    # terminal Ctrl-C must not take the workers down mid-cell
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a fork-context child inherits every parent fd, including live TCP
    # connections: while this worker is alive, a connection the server
    # closes would never FIN (the child's dup keeps it open) and the
    # client would wait forever.  Drop everything except the job pipe.
    _close_inherited_sockets(keep_fd=conn.fileno())
    from ..diag.log import setup_worker_logging

    setup_worker_logging(worker_index, verbosity)
    if slow_start_s > 0:
        time.sleep(slow_start_s)
    # pre-import the execution stack while the worker is still idle so
    # the first job it handles (and its trace) doesn't pay module load
    from ..runner import scheduler  # noqa: F401

    compile_cache: dict = {}
    # the per-function warm memo: requests that share any function body
    # with an earlier request (same key, any module) skip re-optimizing
    # it, which is most of a cold request's compile cost.  Memory-only
    # and bounded; recycled with the worker like compile_cache.
    from ..inccomp import FunctionStore

    fn_store = FunctionStore(root=None)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:  # graceful shutdown / recycle sentinel
            break
        ctx = job.get("trace_ctx") if isinstance(job, dict) else None
        set_log_context(trace_id=ctx["trace_id"] if ctx else "-")
        try:
            chaos = job.pop("_chaos", None) if isinstance(job, dict) else None
            if chaos is not None:
                from ..chaos.inject import enact_worker_fault

                # crash shapes never return; hang sleeps until the
                # parent's deadline reaper kills this process
                enact_worker_fault(
                    chaos,
                    lambda: _handle_job(job, compile_cache, worker_index, fn_store),
                )
            result = _handle_job(job, compile_cache, worker_index, fn_store)
            reply = {"ok": True, "result": result}
        except Exception as error:
            from ..errors import ReproError

            code = "cell_failed" if isinstance(error, ReproError) else "internal"
            message = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            reply = {"ok": False, "error": {"code": code, "message": message}}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# --------------------------------------------------------------------------
# parent side


def _default_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _consume_exception(future) -> None:
    """Swallow exceptions of abandoned recv futures (killed workers)."""
    if not future.cancelled():
        future.exception()


class _WorkerHandle:
    """One child process plus its parent-side pipe end."""

    def __init__(self, ctx, index: int = 0, slow_start_s: float = 0.0) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        # capture the parent's -v/-vv/-q level at spawn so the child
        # re-applies it after the fork
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, index, current_verbosity(), slow_start_s),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.handled = 0
        self.started_at = time.monotonic()

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL + join: the worker is dead *and reaped* on return."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_TIMEOUT)
        self.conn.close()

    def shutdown(self) -> None:
        """Graceful stop: sentinel, bounded join, kill as last resort."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_TIMEOUT)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(_JOIN_TIMEOUT)
        self.conn.close()


class _Slot:
    """A pool position: the current worker + driver-task bookkeeping."""

    def __init__(self, index: int, worker: _WorkerHandle) -> None:
        self.index = index
        self.worker = worker
        self.busy = False
        self.restarts = 0
        self.recycles = 0


class WorkerPool:
    """``size`` slots driving workers off one :class:`AdmissionQueue`."""

    def __init__(
        self,
        queue: AdmissionQueue,
        *,
        size: int = 2,
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
        metrics: ServeMetrics | None = None,
        mp_context=None,
        chaos=None,
        on_replace=None,
    ) -> None:
        self.queue = queue
        self.size = max(1, size)
        self.recycle_after = max(1, recycle_after)
        self.metrics = metrics or ServeMetrics()
        self.ctx = mp_context or _default_context()
        self.slots: list[_Slot] = []
        self._drivers: list[asyncio.Task] = []
        self._hard_stop = False
        #: optional :class:`repro.chaos.FaultPlan`; every hook below is
        #: behind ``chaos is not None`` so a plain pool pays nothing
        self.chaos = chaos
        #: ``on_replace(reason, trace)`` fires after a worker is killed
        #: and respawned — the server uses it to dump a flight bundle
        #: per crash
        self.on_replace = on_replace
        #: every worker pid this pool ever spawned — the soak harness's
        #: leak check walks this after drain
        self.spawned_pids: set[int] = set()
        self._state_waiters: list[tuple[object, asyncio.Future]] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.slots = [
            _Slot(index, self._spawn(index)) for index in range(self.size)
        ]
        self._drivers = [
            asyncio.create_task(self._drive(slot), name=f"serve-worker-{slot.index}")
            for slot in self.slots
        ]
        self._update_gauges()

    def _spawn(self, index: int) -> _WorkerHandle:
        """Spawn one worker, applying a ``pool.slow_start`` fault if the
        plan decides one for this slot's spawn."""
        slow_start_s = 0.0
        if self.chaos is not None:
            fault = self.chaos.decide("pool.slow_start", f"w{index}")
            if fault is not None:
                slow_start_s = fault.delay_s
                self.metrics.inc("chaos.injected.pool.slow_start")
        worker = _WorkerHandle(self.ctx, index, slow_start_s)
        self.spawned_pids.add(worker.pid)
        return worker

    async def drain(self) -> None:
        """Finish in-flight work, shut every worker down, return."""
        self.queue.close()
        if self._drivers:
            await asyncio.gather(*self._drivers, return_exceptions=True)

    async def stop(self) -> None:
        """Hard stop: fail queued work, kill workers, cancel drivers."""
        self._hard_stop = True
        self.queue.close()
        self.queue.fail_pending("draining", "server shut down")
        for driver in self._drivers:
            driver.cancel()
        if self._drivers:
            await asyncio.gather(*self._drivers, return_exceptions=True)
        for slot in self.slots:
            slot.worker.kill()

    def describe(self) -> list[dict]:
        """Per-worker health facts for the ``health`` endpoint."""
        return [
            {
                "pid": slot.worker.pid,
                "busy": slot.busy,
                "handled": slot.worker.handled,
                "restarts": slot.restarts,
                "recycles": slot.recycles,
                "alive": slot.worker.alive(),
            }
            for slot in self.slots
        ]

    @property
    def busy_count(self) -> int:
        return sum(1 for slot in self.slots if slot.busy)

    # -- the driver loop ---------------------------------------------------

    async def _drive(self, slot: _Slot) -> None:
        try:
            while True:
                ticket = await self.queue.get()
                if ticket is None:
                    break
                slot.busy = True
                self._update_gauges()
                self._notify_state()
                queue_wait = time.monotonic() - ticket.enqueued_at
                self.metrics.observe_queue_wait(queue_wait)
                if ticket.trace is not None:
                    ticket.trace.add_event(
                        "queue_wait",
                        start_perf=ticket.enqueued_perf,
                        seconds=queue_wait,
                        priority=ticket.priority,
                    )
                try:
                    await self._execute(slot, ticket)
                finally:
                    slot.busy = False
                    self._update_gauges()
                    self._notify_state()
                if slot.worker.handled >= self.recycle_after:
                    self._recycle(slot)
        except asyncio.CancelledError:
            raise
        finally:
            # on hard stop the pool kills workers itself; a bounded join
            # here would stall the event loop during cancellation
            if not self._hard_stop:
                slot.worker.shutdown()

    async def _execute(self, slot: _Slot, ticket: Ticket) -> None:
        loop = asyncio.get_running_loop()
        while True:
            worker = slot.worker
            job = ticket.job
            dispatch_id = None
            dispatch_start = time.perf_counter()
            if ticket.trace is not None:
                # the dispatch span id is minted *before* the send so the
                # worker can parent its spans under it; the span itself is
                # recorded retroactively once the reply (or failure) lands
                dispatch_id = ticket.trace.new_span_id()
                job = dict(job)
                job["trace_ctx"] = {
                    "trace_id": ticket.trace.context.trace_id,
                    "parent_id": dispatch_id,
                }

            def record_dispatch(**args: object) -> None:
                if ticket.trace is not None:
                    ticket.trace.add_event(
                        "dispatch",
                        start_perf=dispatch_start,
                        seconds=time.perf_counter() - dispatch_start,
                        span_id=dispatch_id,
                        worker=slot.index,
                        pid=worker.pid,
                        attempt=ticket.attempts,
                        **args,
                    )

            if self.chaos is not None and ticket.chaos_token is not None:
                # each attempt consults the plan afresh (the occurrence
                # counter advances), so a retry's fate is also seeded
                delay = self.chaos.decide(
                    "server.dispatch_delay", ticket.chaos_token
                )
                if delay is not None:
                    self.metrics.inc("chaos.injected.server.dispatch_delay")
                    await asyncio.sleep(delay.delay_s)
                fault = self._worker_fault(ticket.chaos_token)
                if fault is not None:
                    self.metrics.inc(f"chaos.injected.{fault.site}")
                    job = dict(job)
                    job["_chaos"] = fault.worker_payload()
            try:
                worker.conn.send(job)
            except (BrokenPipeError, OSError):
                # died while idle: not an execution attempt, just respawn
                self._replace(slot, reason="idle_crash", trace=ticket.trace)
                continue
            ticket.attempts += 1
            recv = loop.run_in_executor(None, worker.conn.recv)
            recv.add_done_callback(_consume_exception)
            try:
                reply = await asyncio.wait_for(
                    asyncio.shield(recv), ticket.remaining()
                )
            except asyncio.TimeoutError:
                # deadline fired mid-cell: kill the worker (don't leak it,
                # don't let the cell burn CPU to its max_steps fuel)
                self._replace(slot, reason="deadline_kill", trace=ticket.trace)
                record_dispatch(outcome="deadline_kill")
                ticket.fail(
                    "deadline_exceeded",
                    f"deadline fired mid-cell after attempt {ticket.attempts}; "
                    "worker killed and respawned",
                )
                return
            except (EOFError, OSError, BrokenPipeError):
                self._replace(slot, reason="crash", trace=ticket.trace)
                record_dispatch(outcome="crash")
                if ticket.attempts <= CRASH_RETRIES and not ticket.expired():
                    _log.warning(
                        "worker crashed mid-request (attempt %d); retrying "
                        "on a fresh worker", ticket.attempts,
                    )
                    continue
                ticket.fail(
                    "worker_crashed",
                    f"worker died {ticket.attempts} time(s) on this request",
                )
                return
            worker.handled += 1
            record_dispatch(outcome="ok" if reply.get("ok") else "error")
            if reply.get("ok"):
                ticket.fulfil(reply["result"])
            else:
                error = reply.get("error", {})
                ticket.fail(
                    error.get("code", "internal"),
                    error.get("message", "worker reported no detail"),
                )
            return

    def _worker_fault(self, token: str):
        """First worker-enactable fault the plan decides for this attempt."""
        for site in (
            "pool.crash_before",
            "pool.crash_during",
            "pool.crash_after",
            "pool.hang",
        ):
            fault = self.chaos.decide(site, token)
            if fault is not None:
                return fault
        return None

    # -- worker replacement ------------------------------------------------

    def _replace(self, slot: _Slot, reason: str, trace=None) -> None:
        slot.worker.kill()
        slot.restarts += 1
        self.metrics.inc("serve.worker_restarts")
        self.metrics.inc(f"serve.worker_restarts.{reason}")
        _log.info(
            "worker %d (pid %s) replaced: %s",
            slot.index, slot.worker.pid, reason,
        )
        slot.worker = self._spawn(slot.index)
        if self.on_replace is not None:
            self.on_replace(reason, trace)
        self._notify_state()

    def _recycle(self, slot: _Slot) -> None:
        slot.worker.shutdown()
        slot.recycles += 1
        self.metrics.inc("serve.worker_recycles")
        _log.info(
            "worker %d recycled after %d request(s)",
            slot.index, self.recycle_after,
        )
        slot.worker = self._spawn(slot.index)
        self._notify_state()

    def _update_gauges(self) -> None:
        self.metrics.set_gauge("serve.queue_depth", self.queue.depth)
        self.metrics.set_gauge("serve.workers_busy", self.busy_count)

    # -- event-driven state waiters ----------------------------------------
    #
    # Tests (and the soak harness) used to poll ``slot.busy`` /
    # ``slot.recycles`` in 10ms sleep loops — the main source of flakes
    # under CI load.  Every state transition above now wakes these
    # waiters, so "wait until a worker is busy" is one await with no
    # wall-clock guessing.

    def _notify_state(self) -> None:
        if not self._state_waiters:
            return
        remaining = []
        for predicate, future in self._state_waiters:
            if future.done():
                continue
            if predicate():
                future.set_result(None)
            else:
                remaining.append((predicate, future))
        self._state_waiters = remaining

    async def wait_until(self, predicate, timeout: float = 10.0) -> None:
        """Await ``predicate()`` becoming true at a pool state change."""
        if predicate():
            return
        future = asyncio.get_running_loop().create_future()
        self._state_waiters.append(future_entry := (predicate, future))
        try:
            await asyncio.wait_for(future, timeout)
        finally:
            if future_entry in self._state_waiters:
                self._state_waiters.remove(future_entry)

    async def wait_busy(self, count: int = 1, timeout: float = 10.0) -> None:
        await self.wait_until(lambda: self.busy_count >= count, timeout)

    async def wait_idle(self, timeout: float = 10.0) -> None:
        await self.wait_until(lambda: self.busy_count == 0, timeout)

    async def wait_recycled(self, count: int = 1, timeout: float = 10.0) -> None:
        await self.wait_until(
            lambda: sum(slot.recycles for slot in self.slots) >= count, timeout
        )

    async def wait_restarted(self, count: int = 1, timeout: float = 10.0) -> None:
        await self.wait_until(
            lambda: sum(slot.restarts for slot in self.slots) >= count, timeout
        )
