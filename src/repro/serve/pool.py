"""Serving pool: warm :mod:`repro.runner.pool` workers behind the
admission queue.

The workers (spawn, deadlines, kill-and-reap, shutdown) are the
runner's; this module adds what is serve-specific.  Each worker gets a
memory-only :class:`~repro.inccomp.FunctionStore` memo, so a request
that misses its compile cache still reuses every optimized function
body an earlier request produced.  A worker is recycled after
``recycle_after`` requests; a crashed one is replaced and its request
retried once, then failed with ``worker_crashed``; a deadline firing
mid-cell kills and replaces it.  Chaos hooks and dispatch spans live
here too.

Each pool slot runs one asyncio *driver* task: pull a ticket from the
admission queue, ship the job over the worker's pipe, await the reply in
an executor thread (bounded by the ticket's remaining deadline), settle
the ticket's future.  Drain = close the queue; drivers finish their
in-flight ticket, shut their worker down gracefully, and exit.
"""

from __future__ import annotations

import asyncio
import time

from ..diag.log import get_logger
from ..diag.metrics import MetricsRegistry
from ..inccomp import FunctionStore
from ..runner.pool import Worker, WorkerLost
from .queue import AdmissionQueue, Ticket

_log = get_logger(__name__)

__all__ = ["WorkerPool"]

#: default requests handled before a worker is recycled
DEFAULT_RECYCLE_AFTER = 200

#: crash retries per request ("retried once then failed cleanly")
CRASH_RETRIES = 1


class _Slot:
    """A pool position: the current worker + driver-task bookkeeping."""

    def __init__(self, index: int, worker: Worker) -> None:
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
        metrics: MetricsRegistry | None = None,
        chaos=None,
        on_replace=None,
    ) -> None:
        self.queue = queue
        self.size = max(1, size)
        self.recycle_after = max(1, recycle_after)
        # an empty registry is falsy (``__len__``), so test identity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
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

    def _spawn(self, index: int) -> Worker:
        """Spawn one worker, applying a ``pool.slow_start`` fault if the
        plan decides one for this slot's spawn."""
        slow_start_s = 0.0
        if self.chaos is not None:
            fault = self.chaos.decide("pool.slow_start", f"w{index}")
            if fault is not None:
                slow_start_s = fault.delay_s
                self.metrics.inc("chaos.injected.pool.slow_start")
        worker = Worker(index, FunctionStore(root=None), slow_start_s)
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
                self.metrics.observe("serve.queue_wait", queue_wait)
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
            if not worker.send(job):
                # died while idle: not an execution attempt, just respawn
                self._replace(slot, reason="idle_crash", trace=ticket.trace)
                continue
            ticket.attempts += 1
            try:
                reply = await loop.run_in_executor(
                    None, worker.reply, ticket.remaining()
                )
            except WorkerLost as lost:
                # the worker is already killed and reaped: replace it
                self._replace(slot, reason=lost.reason, trace=ticket.trace)
                record_dispatch(outcome=lost.reason)
                if lost.reason == "deadline_kill":
                    ticket.fail(
                        "deadline_exceeded",
                        f"deadline fired mid-cell after attempt "
                        f"{ticket.attempts}; worker killed and respawned",
                    )
                    return
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

    async def wait_recycled(self, count: int = 1, timeout: float = 10.0) -> None:
        await self.wait_until(
            lambda: sum(slot.recycles for slot in self.slots) >= count, timeout
        )

    async def wait_restarted(self, count: int = 1, timeout: float = 10.0) -> None:
        await self.wait_until(
            lambda: sum(slot.restarts for slot in self.slots) >= count, timeout
        )
