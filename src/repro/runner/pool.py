"""Worker processes: the one place that starts, feeds and kills them.

``run_cells(jobs > 1)`` and the pooled fuzz campaign drive them through
:func:`fan_out`, and :class:`repro.serve.pool.WorkerPool` drives them
from asyncio.  A worker is a long-lived forked process that serves jobs
from a duplex pipe until it reads the ``None`` sentinel.  It runs
``cell``, ``compile`` and ``explain`` jobs and judges ``oracle`` jobs
(one fuzz program each), compiling through the
:class:`~repro.inccomp.FunctionStore` it was spawned with.  Cell jobs
marked ``share_compile`` (serve's) also share a memo of compiled modules
(keyed by :func:`~repro.runner.scheduler.compile_memo_key`) that lives
as long as the worker.  It answers every job with
``{"ok": True, "result": ...}`` or
``{"ok": False, "error": {"code": ..., "message": ...}}``.

A reply is awaited with a deadline.  A cell cannot be cancelled
cooperatively, so when the deadline passes the worker is SIGKILLed and
joined at once, never left to burn a core until its ``max_steps`` fuel
runs out.  A worker that dies mid-job is reaped too, and only the job it
held is affected.  Either loss raises :class:`WorkerLost`; the caller
spawns a replacement.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import stat
import time
import traceback
from collections import deque
from multiprocessing.connection import wait
from typing import Callable

from ..diag.ledger import filter_decisions
from ..diag.log import current_verbosity, set_log_context
from ..errors import ReproError
from ..ir.printer import format_module
from ..pipeline import compile_source
from ..trace import TraceContext, tracing

__all__ = ["Worker", "WorkerLost", "describe_error", "fan_out"]

_JOIN_TIMEOUT = 5.0


def describe_error(error: BaseException) -> str:
    """One line naming a failed job's error, inside a worker or not."""
    if isinstance(error, ReproError):
        return f"{type(error).__name__}: {error}"
    return "".join(traceback.format_exception_only(type(error), error)).strip()


# --------------------------------------------------------------------------
# child side


@contextlib.contextmanager
def _maybe_tracing(name: str, trace_ctx, worker_label: str):
    """Trace the job only when the requester sent a context — untraced
    requests keep the original zero-instrumentation path."""
    if trace_ctx is None:
        yield None
        return
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
    reply as ``trace_spans`` for the server to adopt.  A cell job's
    ``collect_trace`` returns its plain per-pass spans the same way, and
    ``share_compile=True`` lets it use and fill ``compile_cache``.
    """
    kind = job["kind"]
    ctx_data = job.get("trace_ctx")
    trace_ctx = TraceContext.from_dict(ctx_data) if ctx_data is not None else None
    worker_label = f"w{worker_index}"
    if kind == "cell":
        from .scheduler import execute_cell

        spec = job["spec"]
        collect_trace = job.get("collect_trace", False)
        cell = execute_cell(
            spec,
            collect_trace,
            compile_cache=compile_cache if job.get("share_compile") else None,
            trace_ctx=trace_ctx,
            trace_worker=worker_label,
            fn_store=fn_store,
        )
        result = {
            "workload": cell.workload,
            "variant": cell.variant,
            "cell": cell.cache_payload(),
        }
        if trace_ctx is not None or collect_trace:
            result["trace_spans"] = cell.trace_events
        return result
    if kind == "oracle":
        from ..fuzz.oracle import run_oracle

        return run_oracle(job["program"], job["config"], fn_store=fn_store)
    if kind not in ("compile", "explain"):
        raise ValueError(f"unknown job kind {kind!r}")
    with _maybe_tracing(kind, trace_ctx, worker_label) as trace:
        compiled = compile_source(
            job["source"],
            job["options"],
            name=job.get("name", "request"),
            defines=job.get("defines") or None,
            fn_store=fn_store,
        )
    if kind == "explain":
        decisions = filter_decisions(
            compiled.decisions, **(job.get("filters") or {})
        )
        result = {
            "count": len(decisions),
            "decisions": [decision.as_dict() for decision in decisions],
        }
    else:
        # promotion totals are compile metrics, absent without promotion
        metric = compiled.metrics.get
        result = {
            "variant": job["options"].variant_name(),
            "il": format_module(compiled.module),
            "promotion": {
                "tags_promoted": metric("promotion.tags_promoted", 0),
                "references_rewritten": metric("promotion.refs_rewritten", 0),
                "loads_inserted": metric("promotion.loads_inserted", 0),
                "stores_inserted": metric("promotion.stores_inserted", 0),
            },
        }
    if trace_ctx is not None:
        result["trace_spans"] = [e.as_dict() for e in trace.events]
    return result


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
    fn_store=None,
) -> None:
    """Child entry point: serve jobs from the pipe until told to stop.

    ``verbosity`` is the parent's global ``-v/-vv/-q`` level at spawn
    time; worker records are re-formatted with the worker id and the
    trace id of the job in flight (``-`` when untraced).
    ``slow_start_s`` is the chaos layer's ``pool.slow_start`` fault: the
    worker sleeps that long before serving its first job.
    """
    # the parent owns shutdown (serve drains on SIGINT/SIGTERM, the
    # runner kills its workers on the way out); a stray terminal Ctrl-C
    # must not take the workers down mid-cell
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
    from . import scheduler  # noqa: F401

    compile_cache: dict = {}
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
            code = "cell_failed" if isinstance(error, ReproError) else "internal"
            reply = {
                "ok": False,
                "error": {"code": code, "message": describe_error(error)},
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# --------------------------------------------------------------------------
# parent side


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


class WorkerLost(Exception):
    """A job got no reply: the worker died (``reason="crash"``) or its
    deadline passed (``reason="deadline_kill"``).  Either way the worker
    is dead and reaped."""

    def __init__(self, reason: str, exitcode: int | None) -> None:
        super().__init__(f"{reason} (exit code {exitcode})")
        self.reason = reason


class Worker:
    """One child process plus its parent-side pipe end."""

    def __init__(
        self, index: int = 0, fn_store=None, slow_start_s: float = 0.0
    ) -> None:
        ctx = _context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.index = index
        # capture the parent's -v/-vv/-q level at spawn so the child
        # re-applies it after the fork
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, index, current_verbosity(), slow_start_s, fn_store),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.handled = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, job) -> bool:
        """Hand the worker a job; False when it had died while idle (no
        attempt was made: replace the worker and send again)."""
        try:
            self.conn.send(job)
        except (BrokenPipeError, OSError):
            return False
        return True

    def reply(self, timeout: float | None = None) -> dict:
        """The reply to the job in flight, waiting at most ``timeout``
        seconds (``None``: no deadline).  Raises :class:`WorkerLost`,
        after killing and reaping the worker, when none comes."""
        try:
            if self.conn.poll(timeout):
                reply = self.conn.recv()
                self.handled += 1
                return reply
            reason = "deadline_kill"
        except (EOFError, OSError):
            reason = "crash"
        self.kill()
        raise WorkerLost(reason, self.process.exitcode)

    def kill(self) -> None:
        """SIGKILL + join: the worker is dead *and reaped* on return."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_JOIN_TIMEOUT)
        self.conn.close()

    def shutdown(self) -> None:
        """Graceful stop: sentinel, bounded join, kill as last resort."""
        self.send(None)
        self.process.join(_JOIN_TIMEOUT)
        self.kill()


def fan_out(
    jobs: list,
    size: int,
    *,
    settle: Callable[..., bool],
    timeout: float | None = None,
    fn_store=None,
) -> None:
    """Run ``jobs`` on up to ``size`` workers spawned for this call,
    driven from this thread over :func:`multiprocessing.connection.wait`.

    A job's ``timeout`` budget starts when a worker picks it up.  Every
    attempt ends in ``settle(job, outcome, seconds)``, where ``outcome``
    is the worker's reply or the :class:`WorkerLost` that ended it (which
    touches no other job); True queues the job again.  No worker
    outlives the call, whether or not it raises.
    """
    queue = deque(jobs)
    idle: list[Worker] = []
    # pool positions without a live worker: spawned lazily, so a loss
    # near the end of the batch costs no needless respawn
    vacant = list(range(min(size, len(queue))))
    busy: dict = {}  # conn -> (worker, job, started)
    try:
        while queue or busy:
            while queue and (idle or vacant):
                worker = idle.pop() if idle else Worker(vacant.pop(), fn_store)
                job = queue.popleft()
                if not worker.send(job):  # died idle: not an attempt
                    worker.kill()
                    vacant.append(worker.index)
                    queue.appendleft(job)
                    continue
                busy[worker.conn] = (worker, job, time.monotonic())
            wait_s = None
            if timeout is not None:
                first = min(started for _, _, started in busy.values())
                wait_s = max(0.0, first + timeout - time.monotonic())
            ready = wait(list(busy), wait_s)
            now = time.monotonic()
            for conn, (worker, job, started) in list(busy.items()):
                expired = timeout is not None and now - started >= timeout
                if conn not in ready and not expired:
                    continue
                del busy[conn]
                try:
                    outcome = worker.reply(0)
                    idle.append(worker)
                except WorkerLost as lost:
                    outcome = lost
                    vacant.append(worker.index)
                if settle(job, outcome, now - started):
                    queue.append(job)
    finally:
        for worker, _, _ in busy.values():
            worker.kill()
        for worker in idle:
            worker.shutdown()
