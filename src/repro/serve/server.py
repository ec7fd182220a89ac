"""The ``repro serve`` asyncio TCP server.

Request path for the work ops (``compile`` / ``run`` / ``suite_cell`` /
``explain``)::

    parse -> result cache -> single-flight coalesce -> admission queue
          -> worker pool -> (cache write-back) -> response

* **cache** — cell-shaped ops (``run``, ``suite_cell``) are keyed with
  the scheduler's content-addressed fingerprint, so completed results
  are served straight from ``.repro-cache/`` and a warm serving cache is
  interchangeable with a warm ``repro suite`` cache; a request carrying
  ``params.no_cache: true`` bypasses the read (but still writes back),
  which is how the load generator's cold slice forces real
  compile/execute work on a warm server;
* **coalesce** — identical in-flight requests collapse onto one
  computation (see :mod:`repro.serve.coalesce`);
* **admission** — bounded queue with priority lanes and per-request
  deadlines (see :mod:`repro.serve.queue`); overload is an explicit
  ``queue_full`` error, a deadline firing mid-cell kills the worker;
* **control ops** — ``health`` / ``metrics`` / ``drain`` are answered
  inline on the event loop and never queue, so they stay responsive
  under full load.

Connections may pipeline: each request is dispatched as its own task and
responses are written (serialized per connection) as they complete, so
one connection with N in-flight requests behaves like N logical clients
— that is what makes single-connection coalescing and the load
generator's concurrency model work.

Draining (``drain`` op or SIGTERM in the CLI) closes the listener and
stops admitting new work (``draining`` errors); everything already
admitted — in-flight *and* queued — still completes and is answered,
pending responses are flushed, then connections close.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import time
from dataclasses import dataclass

from ..diag.host import host_metadata
from ..diag.log import get_logger
from ..diag.metrics import MetricsRegistry
from ..interp import MachineOptions
from ..pipeline import Analysis, PipelineOptions, paper_variants
from ..store import canonical_digest
from ..trace import (
    FlightRecorder,
    HeadSampler,
    Trace,
    span,
    write_spans_jsonl,
)
from .coalesce import SingleFlight
from .pool import DEFAULT_RECYCLE_AFTER, WorkerPool
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode_error,
    encode_result,
    parse_request,
)
from .queue import AdmissionQueue, Draining, QueueFull, Ticket

_log = get_logger(__name__)

__all__ = ["ReproServer", "ServerConfig"]


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 7411
    workers: int = 2
    queue_limit: int = 64
    #: cap applied when a request carries no ``deadline_s``
    default_deadline_s: float = 120.0
    recycle_after: int = DEFAULT_RECYCLE_AFTER
    #: result-cache directory; ``None`` disables the cache entirely
    cache_dir: str | None = ".repro-cache"
    default_max_steps: int = 50_000_000
    max_line_bytes: int = MAX_LINE_BYTES
    #: head-based sampling rate for request traces (0 = only requests
    #: that ask with ``trace: true``, 1 = every work request)
    trace_sample: float = 0.0
    #: JSONL file that receives every sampled request's spans
    trace_export: str | None = None
    #: flight-recorder ring size (always on; dumps crash bundles)
    flight_capacity: int = 512
    #: where crash bundles land (``fuzz-artifacts/``-style directories)
    artifacts_dir: str = "serve-artifacts"
    #: cap on crash bundles written per server lifetime
    max_flight_dumps: int = 20
    #: give up on a graceful drain after this many seconds (dump a
    #: flight bundle, then hard-stop the pool); ``None`` waits forever
    drain_timeout_s: float | None = None
    #: fault-injection plan: a :class:`repro.chaos.FaultPlan`, a spec
    #: string for :meth:`FaultPlan.parse` (the ``--chaos-plan`` flag),
    #: or ``None`` — with no plan, every chaos hook is a single
    #: ``is not None`` check (pay-for-use)
    chaos_plan: object | None = None


class ReproServer:
    """One serving instance; create, ``await start()``, ``await drain()``."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = MetricsRegistry()
        self._started_at = time.monotonic()
        chaos = self.config.chaos_plan
        if isinstance(chaos, str):
            from ..chaos.plan import FaultPlan

            chaos = FaultPlan.parse(chaos)
        self.chaos = chaos
        self.queue = AdmissionQueue(limit=self.config.queue_limit)
        self.pool = WorkerPool(
            self.queue,
            size=self.config.workers,
            recycle_after=self.config.recycle_after,
            metrics=self.metrics,
            chaos=self.chaos,
            on_replace=self._on_worker_replace,
        )
        self.flight = SingleFlight()
        if self.config.cache_dir is not None:
            from ..runner.cache import ResultCache

            self.cache = ResultCache(self.config.cache_dir)
        else:
            self.cache = None
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self.sampler = HeadSampler(self.config.trace_sample)
        self.recorder = FlightRecorder(capacity=self.config.flight_capacity)
        self._spans_exported = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        # warm the lazy imports _build_job leans on so the first request
        # doesn't pay ~10ms of module loading inside its trace
        from ..runner import cache, scheduler  # noqa: F401

        # recent server-side log records ride along in crash bundles
        logging.getLogger("repro").addHandler(self.recorder.log_handler)
        if self.config.trace_export is not None:
            # truncate: the export is this server instance's span stream
            open(self.config.trace_export, "w").close()
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        _log.info(
            "repro-serve listening on %s:%d (%d workers, queue limit %d)",
            self.config.host, self.port, self.config.workers,
            self.config.queue_limit,
        )

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight, flush, close, return."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.metrics.set_gauge("serve.draining", 1)
        _log.info("drain: no longer accepting work")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.config.drain_timeout_s is None:
            await self.pool.drain()
        else:
            try:
                await asyncio.wait_for(
                    self.pool.drain(), self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                _log.error(
                    "drain did not finish within %.1fs; dumping flight "
                    "recorder and hard-stopping the pool",
                    self.config.drain_timeout_s,
                )
                self._dump_flight("drain_timeout")
                await self.pool.stop()
        # every ticket is settled; let the response writers run dry
        pending = [task for task in self._request_tasks if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        logging.getLogger("repro").removeHandler(self.recorder.log_handler)
        self._drained.set()
        _log.info("drain complete")

    async def stop(self) -> None:
        """Hard stop for tests/teardown; pending work fails ``draining``."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.stop()
        self.flight.abandon_all("draining", "server shut down")
        for task in list(self._request_tasks):
            task.cancel()
        if self._request_tasks:
            await asyncio.gather(*self._request_tasks, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        logging.getLogger("repro").removeHandler(self.recorder.log_handler)
        self._drained.set()

    # -- connection handling ----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.metrics.inc("serve.errors.payload_too_large")
                    await self._send(
                        writer,
                        write_lock,
                        encode_error(
                            None,
                            "payload_too_large",
                            f"frame exceeds {self.config.max_line_bytes} "
                            "bytes; closing connection",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._serve_request(line, writer, write_lock)
                )
                tasks.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._request_tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.monotonic()
        request: Request | None = None
        op = "invalid"
        ok = False
        trace: Trace | None = None
        chaos_token: str | None = None
        try:
            request = parse_request(line)
            op = request.op
            if self.chaos is not None and op in self._WORK_OPS:
                chaos_token = self._chaos_token(request)
            trace = self._maybe_trace(request)
            with span("request", trace=trace, op=op) as extra:
                result = await self._dispatch(request, trace, chaos_token)
                if extra is not None:
                    # book the root's self time — op routing, event-loop
                    # hops between stages, result framing, preemption —
                    # as an explicit framing child at span close: hit
                    # serving counts toward the cache bucket, dispatch
                    # bookkeeping toward `other`.  Derived from the close
                    # clock read itself, so coverage stays ~100% even on
                    # a sub-millisecond hit under machine load.
                    extra["frame_gap"] = (
                        "cache_hit_framing"
                        if result.get("from_cache")
                        else "request_framing"
                    )
            if trace is not None:
                self._export_trace(trace)
                result["trace"] = {
                    "trace_id": trace.context.trace_id,
                    "spans": [event.as_dict() for event in trace.events],
                }
            ok = True
            frame = encode_result(request.id, result)
        except ProtocolError as error:
            self.metrics.inc(f"serve.errors.{error.code}")
            frame = encode_error(error.request_id, error.code, error.message)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            _log.exception("internal error serving request")
            self.metrics.inc("serve.errors.internal")
            # the client waits on the request's id; only a request that
            # never parsed is answered without one
            frame = encode_error(
                request.id if request is not None else None,
                "internal",
                f"{type(error).__name__}: {error}",
            )
        latency = time.monotonic() - started
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.requests.{op}")
        if not ok:
            self.metrics.inc("serve.errors")
        self.metrics.observe(f"serve.latency.{op}", latency)
        # always-on coarse marker: one preallocated ring slot per request,
        # regardless of sampling — this is what crash bundles replay
        self.recorder.record_span(
            f"request.{op}",
            seconds=latency,
            wall_start=time.time() - latency,
            trace_id=(
                trace.context.trace_id if trace is not None else None
            ),
            worker="serve",
            args={"ok": ok},
        )
        if chaos_token is not None:
            wire_fault = self._wire_fault(chaos_token)
            if wire_fault is not None:
                await self._send_mangled(writer, write_lock, frame, wire_fault)
                return
        await self._send(writer, write_lock, frame)

    _WORK_OPS = frozenset({"compile", "run", "suite_cell", "explain"})

    def _maybe_trace(self, request: Request) -> Trace | None:
        """Head-based sampling decision, made once at admission: the
        client's ``trace: true`` forces it, otherwise the configured
        sample rate applies (work ops only — control ops are answered
        inline and have nothing to attribute)."""
        if request.op not in self._WORK_OPS:
            return None
        if not (request.trace or self.sampler.sample()):
            return None
        return Trace(f"request.{request.op}", worker="serve")

    def _export_trace(self, trace: Trace) -> None:
        if self.config.trace_export is None:
            return
        self._spans_exported += write_spans_jsonl(
            self.config.trace_export, trace.events, append=True
        )

    def _on_worker_replace(self, reason: str, trace) -> None:
        """Pool callback: a worker was killed and respawned.  Crashes
        (not deadline kills, which already dump on the submit path) get
        a flight bundle *per crash* — even when the retry then succeeds
        and the client never sees an error.  This is what lets the soak
        harness demand evidence for every injected crash."""
        if reason in ("crash", "idle_crash"):
            self._dump_flight("worker_crash", trace)

    def _dump_flight(self, reason: str, trace: Trace | None = None) -> None:
        """Write a crash bundle (bounded per server lifetime)."""
        if self.recorder.dumps >= self.config.max_flight_dumps:
            return
        meta: dict = {"server_uptime_s": self._uptime_s()}
        if trace is not None:
            meta["trace_id"] = trace.context.trace_id
        try:
            bundle = self.recorder.dump(
                self.config.artifacts_dir,
                reason,
                extra_spans=trace.events if trace is not None else None,
                meta=meta,
            )
        except OSError as error:  # pragma: no cover - disk trouble
            _log.error("failed to write flight bundle: %s", error)
            return
        self.metrics.inc("serve.flight_dumps")
        _log.warning("flight recorder dumped to %s (%s)", bundle, reason)

    async def _send(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, frame: bytes
    ) -> None:
        async with lock:
            if writer.is_closing():
                return
            writer.write(frame)
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.drain()

    # -- chaos hooks -------------------------------------------------------

    @staticmethod
    def _chaos_token(request: Request) -> str:
        """The stable fault-decision identity of this request: the
        client's idempotency key, else the request-content digest —
        never the wire ``id``, which differs run to run."""
        if request.idempotency_key is not None:
            return request.idempotency_key
        from ..chaos.plan import request_token

        return request_token(request.op, request.params)

    def _wire_fault(self, token: str):
        """First protocol fault the plan decides for this response."""
        for site in (
            "protocol.truncate",
            "protocol.hangup",
            "protocol.split",
            "protocol.oversize",
        ):
            fault = self.chaos.decide(site, token)
            if fault is not None:
                self.metrics.inc(f"chaos.injected.{site}")
                return fault
        return None

    async def _send_mangled(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        frame: bytes,
        fault,
    ) -> None:
        """Write the chaos-reshaped response; hang up if the fault says
        so (the client observes a torn/absent response and must retry —
        other requests pipelined on this connection are collateral, as
        they would be with a real connection fault)."""
        from ..chaos.inject import mangle_response

        chunks, hangup = mangle_response(fault.site, frame)
        async with lock:
            if writer.is_closing():
                return
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                for chunk in chunks:
                    writer.write(chunk)
                    await writer.drain()
            if hangup:
                writer.close()

    def _cache_chaos(self, token: str, key: str) -> None:
        """Corrupt or evict the cached entry before the read.  Either
        way the read must degrade to a miss (the store drops undecodable
        entries) — never serve garbage."""
        from ..chaos.inject import corrupt_cache_entry, evict_cache_entry

        fault = self.chaos.decide("cache.corrupt", token)
        if fault is not None and corrupt_cache_entry(self.cache, key):
            self.metrics.inc("chaos.injected.cache.corrupt")
        fault = self.chaos.decide("cache.evict", token)
        if fault is not None and evict_cache_entry(self.cache, key):
            self.metrics.inc("chaos.injected.cache.evict")

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(
        self,
        request: Request,
        trace: Trace | None,
        chaos_token: str | None = None,
    ) -> dict:
        if request.op == "health":
            return self._health()
        if request.op == "metrics":
            return self._metrics()
        if request.op == "drain":
            asyncio.get_running_loop().create_task(self.drain())
            return {"status": "draining"}
        no_cache = request.params.get("no_cache", False)
        if not isinstance(no_cache, bool):
            raise ProtocolError(
                "invalid_params", "no_cache must be a boolean", request.id
            )
        with span("build_job", trace=trace, op=request.op) as extra:
            job, key, cacheable = self._build_job(request)
            spec = job.get("spec")
            if extra is not None and spec is not None:
                # lets `repro trace --program` select cell traces
                extra["program"] = spec.workload
                extra["variant"] = spec.variant
        return await self._submit(
            request,
            job,
            key,
            cacheable,
            trace,
            read_cache=not no_cache,
            chaos_token=chaos_token,
        )

    def _uptime_s(self) -> float:
        return round(time.monotonic() - self._started_at, 3)

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": self._uptime_s(),
            "queue_depth": self.queue.depth,
            "inflight": self.flight.depth,
            "draining": self._draining,
            "trace_sample": self.sampler.rate,
            "workers": self.pool.describe(),
        }

    def _metrics(self) -> dict:
        self.metrics.set_gauge("serve.queue_depth", self.queue.depth)
        self.metrics.set_gauge(
            "serve.queue_depth_normal", self.queue.normal_depth
        )
        self.metrics.set_gauge("serve.queue_depth_high", self.queue.high_depth)
        self.metrics.set_gauge("serve.workers_busy", self.pool.busy_count)
        self.metrics.set_gauge(
            "serve.flight_occupancy", self.recorder.occupancy
        )
        latency_prefix = "serve.latency."
        snapshot = {
            "uptime_s": self._uptime_s(),
            "metrics": self.metrics.as_dict(),
            "latency": {
                name[len(latency_prefix):]: histogram.snapshot()
                for name, histogram in sorted(self.metrics.histograms.items())
                if name.startswith(latency_prefix)
            },
            "queue_wait": self.metrics.histogram("serve.queue_wait").snapshot(),
        }
        snapshot["queue"] = {
            "depth": self.queue.depth,
            "normal_depth": self.queue.normal_depth,
            "high_depth": self.queue.high_depth,
            "limit": self.config.queue_limit,
        }
        snapshot["flight_recorder"] = {
            "capacity": self.recorder.capacity,
            "occupancy": self.recorder.occupancy,
            "dropped": self.recorder.dropped,
            "dumps": self.recorder.dumps,
        }
        snapshot["trace"] = {
            "sample_rate": self.sampler.rate,
            "spans_exported": self._spans_exported,
        }
        snapshot["host"] = host_metadata()
        if self.cache is not None:
            snapshot["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        if self.chaos is not None:
            snapshot["chaos"] = self.chaos.describe()
        return snapshot

    # -- request -> job translation ---------------------------------------

    def _build_job(self, request: Request) -> tuple[dict, str, bool]:
        from ..runner.scheduler import spec_cache_key

        params = request.params
        if request.op in ("run", "suite_cell"):
            if request.op == "run":
                spec = self._run_spec(request)
            else:
                spec = self._suite_cell_spec(request)
            # a worker that compiled this cell before only executes it
            job = {"kind": "cell", "spec": spec, "share_compile": True}
            return job, spec_cache_key(spec), True
        if request.op == "compile":
            source = self._required_str(request, params, "source")
            options = self._pipeline_options(request, params)
            defines = self._defines(request, params)
            job = {
                "kind": "compile",
                "source": source,
                "name": params.get("name", "request"),
                "defines": defines,
                "options": options,
            }
            return job, self._aux_key("compile", source, defines, options), False
        if request.op == "explain":
            source = self._required_str(request, params, "source")
            options = self._pipeline_options(request, params)
            defines = self._defines(request, params)
            filters = params.get("filters") or {}
            allowed = {"pass_name", "function", "loop", "tag", "action"}
            if not isinstance(filters, dict) or set(filters) - allowed:
                raise ProtocolError(
                    "invalid_params",
                    f"filters must be an object with keys from {sorted(allowed)}",
                    request.id,
                )
            job = {
                "kind": "explain",
                "source": source,
                "name": params.get("name", "request"),
                "defines": defines,
                "options": options,
                "filters": filters,
            }
            key = self._aux_key("explain", source, defines, options, filters)
            return job, key, False
        raise ProtocolError(
            "unknown_op", f"unhandled op {request.op!r}", request.id
        )  # pragma: no cover - parse_request already rejects

    @staticmethod
    def _aux_key(op: str, source: str, defines, options, extra=None) -> str:
        from ..runner.cache import cell_key

        digest = canonical_digest(extra or {})
        return f"{op}:{cell_key(source, defines, options, None)}:{digest}"

    @staticmethod
    def _required_str(request: Request, params: dict, name: str) -> str:
        value = params.get(name)
        if not isinstance(value, str) or not value:
            raise ProtocolError(
                "invalid_params",
                f"params.{name} must be a non-empty string",
                request.id,
            )
        return value

    def _defines(self, request: Request, params: dict) -> dict[str, str]:
        defines = params.get("defines") or {}
        if not isinstance(defines, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in defines.items()
        ):
            raise ProtocolError(
                "invalid_params",
                "params.defines must map strings to strings",
                request.id,
            )
        return defines

    def _pipeline_options(self, request: Request, params: dict) -> PipelineOptions:
        analysis = params.get("analysis", "modref")
        try:
            analysis = Analysis(analysis)
        except ValueError:
            raise ProtocolError(
                "invalid_params",
                f"analysis must be one of {[a.value for a in Analysis]}, "
                f"got {analysis!r}",
                request.id,
            )
        return PipelineOptions(
            analysis=analysis,
            promotion=bool(params.get("promotion", True)),
            pointer_promotion=bool(params.get("pointer_promotion", False)),
        )

    def _machine_options(self, request: Request, params: dict) -> MachineOptions:
        engine = params.get("engine", "compiled")
        if engine not in ("compiled", "simple"):
            raise ProtocolError(
                "invalid_params",
                f"engine must be 'compiled' or 'simple', got {engine!r}",
                request.id,
            )
        max_steps = params.get("max_steps", self.config.default_max_steps)
        if not isinstance(max_steps, int) or max_steps <= 0:
            raise ProtocolError(
                "invalid_params",
                "max_steps must be a positive integer",
                request.id,
            )
        return MachineOptions(max_steps=max_steps, engine=engine)

    def _run_spec(self, request: Request):
        from ..runner.scheduler import CellSpec

        params = request.params
        source = self._required_str(request, params, "source")
        options = self._pipeline_options(request, params)
        machine = self._machine_options(request, params)
        defines = self._defines(request, params)
        return CellSpec(
            workload=params.get("name", "request"),
            variant=options.variant_name(),
            source=source,
            options=options,
            machine=machine,
            defines=tuple(sorted(defines.items())),
        )

    def _suite_cell_spec(self, request: Request):
        from ..runner.scheduler import CellSpec
        from ..workloads import get_workload, workload_names

        params = request.params
        workload_name = self._required_str(request, params, "workload")
        if workload_name not in workload_names():
            raise ProtocolError(
                "invalid_params",
                f"unknown workload {workload_name!r}; "
                f"available: {workload_names()}",
                request.id,
            )
        variants = paper_variants(
            pointer_promotion=bool(params.get("pointer_promotion", False))
        )
        variant = params.get("variant", PipelineOptions().variant_name())
        if variant not in variants:
            raise ProtocolError(
                "invalid_params",
                f"variant must be one of {sorted(variants)}, got {variant!r}",
                request.id,
            )
        machine = self._machine_options(request, params)
        workload = get_workload(workload_name)
        # identical to build_suite_specs so the cache fingerprint is
        # shared with `repro suite` runs
        return CellSpec(
            workload=workload.name,
            variant=variant,
            source=workload.source,
            options=variants[variant],
            machine=machine,
            defines=tuple(sorted(workload.defines.items())),
        )

    # -- work submission ---------------------------------------------------

    async def _submit(
        self,
        request: Request,
        job: dict,
        key: str,
        cacheable: bool,
        trace: Trace | None = None,
        *,
        read_cache: bool = True,
        chaos_token: str | None = None,
    ) -> dict:
        if self._draining:
            raise ProtocolError("draining", "server is draining", request.id)
        if cacheable and read_cache and self.cache is not None:
            if chaos_token is not None:
                self._cache_chaos(chaos_token, key)
            # on a hit the whole sub-millisecond request is this span
            # plus build_job; formatting inside it keeps the trace's
            # coverage honest instead of leaving a tail gap
            with span("cache_lookup", trace=trace) as extra:
                payload = self.cache.get(key)
                if extra is not None:
                    extra["hit"] = payload is not None
                if payload is not None:
                    self.metrics.inc("serve.cache_hits")
                    result = self._cell_result(
                        job, dict(payload), from_cache=True, coalesced=False
                    )
            if payload is not None:
                return result
        # a client-supplied idempotency key names the *logical* request:
        # a retry coalesces onto the original computation even when the
        # original is still in flight.  Content-addressed keys keep the
        # cache untouched — only the single-flight identity changes.
        flight_key = (
            f"idem:{request.idempotency_key}"
            if request.idempotency_key is not None
            else key
        )
        future, leader = self.flight.claim(flight_key)
        if not leader:
            self.metrics.inc("serve.coalesced")
            # a follower's whole wait is the leader's computation; the
            # leader's worker spans belong to the leader's trace only
            with span("coalesce_wait", trace=trace):
                ok, payload = await asyncio.shield(future)
            if not ok:
                raise ProtocolError(
                    self._error_code(payload), payload["message"], request.id
                )
            return self._format_result(job, payload, coalesced=True)

        ok = False
        payload: dict = {"code": "internal", "message": "leader aborted"}
        try:
            deadline_s = min(
                request.deadline_s or self.config.default_deadline_s,
                self.config.default_deadline_s,
            )
            ticket = Ticket(
                job=job,
                future=asyncio.get_running_loop().create_future(),
                deadline=time.monotonic() + deadline_s,
                priority=request.priority,
                trace=trace,
                chaos_token=chaos_token,
            )
            if chaos_token is not None:
                stall = self.chaos.decide("server.admission_stall", chaos_token)
                if stall is not None:
                    self.metrics.inc("chaos.injected.server.admission_stall")
                    await asyncio.sleep(stall.delay_s)
            try:
                self.queue.put(ticket)
            except QueueFull as error:
                self.metrics.inc("serve.rejected_queue_full")
                payload = {"code": "queue_full", "message": str(error)}
                raise ProtocolError("queue_full", str(error), request.id)
            except Draining as error:
                payload = {"code": "draining", "message": str(error)}
                raise ProtocolError("draining", str(error), request.id)
            self.metrics.set_gauge("serve.queue_depth", self.queue.depth)
            ok, payload = await ticket.future
            if trace is not None and isinstance(payload, dict):
                # pop before flight.resolve shares the payload: followers
                # must not adopt this leader's worker-side spans
                worker_spans = payload.pop("trace_spans", None)
                if ok and worker_spans:
                    trace.adopt(worker_spans)
            if ok:
                self.metrics.inc("serve.executed")
                if cacheable and self.cache is not None:
                    # the write-back is a real disk write — several ms
                    # for a cell payload — so it gets its own span rather
                    # than vanishing into the framing gap
                    with span("cache_write", trace=trace):
                        self.cache.put(key, dict(payload["cell"]))
        finally:
            self.flight.resolve(flight_key, ok, payload)
        if not ok:
            code = self._error_code(payload)
            if code in ("worker_crashed", "deadline_exceeded"):
                # the worker died without a word — preserve the evidence
                self._dump_flight(code, trace)
            raise ProtocolError(code, payload["message"], request.id)
        return self._format_result(job, payload, coalesced=False)

    @staticmethod
    def _error_code(payload: dict) -> str:
        code = payload.get("code", "internal")
        return code if code in ERROR_CODES else "internal"

    def _format_result(self, job: dict, payload: dict, coalesced: bool) -> dict:
        if job["kind"] == "cell":
            return self._cell_result(
                job, dict(payload["cell"]), from_cache=False, coalesced=coalesced
            )
        result = dict(payload)
        result["coalesced"] = coalesced
        return result

    @staticmethod
    def _cell_result(
        job: dict, cell: dict, from_cache: bool, coalesced: bool
    ) -> dict:
        spec = job["spec"]
        cell.pop("schema", None)
        cell.update(
            workload=spec.workload,
            variant=spec.variant,
            from_cache=from_cache,
            coalesced=coalesced,
        )
        return cell
