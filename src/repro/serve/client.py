"""Client side of ``repro serve``: a pipelining client and the load
generator behind ``repro loadgen``.

:class:`ServeClient` speaks the NDJSON protocol over one connection,
matching out-of-order responses to requests by ``id`` so any number of
requests can be in flight at once.

:func:`run_loadgen` drives a campaign: an optional warm-up pass primes
the server's result cache with every distinct request in the mix, then
``concurrency`` workers (one connection each) hammer the mix for
``duration_s`` seconds (or exactly ``requests`` requests), recording
client-observed latency and every error code.  ``cold_fraction`` carves
out a deterministic slice of requests sent with ``no_cache: true`` —
they bypass the server's cache read and exercise the full
compile-and-execute path, so the latency breakdown attributes miss-path
time even when the rest of the campaign is warm cache hits.  The result — throughput,
p50/p95/p99, error breakdown, cache/coalesce hit counts, the server's
own metrics snapshot, and host metadata — is written to
``BENCH_serve.json`` so serving performance has an in-repo trajectory
just like ``BENCH_interp.json``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..bench import QUICK_PROGRAMS
from ..diag.host import host_metadata
from ..diag.log import get_logger
from ..diag.metrics import nearest_rank
from .protocol import encode_frame
from .resilience import (
    CircuitBreaker,
    CircuitOpen,
    LatencyTracker,
    ResilienceStats,
    RetryPolicy,
)

_log = get_logger(__name__)

__all__ = [
    "LoadgenConfig",
    "ResilientClient",
    "ServeClient",
    "ServeError",
    "format_loadgen",
    "run_loadgen",
    "wait_for_server",
    "write_loadgen_json",
]

LOADGEN_SCHEMA = 2  # v2: totals/resilience record retry+hedge behaviour

#: error codes that indicate deliberate load shedding rather than a
#: broken request or server — loadgen reports them separately
SHED_CODES = frozenset({"queue_full", "deadline_exceeded", "draining"})

PAPER_VARIANTS = (
    "modref/nopromo", "modref/promo", "pointer/nopromo", "pointer/promo",
)


class ServeError(Exception):
    """An error response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServeClient:
    """One connection; safe for any number of concurrent ``request``s."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        #: frames the server sent without a matchable id (e.g. the
        #: payload_too_large notice before closing the connection)
        self.unmatched: list[dict] = []
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 7411
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """Send one request, await its response frame (the full dict).

        ``trace=True`` asks the server for a sampled trace: the result
        carries ``trace.trace_id`` and ``trace.spans`` (see
        :mod:`repro.trace`).  ``idempotency_key`` names the logical
        request so a retry single-flights onto the original computation
        server-side instead of queueing duplicate work.
        """
        request_id = next(self._ids)
        frame: dict = {"id": request_id, "op": op}
        if params:
            frame["params"] = params
        if deadline_s is not None:
            frame["deadline_s"] = deadline_s
        if priority is not None:
            frame["priority"] = priority
        if trace:
            frame["trace"] = True
        if idempotency_key is not None:
            frame["idempotency_key"] = idempotency_key
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        return await future

    async def call(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """Like :meth:`request` but unwraps: result dict or ServeError."""
        response = await self.request(
            op,
            params,
            deadline_s=deadline_s,
            priority=priority,
            trace=trace,
            idempotency_key=idempotency_key,
        )
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServeError(
                error.get("code", "internal"), error.get("message", "")
            )
        return response["result"]

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line)
                except ValueError:
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
                else:
                    self.unmatched.append(frame)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()


def _consume_result(task: asyncio.Task) -> None:
    """Swallow results/exceptions of abandoned hedge tasks."""
    if not task.cancelled():
        task.exception()


class ResilientClient:
    """A self-healing wrapper around :class:`ServeClient`.

    What it adds on top of the raw client, in order of engagement:

    * **retries** — errors in the closed retryable vocabulary
      (:data:`~repro.serve.resilience.RETRYABLE_CODES`) and transport
      failures are retried with jittered exponential backoff, up to the
      policy's attempt budget; the connection is re-established after a
      transport failure;
    * **idempotency keys** — every logical request carries one (caller
      supplied, else auto-generated), so a retry single-flights onto the
      original computation server-side instead of duplicating work;
    * **circuit breaker** — consecutive failures trip it; while open,
      :meth:`request` sheds immediately with :class:`CircuitOpen`
      (a *client-side* explicit shed) instead of piling onto a sick
      server; a half-open probe re-closes it;
    * **hedging** (opt-in) — once the latency tracker has samples, a
      request that outlives the observed p95 fires one backup carrying
      the same idempotency key; first response wins, the loser is
      cancelled.  Coalescing makes the backup nearly free when the
      primary is merely slow rather than lost.

    ``clock``, ``sleep`` and ``connect`` are injectable so the whole
    state machine runs under a fake clock in tests — zero real sleeps.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        hedge: bool = False,
        hedge_min_delay_s: float = 0.01,
        latency: LatencyTracker | None = None,
        clock=time.perf_counter,
        sleep=None,
        connect=None,
        key_prefix: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.hedge = hedge
        self.hedge_min_delay_s = hedge_min_delay_s
        self.latency = latency or LatencyTracker()
        self.stats = ResilienceStats()
        self._clock = clock
        self._sleep = sleep or asyncio.sleep
        self._connect = connect or ServeClient.connect
        self._client = None
        if key_prefix is None:
            import os

            key_prefix = os.urandom(4).hex()
        self._key_prefix = key_prefix
        self._key_counter = itertools.count(1)
        self._connected_once = False

    async def _ensure_client(self):
        if self._client is None:
            self._client = await self._connect(self.host, self.port)
            if self._connected_once:
                self.stats.reconnects += 1
            self._connected_once = True
        return self._client

    async def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass

    async def close(self) -> None:
        await self._drop_client()

    async def request(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """One *logical* request: retried, hedged, breaker-gated.

        Returns the winning response frame.  Raises :class:`CircuitOpen`
        when the breaker sheds the request client-side, or the final
        transport error when every attempt lost its connection.
        """
        key = (
            idempotency_key
            or f"{self._key_prefix}-{next(self._key_counter)}"
        )
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self.breaker.allow():
                self.stats.breaker_open += 1
                raise CircuitOpen(
                    f"circuit breaker open for {self.host}:{self.port}"
                )
            self.stats.attempts += 1
            started = self._clock()
            try:
                response = await self._send_once(
                    op, params, deadline_s, priority, trace, key
                )
            except (ConnectionError, OSError):
                self.breaker.record_failure()
                await self._drop_client()
                if attempt >= self.retry.max_attempts:
                    raise
                self.stats.record_retry("connection_lost")
                await self._sleep(self.retry.delay_s(attempt))
                continue
            if response.get("ok"):
                self.breaker.record_success()
                self.latency.record(self._clock() - started)
                return response
            code = response.get("error", {}).get("code", "internal")
            if self.retry.retryable(code):
                self.breaker.record_failure()
                if attempt >= self.retry.max_attempts:
                    return response
                self.stats.record_retry(code)
                await self._sleep(self.retry.delay_s(attempt))
                continue
            # a definitive answer (bad request, cell failure, draining):
            # the host is healthy, retrying would only repeat it
            self.breaker.record_success()
            return response
        raise AssertionError("unreachable")  # pragma: no cover

    async def call(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """Like :meth:`request` but unwraps: result dict or ServeError."""
        response = await self.request(
            op,
            params,
            deadline_s=deadline_s,
            priority=priority,
            trace=trace,
            idempotency_key=idempotency_key,
        )
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServeError(
                error.get("code", "internal"), error.get("message", "")
            )
        return response["result"]

    async def _send_once(
        self, op, params, deadline_s, priority, trace, key
    ) -> dict:
        """One attempt, hedged when enabled and a p95 exists."""
        client = await self._ensure_client()

        def send() -> asyncio.Task:
            return asyncio.ensure_future(
                client.request(
                    op,
                    params,
                    deadline_s=deadline_s,
                    priority=priority,
                    trace=trace,
                    idempotency_key=key,
                )
            )

        if not self.hedge:
            return await send()
        p95 = self.latency.p95()
        if p95 is None:
            return await send()
        primary = send()
        # never wait_for: the delay must run through the injected sleep
        # so fake-clock tests control it
        timer = asyncio.ensure_future(
            self._sleep(max(p95, self.hedge_min_delay_s))
        )
        done, _ = await asyncio.wait(
            {primary, timer}, return_when=asyncio.FIRST_COMPLETED
        )
        if primary in done:
            timer.cancel()
            return primary.result()
        self.stats.hedged += 1
        # same idempotency key: the backup coalesces onto the primary's
        # computation server-side instead of doubling the work
        backup = send()
        done, pending = await asyncio.wait(
            {primary, backup}, return_when=asyncio.FIRST_COMPLETED
        )
        if backup in done and primary not in done:
            self.stats.hedge_wins += 1
        winner = backup if backup in done else primary
        for task in pending:
            task.cancel()
            task.add_done_callback(_consume_result)
        return winner.result()


async def wait_for_server(
    host: str, port: int, timeout_s: float = 30.0
) -> dict:
    """Poll until the server answers ``health``; returns the health dict."""
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            client = await ServeClient.connect(host, port)
            try:
                return await client.call("health")
            finally:
                await client.close()
        except (ConnectionError, OSError, ServeError) as error:
            last_error = error
            await asyncio.sleep(0.1)
    raise TimeoutError(
        f"server at {host}:{port} not healthy after {timeout_s:.0f}s: "
        f"{last_error}"
    )


# --------------------------------------------------------------------------
# load generation


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 7411
    concurrency: int = 8
    duration_s: float = 10.0
    #: exact request count; overrides ``duration_s`` when set
    requests: int | None = None
    op: str = "suite_cell"
    programs: tuple[str, ...] = QUICK_PROGRAMS
    variants: tuple[str, ...] = PAPER_VARIANTS
    max_steps: int = 50_000_000
    deadline_s: float | None = 30.0
    #: prime the cache with one pass over the distinct mix first
    warmup: bool = True
    #: send ``drain`` once the campaign finishes (CI teardown)
    drain_on_finish: bool = False
    #: fraction of campaign requests sent with ``trace: true``; their
    #: returned spans feed the per-request latency breakdown
    trace_sample: float = 0.0
    #: fraction of campaign requests sent with ``no_cache: true`` — a
    #: cold slice that bypasses the server's result-cache read and does
    #: real compile+execute work even on a warm cache.  Cold requests
    #: are always traced (when ``trace_sample`` > 0) so the breakdown's
    #: compile/execute buckets reflect miss-path latency instead of
    #: reading all-zero on an all-hits campaign.
    cold_fraction: float = 0.0
    #: interpreter engine the mix cells run under (compiled/simple)
    engine: str = "compiled"
    #: drive the campaign through :class:`ResilientClient` — retries,
    #: idempotency keys, circuit breaker; the payload's ``resilience``
    #: section records what the client layer absorbed
    resilient: bool = False
    #: with ``resilient``, also hedge requests past the observed p95
    hedge: bool = False
    out: str | None = "BENCH_serve.json"


@dataclass
class _Tally:
    latencies: list[float] = field(default_factory=list)
    ok: int = 0
    errors: int = 0
    shed: int = 0
    from_cache: int = 0
    coalesced: int = 0
    cold: int = 0
    by_code: dict[str, int] = field(default_factory=dict)
    #: one attribution dict per sampled request (see repro.trace)
    breakdowns: list[dict] = field(default_factory=list)
    #: per-worker ResilienceStats dicts (resilient campaigns only)
    resilience: list[dict] = field(default_factory=list)


def _mix(config: LoadgenConfig) -> list[dict]:
    return [
        {
            "workload": program,
            "variant": variant,
            "max_steps": config.max_steps,
            "engine": config.engine,
        }
        for program in config.programs
        for variant in config.variants
    ]


def _request_breakdown(span_dicts: list[dict]) -> dict:
    """Attribution buckets for one sampled request's returned spans."""
    from ..trace import SpanEvent, attribution

    return attribution([SpanEvent.from_dict(d) for d in span_dicts])


_BREAKDOWN_BUCKETS = ("queue", "cache", "coalesce", "compile", "execute", "other")


def _breakdown_summary(breakdowns: list[dict]) -> dict:
    """Percentiles over per-request attribution: where sampled requests
    spent their time (milliseconds), plus trace-coverage health."""
    summary: dict = {"sampled": len(breakdowns)}
    if not breakdowns:
        return summary
    for bucket in _BREAKDOWN_BUCKETS:
        ordered = sorted(b.get(bucket, 0.0) * 1000 for b in breakdowns)
        summary[f"{bucket}_ms"] = {
            "p50": round(nearest_rank(ordered, 0.50), 3),
            "p95": round(nearest_rank(ordered, 0.95), 3),
            "p99": round(nearest_rank(ordered, 0.99), 3),
            "mean": round(sum(ordered) / len(ordered), 3),
        }
    coverages = [b.get("coverage", 0.0) for b in breakdowns]
    summary["coverage"] = {
        "min": round(min(coverages), 4),
        "mean": round(sum(coverages) / len(coverages), 4),
    }
    return summary


async def _campaign_worker(
    config: LoadgenConfig,
    mix: list[dict],
    counter: itertools.count,
    stop_at: float,
    tally: _Tally,
) -> None:
    if config.resilient:
        client = ResilientClient(
            config.host, config.port, hedge=config.hedge
        )
    else:
        client = await ServeClient.connect(config.host, config.port)
    try:
        while True:
            index = next(counter)
            if config.requests is not None:
                if index >= config.requests:
                    break
            elif time.perf_counter() >= stop_at:
                break
            params = mix[index % len(mix)]
            # deterministic slicing over the request index, so a campaign
            # spreads its trace sample and cold slice evenly regardless
            # of worker interleaving
            want_cold = (
                config.cold_fraction > 0
                and (index * config.cold_fraction) % 1.0
                < config.cold_fraction
            )
            if want_cold:
                params = dict(params, no_cache=True)
            want_trace = config.trace_sample > 0 and (
                want_cold
                or (index * config.trace_sample) % 1.0 < config.trace_sample
            )
            started = time.perf_counter()
            try:
                response = await client.request(
                    config.op,
                    params,
                    deadline_s=config.deadline_s,
                    trace=want_trace,
                    idempotency_key=(
                        f"lg-{index}" if config.resilient else None
                    ),
                )
            except CircuitOpen:
                # client-side shed: counted like the server's explicit
                # back-pressure answers, not as an unexplained error
                tally.shed += 1
                tally.by_code["circuit_open"] = (
                    tally.by_code.get("circuit_open", 0) + 1
                )
                continue
            except ConnectionError:
                tally.errors += 1
                tally.by_code["connection_lost"] = (
                    tally.by_code.get("connection_lost", 0) + 1
                )
                if config.resilient:
                    # retries are exhausted; move on rather than give up
                    continue
                break
            tally.latencies.append(time.perf_counter() - started)
            if want_cold:
                tally.cold += 1
            if response.get("ok"):
                tally.ok += 1
                result = response["result"]
                if result.get("from_cache"):
                    tally.from_cache += 1
                if result.get("coalesced"):
                    tally.coalesced += 1
                spans = result.get("trace", {}).get("spans")
                if spans:
                    tally.breakdowns.append(_request_breakdown(spans))
            else:
                code = response.get("error", {}).get("code", "internal")
                tally.by_code[code] = tally.by_code.get(code, 0) + 1
                if code in SHED_CODES:
                    tally.shed += 1
                else:
                    tally.errors += 1
    finally:
        if config.resilient:
            tally.resilience.append(client.stats.as_dict())
        await client.close()


async def run_loadgen(config: LoadgenConfig) -> dict:
    """Run one campaign; returns (and optionally writes) the payload."""
    mix = _mix(config)
    warmup_s = 0.0
    if config.warmup:
        started = time.perf_counter()
        client = await ServeClient.connect(config.host, config.port)
        try:
            responses = await asyncio.gather(
                *(
                    client.request(config.op, params, deadline_s=None)
                    for params in mix
                )
            )
        finally:
            await client.close()
        warmup_s = time.perf_counter() - started
        failed = [r for r in responses if not r.get("ok")]
        if failed:
            raise ServeError(
                failed[0]["error"].get("code", "internal"),
                f"warm-up failed for {len(failed)}/{len(mix)} mix cells: "
                + failed[0]["error"].get("message", ""),
            )

    tally = _Tally()
    counter = itertools.count()
    started = time.perf_counter()
    stop_at = started + config.duration_s
    await asyncio.gather(
        *(
            _campaign_worker(config, mix, counter, stop_at, tally)
            for _ in range(max(1, config.concurrency))
        )
    )
    measured_s = max(time.perf_counter() - started, 1e-9)

    server_metrics: dict = {}
    server_health: dict = {}
    try:
        client = await ServeClient.connect(config.host, config.port)
        try:
            server_metrics = await client.call("metrics")
            server_health = await client.call("health")
            if config.drain_on_finish:
                await client.call("drain")
        finally:
            await client.close()
    except (ConnectionError, OSError, ServeError) as error:
        _log.warning("post-campaign server snapshot failed: %s", error)

    ordered = sorted(tally.latencies)
    total = tally.ok + tally.errors + tally.shed
    resilience = _aggregate_resilience(tally.resilience)
    payload = {
        "schema": LOADGEN_SCHEMA,
        "host": host_metadata(),
        "config": {
            "op": config.op,
            "concurrency": config.concurrency,
            "duration_s": config.duration_s,
            "requests": config.requests,
            "programs": list(config.programs),
            "variants": list(config.variants),
            "max_steps": config.max_steps,
            "deadline_s": config.deadline_s,
            "warmup": config.warmup,
            "trace_sample": config.trace_sample,
            "cold_fraction": config.cold_fraction,
            "engine": config.engine,
            "resilient": config.resilient,
            "hedge": config.hedge,
        },
        "warmup": {"distinct_cells": len(mix), "seconds": round(warmup_s, 3)},
        "totals": {
            "requests": total,
            "ok": tally.ok,
            "errors": tally.errors,
            "shed": tally.shed,
            "from_cache": tally.from_cache,
            "coalesced": tally.coalesced,
            "cold": tally.cold,
            "retried": resilience["retried"],
            "hedged": resilience["hedged"],
            "breaker_open": resilience["breaker_open"],
            "duration_s": round(measured_s, 3),
            "rps": round(tally.ok / measured_s, 1),
        },
        "resilience": resilience,
        "errors_by_code": dict(sorted(tally.by_code.items())),
        "latency_ms": {
            "p50": round(nearest_rank(ordered, 0.50) * 1000, 3),
            "p95": round(nearest_rank(ordered, 0.95) * 1000, 3),
            "p99": round(nearest_rank(ordered, 0.99) * 1000, 3),
            "mean": round(sum(ordered) / len(ordered) * 1000, 3)
            if ordered
            else 0.0,
            "max": round(ordered[-1] * 1000, 3) if ordered else 0.0,
        },
        "per_request_breakdown": _breakdown_summary(tally.breakdowns),
        "server": {"metrics": server_metrics, "health": server_health},
    }
    if config.out:
        write_loadgen_json(config.out, payload)
    return payload


def _aggregate_resilience(per_worker: list[dict]) -> dict:
    """Sum the per-connection ResilienceStats into one campaign view."""
    totals = ResilienceStats()
    for stats in per_worker:
        totals.attempts += stats["attempts"]
        totals.retried += stats["retried"]
        totals.hedged += stats["hedged"]
        totals.hedge_wins += stats["hedge_wins"]
        totals.reconnects += stats["reconnects"]
        totals.breaker_open += stats["breaker_open"]
        for code, count in stats["retries_by_code"].items():
            totals.retries_by_code[code] = (
                totals.retries_by_code.get(code, 0) + count
            )
    return totals.as_dict()


def write_loadgen_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def format_loadgen(payload: dict) -> str:
    totals = payload["totals"]
    latency = payload["latency_ms"]
    lines = [
        f"{totals['requests']} requests in {totals['duration_s']:.1f}s "
        f"over {payload['config']['concurrency']} connection(s): "
        f"{totals['rps']:.0f} req/s",
        f"  ok {totals['ok']}  errors {totals['errors']}  "
        f"shed {totals['shed']}  "
        f"cache-hits {totals['from_cache']}  coalesced {totals['coalesced']}"
        + (
            f"  cold {totals['cold']}"
            if totals.get("cold")
            else ""
        ),
        f"  latency ms: p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}  "
        f"p99 {latency['p99']:.2f}  max {latency['max']:.2f}",
    ]
    if payload["errors_by_code"]:
        codes = "  ".join(
            f"{code}={count}"
            for code, count in payload["errors_by_code"].items()
        )
        lines.append(f"  error codes: {codes}")
    resilience = payload.get("resilience", {})
    if resilience.get("attempts"):
        lines.append(
            f"  resilience: retried {resilience['retried']}  "
            f"hedged {resilience['hedged']} "
            f"(won {resilience['hedge_wins']})  "
            f"breaker-open {resilience['breaker_open']}  "
            f"reconnects {resilience['reconnects']}"
        )
    warmup = payload["warmup"]
    if warmup["seconds"]:
        lines.append(
            f"  warm-up: {warmup['distinct_cells']} distinct cell(s) in "
            f"{warmup['seconds']:.2f}s"
        )
    breakdown = payload.get("per_request_breakdown", {})
    if breakdown.get("sampled"):
        parts = "  ".join(
            f"{bucket} {breakdown[f'{bucket}_ms']['p50']:.2f}"
            for bucket in _BREAKDOWN_BUCKETS
            if f"{bucket}_ms" in breakdown
        )
        lines.append(
            f"  traced {breakdown['sampled']} request(s), p50 ms by stage: "
            f"{parts}  (coverage mean "
            f"{breakdown['coverage']['mean']:.0%})"
        )
    return "\n".join(lines)
