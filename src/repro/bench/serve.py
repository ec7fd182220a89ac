"""Serving benchmark — ``repro loadgen`` against a running ``repro serve``.

:func:`run_loadgen` optionally primes the server's result cache with one
request per distinct cell of the mix (each program under every paper
variant), then ``concurrency`` workers, one connection each, send the
mix for ``duration_s`` seconds or exactly ``requests`` requests.
``cold_fraction`` sends a deterministic slice with ``no_cache: true`` so
the latency breakdown sees the compile-and-execute path on a warm
server.  Throughput, latency percentiles, error codes, the per-stage
breakdown of traced requests and the server's metrics snapshot go to
``BENCH_serve.json``.  A campaign that cannot start (refused connection,
failed warm-up) raises ``OSError`` / ``ServeError``; requests that fail
once it runs are counted, not raised.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field

from ..diag.log import get_logger
from ..pipeline import paper_variants
from ..serve.client import ResilientClient, ServeClient, ServeError
from ..serve.resilience import CircuitOpen, ResilienceStats
from ..trace import SpanEvent, attribution
from . import QUICK_PROGRAMS, bench_payload, percentile_summary, write_bench_json

_log = get_logger(__name__)

__all__ = ["LoadgenConfig", "format_loadgen", "run_loadgen"]

LOADGEN_SCHEMA = 3  # v3: totals/resilience record retries and breaker sheds

#: the one op a campaign sends: a workload x variant cell
OP = "suite_cell"

#: error codes that indicate deliberate load shedding rather than a
#: broken request or server — loadgen reports them separately
SHED_CODES = frozenset({"queue_full", "deadline_exceeded", "draining"})


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 7411
    concurrency: int = 8
    duration_s: float = 10.0
    #: exact request count; overrides ``duration_s`` when set
    requests: int | None = None
    programs: tuple[str, ...] = QUICK_PROGRAMS
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
    #: what the resilient clients absorbed; every worker books into it
    resilience: ResilienceStats = field(default_factory=ResilienceStats)


def _mix(config: LoadgenConfig) -> list[dict]:
    """Every program of the campaign under each of the paper's variants."""
    return [
        {
            "workload": program,
            "variant": variant,
            "max_steps": config.max_steps,
            "engine": config.engine,
        }
        for program in config.programs
        for variant in paper_variants()
    ]


def _request_breakdown(span_dicts: list[dict]) -> dict:
    """Attribution buckets for one sampled request's returned spans."""
    return attribution([SpanEvent.from_dict(d) for d in span_dicts])


_BREAKDOWN_BUCKETS = ("queue", "cache", "coalesce", "compile", "execute", "other")


def _breakdown_summary(breakdowns: list[dict]) -> dict:
    """Percentiles over per-request attribution: where sampled requests
    spent their time (milliseconds), plus trace-coverage health."""
    summary: dict = {"sampled": len(breakdowns)}
    if not breakdowns:
        return summary
    for bucket in _BREAKDOWN_BUCKETS:
        summary[f"{bucket}_ms"] = percentile_summary(
            [b.get(bucket, 0.0) for b in breakdowns], scale=1000
        )
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
        client = ResilientClient(config.host, config.port)
        client.stats = tally.resilience
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
                    OP,
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
                    client.request(OP, params, deadline_s=None)
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

    total = tally.ok + tally.errors + tally.shed
    resilience = tally.resilience.as_dict()
    payload = bench_payload(
        LOADGEN_SCHEMA,
        config={
            "op": OP,
            "concurrency": config.concurrency,
            "duration_s": config.duration_s,
            "requests": config.requests,
            "programs": list(config.programs),
            "variants": list(paper_variants()),
            "max_steps": config.max_steps,
            "deadline_s": config.deadline_s,
            "warmup": config.warmup,
            "trace_sample": config.trace_sample,
            "cold_fraction": config.cold_fraction,
            "engine": config.engine,
            "resilient": config.resilient,
        },
        warmup={"distinct_cells": len(mix), "seconds": round(warmup_s, 3)},
        totals={
            "requests": total,
            "ok": tally.ok,
            "errors": tally.errors,
            "shed": tally.shed,
            "from_cache": tally.from_cache,
            "coalesced": tally.coalesced,
            "cold": tally.cold,
            "retried": resilience["retried"],
            "breaker_open": resilience["breaker_open"],
            "duration_s": round(measured_s, 3),
            "rps": round(tally.ok / measured_s, 1),
        },
        resilience=resilience,
        errors_by_code=dict(sorted(tally.by_code.items())),
        latency_ms={
            **percentile_summary(tally.latencies, scale=1000),
            "max": round(max(tally.latencies, default=0.0) * 1000, 3),
        },
        per_request_breakdown=_breakdown_summary(tally.breakdowns),
        server={"metrics": server_metrics, "health": server_health},
    )
    if config.out:
        write_bench_json(config.out, payload)
    return payload


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
        + (f"  cold {totals['cold']}" if totals.get("cold") else ""),
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
