"""Load-generator campaigns against an in-process server, including the
fault-injection campaign that kills a worker mid-request."""

import asyncio
import json
import os
import signal

from repro.serve.client import LoadgenConfig, format_loadgen, run_loadgen
from repro.serve.server import ReproServer, ServerConfig
from tests.serve.helpers import run_async


def loadgen_config(port: int, **kw) -> LoadgenConfig:
    kw.setdefault("programs", ("dhrystone",))
    kw.setdefault("concurrency", 4)
    kw.setdefault("deadline_s", 60.0)
    kw.setdefault("out", None)
    return LoadgenConfig(host="127.0.0.1", port=port, **kw)


class TestCampaign:
    def test_warm_cache_campaign_is_clean(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"

        async def scenario():
            server = ReproServer(
                ServerConfig(port=0, workers=2, cache_dir=str(tmp_path / "cache"))
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(server.port, requests=40, out=str(out))
                )
            finally:
                await server.stop()
            return payload

        payload = run_async(scenario())
        totals = payload["totals"]
        assert totals["requests"] == 40
        assert totals["ok"] == 40
        assert totals["errors"] == 0 and totals["shed"] == 0
        # warm-up primed all 4 variants; the campaign itself is cache hits
        assert payload["warmup"]["distinct_cells"] == 4
        assert totals["from_cache"] == 40
        assert totals["rps"] > 0
        assert payload["latency_ms"]["p50"] <= payload["latency_ms"]["p99"]
        assert payload["server"]["health"]["status"] == "ok"
        assert "python" in payload["host"]

        written = json.loads(out.read_text())
        assert written["totals"]["ok"] == 40

        text = format_loadgen(payload)
        assert "req/s" in text and "p99" in text

    def test_campaign_without_warmup_executes_cells(self, tmp_path):
        async def scenario():
            server = ReproServer(
                ServerConfig(port=0, workers=2, cache_dir=None)
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(
                        server.port,
                        requests=8,
                        concurrency=2,
                        warmup=False,
                    )
                )
                executed = server.metrics.get("serve.executed")
            finally:
                await server.stop()
            return payload, executed

        payload, executed = run_async(scenario())
        totals = payload["totals"]
        assert totals["ok"] == 8
        assert totals["errors"] == 0
        assert totals["from_cache"] == 0
        # no cache: everything either executed or coalesced onto a leader
        assert executed + totals["coalesced"] == 8


class TestTracedCampaign:
    def test_trace_sample_yields_per_request_breakdowns(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"

        async def scenario():
            server = ReproServer(
                ServerConfig(port=0, workers=2, cache_dir=None)
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(
                        server.port,
                        requests=12,
                        concurrency=2,
                        warmup=False,
                        trace_sample=0.5,
                        out=str(out),
                    )
                )
            finally:
                await server.stop()
            return payload

        payload = run_async(scenario())
        assert payload["totals"]["errors"] == 0
        breakdown = payload["per_request_breakdown"]
        # (index * 0.5) % 1.0 < 0.5 traces every other request
        assert breakdown["sampled"] == 6
        for stage in ("queue_ms", "cache_ms", "coalesce_ms",
                      "compile_ms", "execute_ms", "other_ms"):
            assert {"p50", "p95", "p99", "mean"} <= set(breakdown[stage])
        # span coverage holds the >=90%-of-latency bar: the root books
        # its self time as an explicit framing child at close, so even
        # sub-ms cache hits (where bookkeeping alone is ~15% of the
        # request) stay fully attributed
        assert breakdown["coverage"]["min"] >= 0.9
        assert payload["config"]["trace_sample"] == 0.5
        # the breakdown also lands in the written benchmark file
        written = json.loads(out.read_text())
        assert written["per_request_breakdown"]["sampled"] == 6
        text = format_loadgen(payload)
        assert "traced 6 request(s)" in text
        assert "coverage mean" in text

    def test_traced_cache_hits_hold_the_coverage_bar(self, tmp_path):
        """Sub-ms cache hits used to sink coverage to ~0.7: the span
        bookkeeping between build_job and cache_lookup went unclaimed.
        The request root now books its self time as a cache_hit_framing
        child at span close, so even an all-hits campaign satisfies the
        >=90% attribution contract regardless of machine load."""

        async def scenario():
            server = ReproServer(
                ServerConfig(
                    port=0, workers=2, cache_dir=str(tmp_path / "cache")
                )
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(
                        server.port, requests=30, trace_sample=1.0
                    )
                )
            finally:
                await server.stop()
            return payload

        payload = run_async(scenario())
        totals = payload["totals"]
        assert totals["ok"] == 30 and totals["from_cache"] == 30
        breakdown = payload["per_request_breakdown"]
        assert breakdown["sampled"] == 30
        assert breakdown["coverage"]["min"] >= 0.9
        # all hits: the time sits in the cache bucket, not compile/execute
        assert breakdown["cache_ms"]["mean"] > 0
        assert breakdown["compile_ms"]["mean"] == 0
        assert breakdown["execute_ms"]["mean"] == 0

    def test_cold_slice_populates_compile_and_execute_buckets(
        self, tmp_path
    ):
        """With a warm cache every request is a hit and the breakdown's
        compile/execute buckets read zero; a cold (no_cache) slice forces
        real work so miss-path latency shows up in the attribution."""

        async def scenario():
            server = ReproServer(
                ServerConfig(
                    port=0, workers=2, cache_dir=str(tmp_path / "cache")
                )
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(
                        server.port,
                        requests=20,
                        concurrency=2,
                        trace_sample=0.5,
                        cold_fraction=0.25,
                    )
                )
            finally:
                await server.stop()
            return payload

        payload = run_async(scenario())
        totals = payload["totals"]
        assert totals["ok"] == 20
        # (index * 0.25) % 1.0 < 0.25 puts every 4th request in the slice
        assert totals["cold"] == 5
        assert totals["from_cache"] == 15
        breakdown = payload["per_request_breakdown"]
        # cold requests are always traced, so the miss path is sampled
        assert breakdown["sampled"] >= 10
        assert breakdown["coverage"]["min"] >= 0.9
        assert (
            breakdown["compile_ms"]["mean"] > 0
            or breakdown["execute_ms"]["mean"] > 0
        )
        assert payload["config"]["cold_fraction"] == 0.25
        text = format_loadgen(payload)
        assert "cold 5" in text

    def test_trace_sample_zero_reports_nothing_sampled(self, tmp_path):
        async def scenario():
            server = ReproServer(
                ServerConfig(
                    port=0, workers=1, cache_dir=str(tmp_path / "cache")
                )
            )
            await server.start()
            try:
                payload = await run_loadgen(
                    loadgen_config(server.port, requests=4)
                )
            finally:
                await server.stop()
            return payload

        payload = run_async(scenario())
        assert payload["per_request_breakdown"]["sampled"] == 0
        assert "traced" not in format_loadgen(payload)


class TestFaultInjection:
    def test_worker_killed_mid_campaign_server_stays_healthy(self, tmp_path):
        """A worker SIGKILLed while executing must not fail the campaign:
        the request retries on a fresh worker and the server keeps serving."""

        async def scenario():
            server = ReproServer(
                ServerConfig(
                    port=0,
                    workers=2,
                    cache_dir=None,
                    # crash replacements dump flight bundles now; keep
                    # them out of the working directory
                    artifacts_dir=str(tmp_path / "artifacts"),
                )
            )
            await server.start()

            killed = asyncio.Event()

            async def killer():
                while not killed.is_set():
                    busy = [
                        worker
                        for worker in server.pool.describe()
                        if worker["busy"]
                    ]
                    if busy:
                        try:
                            os.kill(busy[0]["pid"], signal.SIGKILL)
                        except ProcessLookupError:
                            continue
                        killed.set()
                        return
                    await asyncio.sleep(0.002)

            killer_task = asyncio.create_task(killer())
            try:
                payload = await run_loadgen(
                    loadgen_config(server.port, requests=24, warmup=False)
                )
                await asyncio.wait_for(killed.wait(), 10)
                restarts = server.metrics.get("serve.worker_restarts")
                health_workers = server.pool.describe()
            finally:
                killer_task.cancel()
                await server.stop()
            return payload, restarts, health_workers

        payload, restarts, health_workers = run_async(scenario())
        totals = payload["totals"]
        assert totals["ok"] == 24, payload["errors_by_code"]
        assert totals["errors"] == 0
        assert restarts >= 1
        assert payload["server"]["health"]["status"] == "ok"
        # the pool replaced the killed worker and reports it alive
        assert all(worker["alive"] for worker in health_workers)
