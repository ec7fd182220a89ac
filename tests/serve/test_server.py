"""End-to-end server tests over real TCP connections.

Each test starts a :class:`ReproServer` on an ephemeral port inside one
event loop, talks to it with :class:`ServeClient` (or a raw socket for
the framing edge cases), and always tears the server down before the
loop exits so no worker processes leak.
"""

import asyncio
import contextlib
import json

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer, ServerConfig
from tests.serve.helpers import FAST_SOURCE, run_async, slow_source


@contextlib.asynccontextmanager
async def serving(**config_kw):
    config_kw.setdefault("port", 0)
    config_kw.setdefault("cache_dir", None)
    config_kw.setdefault("workers", 1)
    server = ReproServer(ServerConfig(**config_kw))
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


@contextlib.asynccontextmanager
async def connected(server: ReproServer):
    client = await ServeClient.connect("127.0.0.1", server.port)
    try:
        yield client
    finally:
        await client.close()


class TestBasicOps:
    def test_health_metrics_run_compile_explain(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                health = await client.call("health")
                assert health["status"] == "ok"
                assert len(health["workers"]) == 1
                assert health["workers"][0]["alive"]

                result = await client.call(
                    "run", {"source": FAST_SOURCE, "name": "smoke"}
                )
                assert result["exit_code"] == 0
                assert result["counters"]["total_ops"] > 0
                assert result["workload"] == "smoke"
                assert not result["from_cache"] and not result["coalesced"]

                compiled = await client.call(
                    "compile", {"source": FAST_SOURCE}
                )
                assert "main" in compiled["il"]
                assert "promotion" in compiled

                explained = await client.call(
                    "explain",
                    {"source": FAST_SOURCE, "filters": {"action": "promote"}},
                )
                assert explained["count"] == len(explained["decisions"])

                metrics = await client.call("metrics")
                values = metrics["metrics"]
                assert values["serve.requests"] >= 4
                assert values["serve.executed"] == 3
                assert "run" in metrics["latency"]
                assert "python" in metrics["host"]

        run_async(scenario())

    def test_suite_cell_runs_paper_workload(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                result = await client.call(
                    "suite_cell",
                    {"workload": "dhrystone", "variant": "modref/promo"},
                )
                assert result["workload"] == "dhrystone"
                assert result["variant"] == "modref/promo"
                assert result["exit_code"] == 0

        run_async(scenario())

    def test_every_engine_is_accepted_and_agrees(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                results = {}
                for engine in ("simple", "compiled"):
                    results[engine] = await client.call(
                        "run", {"source": FAST_SOURCE, "engine": engine}
                    )
                reference = results["simple"]
                for engine, result in results.items():
                    assert result["exit_code"] == 0
                    assert result["counters"] == reference["counters"]
                with pytest.raises(ServeError) as excinfo:
                    await client.call(
                        "run", {"source": FAST_SOURCE, "engine": "jit"}
                    )
                assert excinfo.value.code == "invalid_params"

        run_async(scenario())

    def test_invalid_params_surface_as_errors(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.call("suite_cell", {"workload": "nope"})
                assert excinfo.value.code == "invalid_params"
                with pytest.raises(ServeError) as excinfo:
                    await client.call("run", {})
                assert excinfo.value.code == "invalid_params"
                with pytest.raises(ServeError) as excinfo:
                    await client.call(
                        "explain",
                        {"source": FAST_SOURCE, "filters": {"bogus": 1}},
                    )
                assert excinfo.value.code == "invalid_params"

        run_async(scenario())


class TestCaching:
    def test_repeat_request_served_from_cache(self, tmp_path):
        async def scenario():
            async with serving(cache_dir=str(tmp_path)) as server:
                async with connected(server) as client:
                    params = {"source": FAST_SOURCE, "name": "cached"}
                    first = await client.call("run", params)
                    second = await client.call("run", params)
                assert not first["from_cache"]
                assert second["from_cache"]
                assert second["counters"] == first["counters"]
                assert server.metrics.get("serve.cache_hits") == 1
                assert server.metrics.get("serve.executed") == 1

        run_async(scenario())

    def test_no_cache_bypasses_read_but_still_writes_back(self, tmp_path):
        async def scenario():
            async with serving(cache_dir=str(tmp_path)) as server:
                async with connected(server) as client:
                    params = {"source": FAST_SOURCE, "name": "cold"}
                    first = await client.call("run", params)
                    cold = await client.call(
                        "run", dict(params, no_cache=True)
                    )
                    warm = await client.call("run", params)
                assert not first["from_cache"]
                # the cold request recomputed despite the warm cache...
                assert not cold["from_cache"]
                assert cold["counters"] == first["counters"]
                # ...and the follow-up hit proves the write-back stayed
                assert warm["from_cache"]
                assert server.metrics.get("serve.executed") == 2

        run_async(scenario())

    def test_unwritable_cache_dir_answers_uncached(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, so nothing can be created below it")

        async def scenario():
            async with serving(cache_dir=str(blocker / "cache")) as server:
                async with connected(server) as client:
                    params = {"source": FAST_SOURCE, "name": "uncached"}
                    first = await client.call("run", params)
                    second = await client.call("run", params)
                # the failed write-back cost the cache entry, not the answer
                assert not first["from_cache"] and not second["from_cache"]
                assert second["counters"] == first["counters"]
                assert server.metrics.get("serve.executed") == 2

        # a write-back that raises leaves the client waiting: bound it
        run_async(asyncio.wait_for(scenario(), timeout=60))

    def test_no_cache_must_be_boolean(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.call(
                        "run", {"source": FAST_SOURCE, "no_cache": "yes"}
                    )
                assert excinfo.value.code == "invalid_params"

        run_async(scenario())

    def test_suite_cell_cache_is_shared_with_the_scheduler(self, tmp_path):
        """A cell served over TCP lands under the same fingerprint a
        ``repro suite`` run would read — the caches are interchangeable."""
        from repro.interp import MachineOptions
        from repro.pipeline import paper_variants
        from repro.runner.cache import ResultCache
        from repro.runner.scheduler import CellSpec, spec_cache_key
        from repro.workloads import get_workload

        async def scenario():
            async with serving(cache_dir=str(tmp_path)) as server:
                async with connected(server) as client:
                    await client.call(
                        "suite_cell",
                        {
                            "workload": "dhrystone",
                            "variant": "modref/promo",
                            "max_steps": 50_000_000,
                        },
                    )

        run_async(scenario())

        workload = get_workload("dhrystone")
        spec = CellSpec(
            workload=workload.name,
            variant="modref/promo",
            source=workload.source,
            options=paper_variants()["modref/promo"],
            machine=MachineOptions(max_steps=50_000_000, engine="compiled"),
            defines=tuple(sorted(workload.defines.items())),
        )
        payload = ResultCache(str(tmp_path)).get(spec_cache_key(spec))
        assert payload is not None
        assert payload["exit_code"] == 0


class TestCoalescing:
    def test_identical_inflight_requests_execute_once(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                params = {"source": slow_source(50000), "name": "dup"}
                results = await asyncio.gather(
                    *(client.call("run", params) for _ in range(4))
                )
                assert all(r["exit_code"] == 0 for r in results)
                assert server.metrics.get("serve.executed") == 1
                assert server.metrics.get("serve.coalesced") == 3
                assert sum(r["coalesced"] for r in results) == 3

        run_async(scenario())

    def test_distinct_requests_do_not_coalesce(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                results = await asyncio.gather(
                    *(
                        client.call(
                            "run",
                            {"source": slow_source(1000, salt=i), "name": "d"},
                        )
                        for i in range(3)
                    )
                )
                assert len(results) == 3
                assert server.metrics.get("serve.executed") == 3
                assert server.metrics.get("serve.coalesced") == 0

        run_async(scenario())


class TestProtocolEdges:
    def test_malformed_json_gets_bad_request_and_connection_survives(self):
        async def scenario():
            async with serving() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    writer.write(b"this is not json\n")
                    await writer.drain()
                    frame = json.loads(await reader.readline())
                    assert frame["ok"] is False
                    assert frame["error"]["code"] == "bad_request"
                    # same connection still serves valid requests
                    writer.write(b'{"id": 1, "op": "health"}\n')
                    await writer.drain()
                    frame = json.loads(await reader.readline())
                    assert frame["ok"] and frame["id"] == 1
                finally:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()

        run_async(scenario())

    def test_oversized_payload_rejected_and_connection_closed(self):
        async def scenario():
            async with serving(max_line_bytes=4096) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    giant = json.dumps(
                        {"op": "run", "params": {"source": "x" * 8192}}
                    )
                    writer.write(giant.encode() + b"\n")
                    await writer.drain()
                    frame = json.loads(await reader.readline())
                    assert frame["error"]["code"] == "payload_too_large"
                    # ...and the server hangs up
                    assert await reader.read() == b""
                finally:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()

        run_async(scenario())

    def test_unknown_op_echoes_request_id(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                response = await client.request("frobnicate")
                assert response["ok"] is False
                assert response["error"]["code"] == "unknown_op"

        run_async(scenario())

    def test_internal_error_answers_the_request_id(self, monkeypatch):
        async def boom(self, *args, **kwargs):
            raise RuntimeError("injected submit failure")

        monkeypatch.setattr(ReproServer, "_submit", boom)

        async def scenario():
            async with serving() as server, connected(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    await client.call("run", {"source": FAST_SOURCE})
                assert excinfo.value.code == "internal"
                assert "injected submit failure" in str(excinfo.value)
                assert server.metrics.get("serve.errors.internal") == 1
                snapshot = await client.call("metrics")
                assert list(snapshot)[:4] == [
                    "uptime_s", "metrics", "latency", "queue_wait",
                ]
                assert snapshot["metrics"]["serve.requests.run"] == 1
                assert snapshot["metrics"]["serve.errors"] == 1
                assert snapshot["latency"]["run"]["count"] == 1

        # an error frame without the id leaves the client waiting: bound it
        run_async(asyncio.wait_for(scenario(), timeout=60))

    def test_nan_deadline_is_refused_and_the_worker_keeps_serving(self):
        async def scenario():
            async with serving() as server, connected(server) as client:
                response = await client.request(
                    "run", {"source": FAST_SOURCE}, deadline_s=float("nan")
                )
                assert response["error"]["code"] == "invalid_params"
                # the only worker slot still takes the next miss
                result = await client.call("run", {"source": FAST_SOURCE})
                assert result["exit_code"] == 0
                health = await client.call("health")
                assert health["workers"][0]["alive"]

        # a NaN that reached the worker left both requests unanswered
        run_async(asyncio.wait_for(scenario(), timeout=60))


class TestBackpressure:
    def test_queue_full_is_an_explicit_rejection(self):
        async def scenario():
            async with serving(workers=1, queue_limit=1) as server:
                async with connected(server) as client:
                    responses = await asyncio.gather(
                        *(
                            client.request(
                                "run",
                                {
                                    "source": slow_source(200000, salt=i),
                                    "name": f"flood{i}",
                                },
                            )
                            for i in range(5)
                        )
                    )
                codes = [
                    r["error"]["code"]
                    for r in responses
                    if not r.get("ok")
                ]
                assert "queue_full" in codes
                assert any(r.get("ok") for r in responses)
                rejected = server.metrics.get(
                    "serve.rejected_queue_full"
                )
                assert rejected == codes.count("queue_full")

        run_async(scenario())

    @pytest.mark.slow
    def test_health_stays_responsive_while_workers_busy(self):
        async def scenario():
            async with serving(workers=1) as server:
                async with connected(server) as client:
                    slow = asyncio.create_task(
                        client.call(
                            "run",
                            {"source": slow_source(2_000_000), "name": "busy"},
                        )
                    )
                    await server.pool.wait_busy()
                    health = await asyncio.wait_for(
                        client.call("health", priority="high"), 2.0
                    )
                    assert health["queue_depth"] == 0
                    assert any(w["busy"] for w in health["workers"])
                    result = await asyncio.wait_for(slow, 60)
                    assert result["exit_code"] == 0

        run_async(scenario())


class TestDrain:
    @pytest.mark.slow
    def test_drain_while_busy_answers_inflight_then_closes(self):
        async def scenario():
            server = ReproServer(
                ServerConfig(port=0, cache_dir=None, workers=1)
            )
            await server.start()
            port = server.port
            try:
                async with connected(server) as client:
                    slow = asyncio.create_task(
                        client.request(
                            "run",
                            {"source": slow_source(2_000_000), "name": "drainme"},
                        )
                    )
                    await server.pool.wait_busy()
                    status = await client.call("drain")
                    assert status == {"status": "draining"}
                    # the in-flight cell still completes and is answered
                    response = await asyncio.wait_for(slow, 60)
                    assert response["ok"], response
                    await asyncio.wait_for(server.wait_drained(), 30)
                # listener is closed: new connections are refused
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", port)
                # workers are gone
                for slot in server.pool.slots:
                    assert not slot.worker.process.is_alive()
            finally:
                await server.stop()

        run_async(scenario())

    @pytest.mark.slow
    def test_new_work_rejected_while_draining(self):
        async def scenario():
            async with serving(workers=1) as server:
                async with connected(server) as client:
                    slow = asyncio.create_task(
                        client.request(
                            "run",
                            {"source": slow_source(2_000_000), "name": "last"},
                        )
                    )
                    await server.pool.wait_busy()
                    # the drain ack is sent as soon as the flag is set,
                    # so awaiting it (not a sleep) orders the late
                    # request strictly after the server starts draining
                    assert (await client.call("drain")) == {
                        "status": "draining"
                    }
                    late = await client.request(
                        "run", {"source": FAST_SOURCE, "name": "late"}
                    )
                    assert late["ok"] is False
                    assert late["error"]["code"] == "draining"
                    assert (await asyncio.wait_for(slow, 60))["ok"]

        run_async(scenario())
