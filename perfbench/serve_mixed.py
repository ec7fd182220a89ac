"""serve-mixed: a ``repro serve`` subprocess under an open loop.

Setup starts the server on a free port with a cache directory of its
own, fills its result cache with every cell of the mix and has every
worker compile every cell, as on a server whose workers have served the
mix before (see :meth:`ServeMixed._prime`).  The measured run sends
``RATE`` requests per second for the run's seconds, from one asyncio
process over two pipelined connections (one per core of the reference
box), whether or not earlier requests have been answered: independent
users make an open loop.  Each request is timed from when it was due,
so a stall also counts against the requests queued behind it.  Every
``COLD_EVERY``-th request, from a seeded first one, sends ``no_cache:
true`` and takes the miss path (queue, worker pool, execution and the
result-cache write); the rest are result-cache hits.

Latencies are scaled to nominal host speed (:mod:`perfbench.speed`) by
reference-loop samples the client takes only while no request is in
flight: a sample then measures the host and none of the benchmark's own
load, so a change that makes the server or its workers use more CPU
cannot slow the samples and scale its own cost away.  Each request is
scaled by the samples from the last one before it was due to the first
one after it was answered.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import SRC, WORK
from .expected import committed_counters, load_references, output_problem
from .speed import speed_scale, time_reference
from .stats import percentile, ratio
from .workloads import Outcome, Workload

SERVE_PROGRAMS = ("dhrystone", "fft", "mlink", "tsp")
SMOKE_SERVE_PROGRAMS = ("dhrystone", "fft", "mlink")
WORKERS = 2
CONNECTIONS = 2
#: a chosen load point, not measured traffic: about a quarter of the
#: 424 req/s the closed loop in the committed BENCH_serve.json reached
#: on this mix, so requests rarely queue for the pool
RATE = 100.0
#: the cold share BENCH_serve.json records (``cold_fraction`` 0.02)
COLD_EVERY = 50
DEADLINE_S = 30.0
#: requests per cell at most while priming, until every worker served it
PRIME_TRIES = 8
#: a generator this late at p99 no longer sends the schedule it claims
#: to; the run is reported as disturbed (the outputs are still checked)
MAX_GEN_LAG_S = 0.010
#: in a traced run, which requests ask the server for their span tree
TRACE_HIT_EVERY = 10
TRACE_COLD_EVERY = 2
#: how long before a send the generator stops yielding to the event loop
PRECISE_SLEEP_S = 0.002
#: the time before a send a reference-loop sample needs
PROBE_ROOM_S = 0.001

_BANNER = re.compile(r"listening on ([\w.:-]+):(\d+) ")


class ServeMixed(Workload):
    name = "serve-mixed"
    #: over every request, hits and misses together; one in fifty is a
    #: miss, so the p99 a client of this traffic sees is set by the misses
    tail_q = 0.99
    scratch: Path | None = None
    server: subprocess.Popen | None = None

    def mix(self) -> list[tuple[str, str]]:
        from repro.pipeline import paper_variants

        programs = SMOKE_SERVE_PROGRAMS if self.smoke else SERVE_PROGRAMS
        return [(program, variant) for program in programs for variant in paper_variants()]

    def schedule(self, pass_no: int = 0) -> list[tuple[str, str, bool]]:
        """``(program, variant, cold)`` for every request of the run.

        Which cells the hits and the misses go to is the same multiset
        for every seed (the mix repeated, cut to length); the seed picks
        the order and the phase of the misses, which come exactly
        ``COLD_EVERY`` requests apart so that how often two misses queue
        for the pool does not depend on the seed.
        """
        rng = random.Random(f"perfbench:{self.name}:{self.seed}")
        total = round(RATE * self.seconds)
        cold_at = set(range(rng.randrange(COLD_EVERY), total, COLD_EVERY))
        mix = self.mix()

        def cells(count: int) -> list[tuple[str, str]]:
            return rng.sample((mix * (count // len(mix) + 1))[:count], count)

        cold, hot = iter(cells(len(cold_at))), iter(cells(total - len(cold_at)))
        return [
            (*next(cold if index in cold_at else hot), index in cold_at)
            for index in range(total)
        ]

    # -- setup and teardown ------------------------------------------------

    def setup(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="serve-"))
        self.references = load_references()
        self.counters = committed_counters()
        self.setup_outcome = Outcome()
        self.server_log = open(self.scratch / "server.log", "w")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--cache-dir", str(self.scratch / "cache"),
                "--artifacts-dir", str(self.scratch / "artifacts"),
            ],
            cwd=self.scratch,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=self.server_log,
            stderr=subprocess.STDOUT,
        )
        host, port = self._wait_for_banner(timeout_s=60.0)
        self.loop = asyncio.new_event_loop()
        self.clients = self.loop.run_until_complete(self._connect(host, port))
        self.exact_ops = self.loop.run_until_complete(self._prime())

    def _wait_for_banner(self, timeout_s: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        log_path = self.scratch / "server.log"
        while time.monotonic() < deadline:
            match = _BANNER.search(log_path.read_text())
            if match:
                return match.group(1), int(match.group(2))
            if self.server.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start:\n{log_path.read_text()[-2000:]}")

    async def _connect(self, host: str, port: int) -> list:
        from repro.serve.client import ServeClient
        from repro.serve.protocol import MAX_LINE_BYTES

        clients = []
        for _ in range(CONNECTIONS):
            # traced responses carry span trees; allow the protocol's frame cap
            reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
            clients.append(ServeClient(reader, writer))
        return clients

    async def _prime(self) -> int:
        """Fill the result cache with every cell of the mix and have every
        worker compile every cell; returns the cells' loads plus stores,
        the workload's exact count.

        A worker keeps each module it compiled, so a miss on a cell that
        worker has seen only executes it.  Left to chance, which worker
        primed which cell would decide, differently in every run, which
        misses also compile.  So each cell is sent alone, ``no_cache``
        (the response still fills the result cache), until the ``health``
        op shows that every worker has served it.
        """
        client = self.clients[0]
        memops = 0
        for program, variant in self.mix():
            served: set[int] = set()
            for _ in range(PRIME_TRIES):
                before = await _handled(client)
                response = await self._send(client, program, variant, cold=True)
                self._check(self.setup_outcome, program, variant, response)
                after = await _handled(client)
                served |= {pid for pid, count in after.items() if count != before.get(pid)}
                if len(served) == WORKERS or not response.get("ok"):
                    break
            else:
                self.setup_outcome.fail(f"{program}/{variant}: not every worker compiled it")
            if response.get("ok"):
                counters = response["result"]["counters"]
                memops += counters["loads"] + counters["stores"]
        return memops

    def close(self) -> None:
        if self.server is not None:
            if self.server.poll() is None and getattr(self, "clients", None):
                try:
                    self.loop.run_until_complete(self.clients[0].call("drain"))
                except (ConnectionError, OSError):
                    pass
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server_log.close()
        if getattr(self, "loop", None) is not None:
            for client in getattr(self, "clients", []):
                self.loop.run_until_complete(client.close())
            self.loop.close()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    # -- requests -------------------------------------------------------------

    async def _send(self, client, program: str, variant: str, cold: bool, trace: bool = False) -> dict:
        params = {"workload": program, "variant": variant}
        if cold:
            params["no_cache"] = True
        try:
            return await client.request("suite_cell", params, deadline_s=DEADLINE_S, trace=trace)
        except ConnectionError as error:
            return {"ok": False, "error": {"code": "connection_lost", "message": str(error)}}

    def _check(self, outcome: Outcome, program: str, variant: str, response: dict) -> None:
        outcome.attempted += 1
        if not response.get("ok"):
            error = response.get("error", {})
            outcome.fail(f"{program}/{variant}: {error.get('code')}: {error.get('message')}")
            return
        result = response["result"]
        problem = output_problem(self.references, program, result["exit_code"], result["output"])
        if problem is None and result["counters"] != self.counters.get((program, variant)):
            problem = f"{program}/{variant}: counters differ from benchmarks/out/suite.json"
        if problem is not None:
            outcome.fail(problem)

    async def _open_loop(self) -> tuple[list, list[float], list[tuple[float, float]]]:
        """Send the schedule.  Returns ``(program, variant, cold, traced,
        due, done, response)`` per request, how late each send was, and
        the reference-loop probes ``(loop time, seconds)`` taken on the
        way (see the module doc)."""
        loop = asyncio.get_running_loop()
        in_flight = 0
        probes = [(loop.time(), time_reference())]
        lags: list[float] = []
        tasks = []

        async def one(index: int, program: str, variant: str, cold: bool, trace: bool, due: float):
            nonlocal in_flight
            try:
                response = await self._send(
                    self.clients[index % CONNECTIONS], program, variant, cold, trace
                )
            finally:
                in_flight -= 1
            return program, variant, cold, trace, due, loop.time(), response

        sent = {False: 0, True: 0}
        start = loop.time() + 0.05
        for index, (program, variant, cold) in enumerate(self.schedule()):
            due = start + index / RATE
            # hits and misses are counted apart: misses are evenly spaced,
            # so a rule on the request index would trace all or none of them
            trace = self.traced and sent[cold] % (TRACE_COLD_EVERY if cold else TRACE_HIT_EVERY) == 0
            sent[cold] += 1
            # asyncio's timers wake up to a millisecond late (epoll counts
            # whole milliseconds), which would put most of a millisecond of
            # the generator's own lateness into every latency; the last
            # stretch before a send is a precise blocking sleep instead
            if due - loop.time() > PRECISE_SLEEP_S:
                await asyncio.sleep(due - loop.time() - PRECISE_SLEEP_S)
            # the loop blocks until the send anyway; with no request in
            # flight a probe there delays nothing and sees none of the
            # benchmark's own load
            if not in_flight and due - loop.time() > PROBE_ROOM_S:
                probes.append((loop.time(), time_reference()))
            # read the clock once: it may pass ``due`` between two reads
            remaining = due - loop.time()
            if remaining > 0:
                time.sleep(remaining)
            lags.append(loop.time() - due)
            in_flight += 1
            tasks.append(loop.create_task(one(index, program, variant, cold, trace, due)))
        records = await asyncio.gather(*tasks)
        probes.append((loop.time(), time_reference()))
        return records, lags, probes

    # -- measurement ----------------------------------------------------------

    def measure(self) -> Outcome:
        outcome = self.setup_outcome
        records, lags, probes = self.loop.run_until_complete(self._open_loop())
        latency = {False: [], True: []}
        breakdowns = {False: [], True: []}
        every = []
        probe_times = [t for t, _ in probes]
        for program, variant, cold, traced, due, done, response in records:
            self._check(outcome, program, variant, response)
            scale = speed_scale(_probes_around(probes, probe_times, due, done))
            every.append((done - due) * scale * 1000)
            spans = response.get("result", {}).get("trace", {}).get("spans")
            if spans:
                breakdowns[cold].append((_attribution(spans), scale))
            if not traced:
                latency[cold].append(every[-1])
        lag_p99_ms = percentile(lags, 0.99) * 1000
        if lag_p99_ms > MAX_GEN_LAG_S * 1000:
            print(
                f"perfbench serve-mixed: WARNING the load generator ran late "
                f"(p99 {lag_p99_ms:.1f} ms): this run's latencies include a host stall",
                file=sys.stderr,
            )
        if self.traced:
            outcome.metrics.update(self._layer_metrics(latency, breakdowns, lag_p99_ms))
        else:
            outcome.metrics.update(
                mean_ms=sum(every) / len(every),
                p50_ms=percentile(latency[False], 0.50),
                tail_ms=percentile(every, self.tail_q),
                exact_ops=self.exact_ops,
            )
        return outcome

    def _layer_metrics(self, latency: dict, breakdowns: dict, lag_p99_ms: float) -> dict:
        snapshot = self.loop.run_until_complete(self.clients[0].call("metrics"))
        cache = snapshot.get("cache", {})

        # a short run may have no untraced miss, or no traced one
        def quantile(values: list[float], q: float) -> float:
            return percentile(values, q) if values else 0.0

        def bucket_p50(cold: bool, bucket: str) -> float:
            return quantile([b[bucket] * scale * 1000 for b, scale in breakdowns[cold]], 0.50)

        return {
            "serve.hit_p50_ms": quantile(latency[False], 0.50),
            "serve.hit_p99_ms": quantile(latency[False], 0.99),
            "serve.miss_p50_ms": quantile(latency[True], 0.50),
            "serve.miss_p90_ms": quantile(latency[True], 0.90),
            "serve.queue_wait_p50_ms": snapshot["queue_wait"]["p50_ms"],
            "serve.cache_hit_frac": ratio(
                cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
            ),
            "serve.cache_ms_p50": bucket_p50(False, "cache"),
            "serve.framing_ms_p50": bucket_p50(False, "other"),
            "serve.compile_ms_p50": bucket_p50(True, "compile"),
            "serve.execute_ms_p50": bucket_p50(True, "execute"),
            "serve.gen_lag_p99_ms": lag_p99_ms,
        }


async def _handled(client) -> dict[int, int]:
    """How many jobs each worker of the pool has handled, by pid."""
    health = await client.call("health")
    return {worker["pid"]: worker["handled"] for worker in health["workers"]}


def _probes_around(
    probes: list[tuple[float, float]], times: list[float], start: float, end: float
) -> list[float]:
    """The probes taken from the last one before ``start`` to the first
    one after ``end``; ``times`` lists the probes' times."""
    first = max(0, bisect.bisect_right(times, start) - 1)
    last = min(len(probes) - 1, bisect.bisect_left(times, end))
    return [seconds for _, seconds in probes[first:last + 1]]


def _attribution(spans: list[dict]) -> dict[str, float]:
    from repro.trace import SpanEvent, attribution

    return attribution([SpanEvent.from_dict(span) for span in spans])
