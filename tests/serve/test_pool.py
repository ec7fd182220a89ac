"""Worker pool lifecycle: warm reuse, recycling, crash respawn with
retry-once, and the deadline-fires-mid-cell kill path.

These tests spawn real worker processes and drive them through the
admission queue exactly as the server does.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.pipeline import PipelineOptions, compile_source
from repro.runner.pool import _handle_job
from repro.serve.pool import CRASH_RETRIES, WorkerPool
from repro.serve.queue import AdmissionQueue, Ticket
from tests.serve.helpers import (
    FAST_SOURCE,
    make_cell_job,
    run_async,
    slow_source,
)


async def submit(queue: AdmissionQueue, job: dict, deadline_s=None, **kw):
    ticket = Ticket(
        job=job,
        future=asyncio.get_running_loop().create_future(),
        deadline=time.monotonic() + deadline_s if deadline_s else None,
        **kw,
    )
    queue.put(ticket)
    return ticket


async def make_pool(size=1, **kw) -> tuple[AdmissionQueue, WorkerPool]:
    queue = AdmissionQueue(limit=16)
    pool = WorkerPool(queue, size=size, **kw)
    await pool.start()
    return queue, pool


class TestCompileJob:
    @pytest.mark.parametrize("promotion", [True, False])
    def test_promotion_block_reads_the_compile_metrics(self, promotion):
        options = PipelineOptions(promotion=promotion)
        job = {"kind": "compile", "source": FAST_SOURCE, "options": options}
        reply = _handle_job(job, {})
        metrics = compile_source(FAST_SOURCE, options, name="request").metrics
        assert reply["promotion"] == {
            "tags_promoted": metrics.get("promotion.tags_promoted", 0),
            "references_rewritten": metrics.get("promotion.refs_rewritten", 0),
            "loads_inserted": metrics.get("promotion.loads_inserted", 0),
            "stores_inserted": metrics.get("promotion.stores_inserted", 0),
        }
        assert (reply["promotion"]["tags_promoted"] > 0) == promotion


class TestWarmWorkers:
    def test_same_worker_serves_repeat_requests(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                first = await submit(queue, make_cell_job())
                ok, payload = await first.future
                assert ok, payload
                pid_before = pool.slots[0].worker.pid
                second = await submit(queue, make_cell_job())
                ok, payload = await second.future
                assert ok, payload
                assert pool.slots[0].worker.pid == pid_before
                assert pool.slots[0].worker.handled == 2
                assert payload["cell"]["counters"]["total_ops"] > 0
            finally:
                await pool.stop()

        run_async(scenario())

    def test_compile_memo_makes_repeats_faster(self):
        """The second identical cell skips compilation (warm module)."""

        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                first = await submit(queue, make_cell_job())
                _, cold = await first.future
                second = await submit(queue, make_cell_job())
                _, warm = await second.future
                assert warm["cell"]["seconds"] < cold["cell"]["seconds"]
            finally:
                await pool.stop()

        run_async(scenario())

    def test_worker_errors_fail_cleanly_and_worker_survives(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                bad = await submit(
                    queue, make_cell_job(source="int main( { broken")
                )
                ok, payload = await bad.future
                assert not ok
                assert payload["code"] in ("cell_failed", "internal")
                pid = pool.slots[0].worker.pid
                good = await submit(queue, make_cell_job())
                ok, _ = await good.future
                assert ok
                assert pool.slots[0].worker.pid == pid  # no respawn needed
            finally:
                await pool.stop()

        run_async(scenario())


class TestRecycling:
    def test_worker_recycled_after_n_requests(self):
        async def scenario():
            queue, pool = await make_pool(size=1, recycle_after=2)
            try:
                pid_before = pool.slots[0].worker.pid
                for _ in range(2):
                    ticket = await submit(queue, make_cell_job())
                    ok, _ = await ticket.future
                    assert ok
                # recycling happens after the driver finishes the ticket
                await pool.wait_recycled(1)
                assert pool.slots[0].recycles == 1
                assert pool.slots[0].worker.pid != pid_before
                assert pool.metrics.get("serve.worker_recycles") == 1
                # the fresh worker serves fine
                ticket = await submit(queue, make_cell_job())
                ok, _ = await ticket.future
                assert ok
            finally:
                await pool.stop()

        run_async(scenario())


class TestCrashRecovery:
    def test_kill9_mid_request_retries_once_and_succeeds(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                ticket = await submit(
                    queue, make_cell_job(source=slow_source(300000))
                )
                # wait until the worker is actually executing, then SIGKILL
                await pool.wait_busy()
                assert pool.slots[0].busy
                victim = pool.slots[0].worker
                os.kill(victim.pid, signal.SIGKILL)
                ok, payload = await asyncio.wait_for(ticket.future, 60)
                assert ok, payload  # retried on a fresh worker
                assert ticket.attempts == 2
                assert pool.slots[0].restarts == 1
                assert pool.metrics.get("serve.worker_restarts") == 1
                assert not victim.process.is_alive()
                assert victim.process.exitcode == -signal.SIGKILL
            finally:
                await pool.stop()

        run_async(scenario())

    def test_repeated_crashes_fail_cleanly_pool_keeps_serving(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                ticket = await submit(
                    queue,
                    # enough fuel that no attempt can finish between kills
                    make_cell_job(source=slow_source(50_000_000, salt=1)),
                )

                async def assassin():
                    kills = 0
                    while not ticket.future.done():
                        # busy toggling (and every restart) wakes the
                        # waiter, so each kill lands on a live attempt
                        # instead of a 10ms polling raster
                        try:
                            await pool.wait_busy(timeout=30)
                        except asyncio.TimeoutError:
                            return
                        if ticket.future.done():
                            return
                        try:
                            os.kill(
                                pool.slots[0].worker.pid, signal.SIGKILL
                            )
                        except ProcessLookupError:
                            continue
                        kills += 1
                        try:
                            await pool.wait_restarted(kills, timeout=30)
                        except asyncio.TimeoutError:
                            return

                killer = asyncio.create_task(assassin())
                ok, payload = await asyncio.wait_for(ticket.future, 60)
                killer.cancel()
                assert not ok
                assert payload["code"] == "worker_crashed"
                assert ticket.attempts == CRASH_RETRIES + 1
                # the pool replaced the dead worker and still serves
                follow_up = await submit(queue, make_cell_job())
                ok, _ = await asyncio.wait_for(follow_up.future, 60)
                assert ok
            finally:
                await pool.stop()

        run_async(scenario())

    def test_idle_crash_respawns_without_burning_an_attempt(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                warm = await submit(queue, make_cell_job())
                ok, _ = await warm.future
                assert ok
                victim = pool.slots[0].worker
                os.kill(victim.pid, signal.SIGKILL)
                # reaped = the kill has fully landed; the next dispatch
                # must hit a dead pipe, not race the signal delivery
                await asyncio.get_running_loop().run_in_executor(
                    None, victim.process.join
                )
                ticket = await submit(queue, make_cell_job())
                ok, _ = await asyncio.wait_for(ticket.future, 60)
                assert ok
                assert ticket.attempts == 1  # idle death is not an attempt
            finally:
                await pool.stop()

        run_async(scenario())


class TestDeadlineKill:
    def test_deadline_mid_cell_kills_worker_and_does_not_leak_it(self):
        """Regression: a serve deadline firing mid-cell must terminate the
        worker process (cells cannot be cancelled cooperatively), reap it,
        and leave the pool healthy — not abandon a hot process."""

        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                victim = pool.slots[0].worker
                ticket = await submit(
                    queue,
                    # minutes of fuel if left alone
                    make_cell_job(source=slow_source(50_000_000)),
                    deadline_s=0.5,
                )
                ok, payload = await asyncio.wait_for(ticket.future, 30)
                assert not ok
                assert payload["code"] == "deadline_exceeded"
                # killed AND reaped: no zombie, no hot leaked process
                assert not victim.process.is_alive()
                assert victim.process.exitcode == -signal.SIGKILL
                assert pool.slots[0].worker is not victim
                assert pool.slots[0].worker.alive()
                assert (
                    pool.metrics.get(
                        "serve.worker_restarts.deadline_kill"
                    )
                    == 1
                )
                # and the replacement serves the next request
                follow_up = await submit(queue, make_cell_job())
                ok, _ = await asyncio.wait_for(follow_up.future, 60)
                assert ok
            finally:
                await pool.stop()

        run_async(scenario())

    def test_deadline_expiring_in_queue_never_reaches_a_worker(self):
        async def scenario():
            queue, pool = await make_pool(size=1)
            try:
                blocker = await submit(
                    queue, make_cell_job(source=slow_source(250000, salt=2))
                )
                await pool.wait_busy()
                doomed = await submit(
                    queue, make_cell_job(), deadline_s=0.001
                )
                ok, payload = await asyncio.wait_for(doomed.future, 60)
                assert not ok and payload["code"] == "deadline_exceeded"
                ok, _ = await asyncio.wait_for(blocker.future, 60)
                assert ok
                # nobody was killed for it: the ticket died in the queue
                assert pool.slots[0].restarts == 0
            finally:
                await pool.stop()

        run_async(scenario())


class TestDrain:
    def test_drain_finishes_inflight_and_shuts_workers_down(self):
        async def scenario():
            queue, pool = await make_pool(size=2)
            tickets = [
                await submit(queue, make_cell_job(source=slow_source(100000, salt=i)))
                for i in range(3)
            ]
            await pool.wait_busy(2)
            await asyncio.wait_for(pool.drain(), 120)
            for ticket in tickets:
                ok, payload = await ticket.future
                assert ok, payload
            # no stray children left behind by the drained pool (other
            # suites may own unrelated multiprocessing children, so check
            # our workers specifically rather than active_children())
            for slot in pool.slots:
                assert not slot.worker.process.is_alive()
                assert slot.worker.process.exitcode is not None

        run_async(scenario())
