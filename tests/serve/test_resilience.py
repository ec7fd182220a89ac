"""Client-side resilience state machines under a fake clock.

Every test here is pure: the breaker's clock, the retry policy's rng,
and the resilient client's sleep/connect are all injected, so the
whole retry/breaker behaviour runs in microseconds with zero real
sleeps and no server.
"""

import random

import pytest

from repro.serve.resilience import (
    RETRYABLE_CODES,
    CircuitBreaker,
    CircuitOpen,
    ResilienceStats,
    RetryPolicy,
)
from repro.serve.client import ResilientClient
from tests.serve.helpers import run_async


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeServeClient:
    """Scripted stand-in for ServeClient: one behaviour per attempt.

    Behaviours: ``("ok", payload)``, ``("error", code)``, ``"crash"``
    (transport failure).
    """

    def __init__(self, script) -> None:
        self.script = script
        self.requests = []  # (op, idempotency_key) per attempt
        self.closed = False

    async def request(self, op, params=None, **kw):
        self.requests.append((op, kw.get("idempotency_key")))
        action = self.script.pop(0)
        if action == "crash":
            raise ConnectionError("scripted transport failure")
        kind, value = action
        if kind == "ok":
            return {"ok": True, "result": value}
        return {"ok": False, "error": {"code": value, "message": "scripted"}}

    async def close(self) -> None:
        self.closed = True


def make_client(script, **kw):
    """A ResilientClient wired to a scripted fake: no sockets, no time.

    Returns ``(client, sleeps)`` where ``sleeps`` records every backoff
    the client would have slept.
    """
    fakes = [FakeServeClient(s) for s in script]
    sleeps = []

    async def connect(host, port):
        return fakes.pop(0)

    async def sleep(seconds):
        sleeps.append(seconds)

    kw.setdefault(
        "retry", RetryPolicy(max_attempts=4, jitter=0.0, base_delay_s=0.1)
    )
    kw.setdefault("breaker", CircuitBreaker(failure_threshold=3))
    client = ResilientClient(
        "fake", 0, connect=connect, sleep=sleep, key_prefix="t", **kw
    )
    return client, sleeps


class TestRetryPolicy:
    def test_retryable_vocabulary_is_closed(self):
        policy = RetryPolicy()
        for code in RETRYABLE_CODES:
            assert policy.retryable(code)
        for code in ("cell_failed", "invalid_params", "draining", "internal"):
            assert not policy.retryable(code)

    def test_nominal_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
        )
        assert policy.schedule() == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_draws_from_the_bottom_fraction(self):
        policy = RetryPolicy(
            base_delay_s=1.0, jitter=0.5, rng=random.Random(7)
        )
        for _ in range(50):
            delay = policy.delay_s(1)
            assert 0.5 <= delay <= 1.0

    def test_zero_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.25, jitter=0.0)
        assert policy.delay_s(1) == 0.25
        assert policy.delay_s(2) == 0.5


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_s=30.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # concurrent caller while probe in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_clock(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_s=10.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        clock.advance(9.9)
        assert not breaker.allow()  # full recovery window again
        clock.advance(0.2)
        assert breaker.allow()


class TestResilientClientRetries:
    def test_retries_retryable_code_then_succeeds(self):
        client, sleeps = make_client(
            [[("error", "worker_crashed"), ("ok", {"n": 1})]]
        )

        async def scenario():
            response = await client.request("run", {"x": 1})
            assert response["ok"]
            assert client.stats.attempts == 2
            assert client.stats.retried == 1
            assert client.stats.retries_by_code == {"worker_crashed": 1}
            assert sleeps == [0.1]  # one backoff, zero real sleeps

        run_async(scenario())

    def test_same_idempotency_key_on_every_attempt(self):
        client, _ = make_client(
            [[("error", "queue_full"), ("error", "queue_full"), ("ok", {})]]
        )

        async def scenario():
            await client.request("run", {}, idempotency_key="job-9")
            fake = client._client
            assert [key for _, key in fake.requests] == ["job-9"] * 3

        run_async(scenario())

    def test_non_retryable_code_returns_immediately(self):
        client, sleeps = make_client([[("error", "cell_failed")]])

        async def scenario():
            response = await client.request("run", {})
            assert response["error"]["code"] == "cell_failed"
            assert client.stats.attempts == 1
            assert client.stats.retried == 0
            assert sleeps == []
            # a definitive answer is host health, not failure
            assert client.breaker.state == CircuitBreaker.CLOSED

        run_async(scenario())

    def test_exhausted_retries_return_the_last_error(self):
        client, sleeps = make_client(
            [[("error", "deadline_exceeded")] * 4],
            breaker=CircuitBreaker(failure_threshold=10),
        )

        async def scenario():
            response = await client.request("run", {})
            assert response["error"]["code"] == "deadline_exceeded"
            assert client.stats.attempts == 4
            assert client.stats.retried == 3
            assert len(sleeps) == 3

        run_async(scenario())

    def test_transport_failure_reconnects_with_backoff(self):
        # two scripted connections: the first one's only attempt crashes,
        # the second serves the retry
        client, sleeps = make_client([["crash"], [("ok", {"n": 2})]])

        async def scenario():
            response = await client.request("run", {})
            assert response["ok"]
            assert client.stats.reconnects == 1
            assert client.stats.retries_by_code == {"connection_lost": 1}
            assert sleeps == [0.1]

        run_async(scenario())

    def test_transport_failure_on_last_attempt_raises(self):
        client, _ = make_client(
            [["crash"], ["crash"]],
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
        )

        async def scenario():
            with pytest.raises(ConnectionError):
                await client.request("run", {})
            assert client.stats.attempts == 2

        run_async(scenario())


class TestResilientClientBreaker:
    def test_open_breaker_sheds_client_side(self):
        clock = FakeClock()
        client, _ = make_client(
            [[("error", "worker_crashed")] * 2],
            retry=RetryPolicy(max_attempts=2, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2, clock=clock),
        )

        async def scenario():
            response = await client.request("run", {})
            assert not response["ok"]  # both attempts failed → breaker open
            assert client.breaker.state == CircuitBreaker.OPEN
            with pytest.raises(CircuitOpen):
                await client.request("run", {})
            assert client.stats.breaker_open == 1

        run_async(scenario())

    def test_half_open_probe_success_recloses(self):
        clock = FakeClock()
        client, _ = make_client(
            [[("error", "worker_crashed"), ("ok", {})]],
            retry=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(
                failure_threshold=1, recovery_s=5.0, clock=clock
            ),
        )

        async def scenario():
            await client.request("run", {})  # trips the breaker
            assert client.breaker.state == CircuitBreaker.OPEN
            clock.advance(5.1)
            response = await client.request("run", {})  # the probe
            assert response["ok"]
            assert client.breaker.state == CircuitBreaker.CLOSED

        run_async(scenario())


class TestStats:
    def test_as_dict_is_sorted_and_complete(self):
        stats = ResilienceStats()
        stats.attempts = 5
        stats.record_retry("queue_full")
        stats.record_retry("worker_crashed")
        stats.record_retry("queue_full")
        payload = stats.as_dict()
        assert payload["retried"] == 3
        assert list(payload["retries_by_code"]) == [
            "queue_full", "worker_crashed",
        ]
        assert set(payload) == {
            "attempts", "retried", "reconnects", "breaker_open",
            "retries_by_code",
        }
