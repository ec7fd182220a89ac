"""Client-side resilience primitives: retry policy and circuit breaker.

These are the building blocks :class:`~repro.serve.client.ResilientClient`
composes.  Each one takes its clock / randomness as an injectable so the
state machines are exhaustively testable with a fake clock and a scripted
rng — ``tests/serve/test_resilience.py`` runs every transition with zero
real sleeps.

* :class:`RetryPolicy` — which error codes are worth retrying (the
  closed vocabulary: ``worker_crashed``, ``queue_full``,
  ``deadline_exceeded``, plus transport-level connection errors) and the
  jittered exponential backoff schedule between attempts;
* :class:`CircuitBreaker` — the classic closed/open/half-open machine
  per host: consecutive failures trip it open, a recovery timeout lets
  one half-open probe through, the probe's outcome closes or re-opens
  it.  While open, requests fail fast with a *client-side* shed
  (``circuit_open``) instead of hammering a sick server;
* :class:`ResilienceStats` — the counters ``repro loadgen`` folds into
  ``BENCH_serve.json`` so resilience behaviour is benchmarked alongside
  latency.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "ResilienceStats",
    "RetryPolicy",
    "RETRYABLE_CODES",
]

#: the closed vocabulary of server error codes a retry can fix: the
#: work was lost to a crash, shed under pressure, or timed out — all
#: safe to re-send under the same idempotency key.  Everything else
#: (``cell_failed``, ``invalid_params``, ``draining``, ...) is
#: deterministic or terminal and retrying would only repeat it.
RETRYABLE_CODES = frozenset(
    {"worker_crashed", "queue_full", "deadline_exceeded"}
)


class CircuitOpen(Exception):
    """Request shed client-side: the breaker is open for this host."""


class RetryPolicy:
    """Jittered exponential backoff over the retryable vocabulary."""

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 0.05,
        max_delay_s: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        rng: random.Random | None = None,
    ) -> None:
        assert max_attempts >= 1
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        #: fraction of the nominal delay randomized away: delay is drawn
        #: uniformly from [(1-jitter)·d, d], decorrelating retry storms
        self.jitter = jitter
        self.rng = rng or random.Random()

    def retryable(self, code: str) -> bool:
        return code in RETRYABLE_CODES

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry)."""
        nominal = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** (attempt - 1),
        )
        if self.jitter <= 0:
            return nominal
        low = nominal * (1.0 - self.jitter)
        return low + (nominal - low) * self.rng.random()

    def schedule(self) -> list[float]:
        """The nominal (jitter-free) delays between all attempts."""
        return [
            min(
                self.max_delay_s,
                self.base_delay_s * self.multiplier ** (attempt - 1),
            )
            for attempt in range(1, self.max_attempts)
        ]


class CircuitBreaker:
    """Closed / open / half-open failure gate, fake-clock testable.

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip to open;
    * **open** — :meth:`allow` refuses everything until ``recovery_s``
      has elapsed, then transitions to half-open;
    * **half-open** — exactly one in-flight probe is let through
      (concurrent callers are still refused, which is the race the
      tests pin); probe success closes the breaker, probe failure
      re-opens it and restarts the recovery clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        assert failure_threshold >= 1
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self.clock = clock
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at: float | None = None
        self._probe_inflight = False
        #: times the breaker tripped open (cumulative, for stats)
        self.trips = 0

    def allow(self) -> bool:
        """May a request proceed right now?  (Advances open→half-open.)"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if self.clock() - self.opened_at >= self.recovery_s:
                self.state = self.HALF_OPEN
                self._probe_inflight = False
            else:
                return False
        # half-open: admit exactly one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._probe_inflight = False
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self.opened_at = None

    def record_failure(self) -> None:
        if self.state == self.HALF_OPEN:
            # the probe failed: straight back to open, clock restarted
            self._trip()
            return
        self.failures += 1
        if self.state == self.CLOSED and self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self.opened_at = self.clock()
        self.failures = 0
        self._probe_inflight = False
        self.trips += 1


@dataclass
class ResilienceStats:
    """What the resilient client did on the caller's behalf."""

    attempts: int = 0
    retried: int = 0
    reconnects: int = 0
    #: requests shed client-side because the breaker was open
    breaker_open: int = 0
    retries_by_code: dict[str, int] = field(default_factory=dict)

    def record_retry(self, code: str) -> None:
        self.retried += 1
        self.retries_by_code[code] = self.retries_by_code.get(code, 0) + 1

    def as_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retried": self.retried,
            "reconnects": self.reconnects,
            "breaker_open": self.breaker_open,
            "retries_by_code": dict(sorted(self.retries_by_code.items())),
        }
