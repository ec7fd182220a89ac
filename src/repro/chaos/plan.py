"""The fault plan: a deterministic, seed-driven fault schedule.

A :class:`FaultPlan` answers one question at every registered injection
site: *should this decision point fail, and how hard?*  The answer is a
pure function of ``(seed, site, token, occurrence)``:

* **site** — one of the closed :data:`SITES` registry (where in the
  stack the fault is enacted);
* **token** — the stable identity of the decision point.  The serving
  stack uses the request's idempotency key when the client sent one
  (the soak harness always does), falling back to the content-addressed
  request digest — either way the token is reproducible across runs,
  which is what makes a campaign replayable from its seed;
* **occurrence** — how many times this (site, token) pair has been
  consulted before.  A request that is retried consults the same token
  again at the next occurrence, so the retry's fate is *also* decided
  by the seed, not by wall-clock races.

Because the decision function is pure, the full first-attempt schedule
for a known token sequence can be computed up front
(:meth:`FaultPlan.schedule`) and compared across runs — that is the
determinism contract ``repro chaos soak`` pins: same seed, same
(site, request, timing-step) schedule.

Rates come from a compact spec string (``--chaos-plan``)::

    seed=0,rate=0.05                      # every site at 5%
    seed=7,pool.crash_during=1.0,limit=1  # one targeted crash
    seed=3,rate=0.02,cache.corrupt=0.3    # default + per-site override

``limit=N`` caps the number of injections per site (useful for targeted
regression tests; the cap counter is consult-ordered, so under
concurrency it trades determinism for precision — the soak harness
never uses it).  ``delay-max-ms=N`` bounds the deterministic timing
step attached to delay-shaped faults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultSpec", "SITES", "request_token"]

#: the closed registry of injection sites, grouped by the seam that
#: enacts them (see docs/CHAOS.md for the fault each one produces)
SITES = (
    # worker pool (pool.py): decided parent-side, enacted in the child
    "pool.crash_before",   # worker exits before starting the cell
    "pool.crash_during",   # worker exits mid-cell (never replies)
    "pool.crash_after",    # worker computes the cell, exits before reply
    "pool.hang",           # worker sleeps forever -> deadline kill
    "pool.slow_start",     # fresh worker sleeps before serving
    # server event loop (server.py)
    "server.admission_stall",  # delay before the admission-queue put
    "server.dispatch_delay",   # delay before the job ships to a worker
    # wire protocol (protocol.py seam): enacted on response frames
    "protocol.truncate",   # write half the frame, then hang up
    "protocol.hangup",     # drop the response, close the connection
    "protocol.split",      # write the frame in two flushes (benign)
    "protocol.oversize",   # pad the frame beyond the client's limit
    # result cache (cache.py seam)
    "cache.corrupt",       # overwrite the entry with garbage bytes
    "cache.evict",         # delete the entry out from under the read
)

_SITE_SET = frozenset(SITES)

#: sites whose enactment kills a worker process exactly once
CRASH_SITES = frozenset(
    {"pool.crash_before", "pool.crash_during", "pool.crash_after"}
)

#: default cap on the deterministic delay step (milliseconds)
DEFAULT_DELAY_MAX_MS = 50


@dataclass(frozen=True)
class FaultSpec:
    """One decided fault: where, for whom, and its timing step."""

    site: str
    token: str
    occurrence: int
    #: deterministic delay magnitude in milliseconds (the "timing step");
    #: delay-shaped sites sleep this long, crash_during arms its exit
    #: timer with it, other sites carry it for the schedule record only
    delay_ms: int

    @property
    def delay_s(self) -> float:
        return self.delay_ms / 1000.0

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "token": self.token,
            "occurrence": self.occurrence,
            "delay_ms": self.delay_ms,
        }

    def worker_payload(self) -> dict:
        """The shape shipped inside a job dict for child-side enactment."""
        return {"site": self.site, "delay_ms": self.delay_ms}


def request_token(op: str, params: dict | None) -> str:
    """Stable fallback token for a request without an idempotency key:
    a digest of the request *content* (never the wire ``id``, which is a
    per-connection counter and differs run to run)."""
    import json

    canonical = json.dumps(
        {"op": op, "params": params or {}}, sort_keys=True, default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class FaultPlan:
    """Seed + per-site rates + the deterministic decision function.

    Instances carry two kinds of state on top of the pure decision
    function: per-(site, token) occurrence counters (so repeat consults
    advance deterministically) and the log of injected faults
    (:attr:`injected`, the replay evidence ``CHAOS_REPORT.json``
    records).  Neither affects *what* is decided for a given
    (site, token, occurrence) triple — :meth:`would_inject` is static.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: dict[str, float] | None = None,
        *,
        max_injections_per_site: int | None = None,
        delay_max_ms: int = DEFAULT_DELAY_MAX_MS,
    ) -> None:
        rates = dict(rates or {})
        unknown = set(rates) - _SITE_SET
        if unknown:
            raise ValueError(
                f"unknown chaos sites {sorted(unknown)}; "
                f"known: {list(SITES)}"
            )
        for site, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site} must be in [0, 1], got {rate}")
        if max_injections_per_site is not None and max_injections_per_site < 0:
            raise ValueError(
                f"limit must be >= 0, got {max_injections_per_site}"
            )
        self.seed = int(seed)
        self.rates = rates
        self.max_injections_per_site = max_injections_per_site
        self.delay_max_ms = max(1, int(delay_max_ms))
        self._occurrences: dict[tuple[str, str], int] = {}
        self._site_injections: dict[str, int] = {}
        #: every injected fault, in consult order
        self.injected: list[FaultSpec] = []
        #: total decision points consulted (injected or not)
        self.consults = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from the ``--chaos-plan`` spec grammar."""
        seed = 0
        default_rate: float | None = None
        rates: dict[str, float] = {}
        limit: int | None = None
        delay_max_ms = DEFAULT_DELAY_MAX_MS
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise ValueError(
                    f"chaos plan entries are key=value, got {part!r}"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "rate":
                    default_rate = float(value)
                elif key == "limit":
                    limit = int(value)
                elif key == "delay-max-ms":
                    delay_max_ms = int(value)
                elif key in _SITE_SET:
                    rates[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown chaos plan key {key!r} "
                        f"(sites: {list(SITES)})"
                    )
            except ValueError as error:
                if "unknown chaos" in str(error):
                    raise
                raise ValueError(
                    f"bad value for chaos plan key {key!r}: {value!r}"
                ) from None
        if default_rate is not None:
            for site in SITES:
                rates.setdefault(site, default_rate)
        return cls(
            seed,
            rates,
            max_injections_per_site=limit,
            delay_max_ms=delay_max_ms,
        )

    @classmethod
    def all_sites(cls, seed: int, rate: float, **kw) -> "FaultPlan":
        """Every site enabled at one uniform rate (the soak default)."""
        return cls(seed, {site: rate for site in SITES}, **kw)

    def spec(self) -> str:
        """Canonical spec string that :meth:`parse` round-trips."""
        parts = [f"seed={self.seed}"]
        parts.extend(
            f"{site}={self.rates[site]:g}"
            for site in SITES
            if site in self.rates
        )
        if self.max_injections_per_site is not None:
            parts.append(f"limit={self.max_injections_per_site}")
        if self.delay_max_ms != DEFAULT_DELAY_MAX_MS:
            parts.append(f"delay-max-ms={self.delay_max_ms}")
        return ",".join(parts)

    # -- the decision function ---------------------------------------------

    def _draw(self, site: str, token: str, occurrence: int) -> tuple[float, int]:
        digest = hashlib.sha256(
            f"{self.seed}:{site}:{token}:{occurrence}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        delay_ms = 1 + int.from_bytes(digest[8:10], "big") % self.delay_max_ms
        return u, delay_ms

    def would_inject(
        self, site: str, token: str, occurrence: int = 0
    ) -> FaultSpec | None:
        """The pure decision: no counters advanced, nothing logged."""
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return None
        u, delay_ms = self._draw(site, token, occurrence)
        if u >= rate:
            return None
        return FaultSpec(site, token, occurrence, delay_ms)

    def decide(self, site: str, token: str) -> FaultSpec | None:
        """Consult the plan at one decision point (advances counters)."""
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return None
        occurrence = self._occurrences.get((site, token), 0)
        self._occurrences[(site, token)] = occurrence + 1
        self.consults += 1
        fault = self.would_inject(site, token, occurrence)
        if fault is None:
            return None
        if self.max_injections_per_site is not None:
            done = self._site_injections.get(site, 0)
            if done >= self.max_injections_per_site:
                return None
            self._site_injections[site] = done + 1
        self.injected.append(fault)
        return fault

    # -- schedules and reporting -------------------------------------------

    def schedule(self, tokens: list[str], occurrences: int = 1) -> list[dict]:
        """The pure first-``occurrences`` schedule over a token sequence,
        canonically ordered — identical across runs by construction."""
        entries = []
        for token in tokens:
            for site in SITES:
                for occurrence in range(occurrences):
                    fault = self.would_inject(site, token, occurrence)
                    if fault is not None:
                        entries.append(fault.as_dict())
        entries.sort(
            key=lambda e: (e["token"], e["site"], e["occurrence"])
        )
        return entries

    @staticmethod
    def schedule_digest(entries: list[dict]) -> str:
        import json

        ordered = sorted(
            entries,
            key=lambda e: (e["token"], e["site"], e["occurrence"]),
        )
        canonical = json.dumps(ordered, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def injected_by_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fault in self.injected:
            counts[fault.site] = counts.get(fault.site, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> dict:
        """Plan facts for the ``metrics`` endpoint / CHAOS_REPORT."""
        return {
            "seed": self.seed,
            "spec": self.spec(),
            "rates": dict(sorted(self.rates.items())),
            "limit": self.max_injections_per_site,
            "delay_max_ms": self.delay_max_ms,
            "consults": self.consults,
            "injected": len(self.injected),
            "injected_by_site": self.injected_by_site(),
        }
