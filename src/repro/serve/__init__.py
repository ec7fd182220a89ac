"""``repro.serve`` — the resident compile-and-execute service.

Turns the one-shot experiment pipeline into a serving system: a
stdlib-only asyncio TCP server (newline-delimited JSON) in front of a
persistent worker pool that keeps imports, compiled modules, and the
interpreter's generated code warm across requests.

Modules:

* :mod:`~repro.serve.protocol` — wire framing, ops, error codes;
* :mod:`~repro.serve.queue` — bounded admission queue: backpressure,
  priority lanes, per-request deadlines;
* :mod:`~repro.serve.coalesce` — single-flight deduplication of
  identical in-flight requests (content-addressed keys);
* :mod:`~repro.serve.pool` — drives :mod:`repro.runner.pool`'s
  persistent workers from the admission queue; crash respawn +
  retry-once, recycling, deadline kills;
* :mod:`~repro.serve.server` — the asyncio server and endpoint logic;
* :mod:`~repro.serve.resilience` — retry policy, circuit breaker, and
  latency tracking behind the resilient client;
* :mod:`~repro.serve.client` — pipelining client and the self-healing
  :class:`ResilientClient`.

The ``repro loadgen`` campaign that benchmarks a running server lives
with the other benches in :mod:`repro.bench.serve`.

Fault injection for all of the above lives in :mod:`repro.chaos`; the
server takes a plan via ``ServerConfig.chaos_plan``.

See ``docs/SERVING.md`` for the protocol spec and the ops runbook.
"""

from __future__ import annotations

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "ReproServer",
    "ResilientClient",
    "RetryPolicy",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "SingleFlight",
    "WorkerPool",
    "wait_for_server",
]

_LAZY = {
    "AdmissionQueue": "queue",
    "CircuitBreaker": "resilience",
    "ReproServer": "server",
    "ResilientClient": "client",
    "RetryPolicy": "resilience",
    "ServeClient": "client",
    "ServeError": "client",
    "ServerConfig": "server",
    "SingleFlight": "coalesce",
    "WorkerPool": "pool",
    "wait_for_server": "client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
