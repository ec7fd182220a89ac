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
* :mod:`~repro.serve.pool` — persistent workers executing
  :mod:`repro.runner.scheduler` cells; crash respawn + retry-once,
  recycling, deadline kills;
* :mod:`~repro.serve.server` — the asyncio server and endpoint logic;
* :mod:`~repro.serve.resilience` — retry policy, circuit breaker, and
  latency tracking behind the resilient client;
* :mod:`~repro.serve.client` — pipelining client, the self-healing
  :class:`ResilientClient`, + the ``repro loadgen`` campaign harness.

Fault injection for all of the above lives in :mod:`repro.chaos`; the
server takes a plan via ``ServerConfig.chaos_plan``.

See ``docs/SERVING.md`` for the protocol spec and the ops runbook.
"""

from __future__ import annotations

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "LoadgenConfig",
    "ReproServer",
    "ResilientClient",
    "RetryPolicy",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "SingleFlight",
    "WorkerPool",
    "run_loadgen",
    "wait_for_server",
]

_LAZY = {
    "AdmissionQueue": "queue",
    "CircuitBreaker": "resilience",
    "LoadgenConfig": "client",
    "ReproServer": "server",
    "ResilientClient": "client",
    "RetryPolicy": "resilience",
    "ServeClient": "client",
    "ServeError": "client",
    "ServerConfig": "server",
    "SingleFlight": "coalesce",
    "WorkerPool": "pool",
    "run_loadgen": "client",
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
