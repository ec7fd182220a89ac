"""The ``repro chaos soak`` harness: load under deterministic fault fire.

One soak run is a closed experiment:

1. start an in-process :class:`~repro.serve.server.ReproServer` with a
   :class:`~repro.chaos.plan.FaultPlan` (every site enabled at a low
   rate by default, seeded);
2. drive ``budget`` probes through a :class:`ResilientClient` —
   sequentially, each carrying a deterministic idempotency key
   (``soak-<seed>-<index>``), alternating a *cold* probe (``no_cache``,
   forcing real work) with a *warm* probe of the same cell (exercising
   the cache read and its corrupt/evict faults).  Sequential issue +
   deterministic tokens is what makes the fault schedule reproducible:
   the plan's decision for (site, token, occurrence) never depends on
   wall-clock interleaving;
3. assert the **invariant contract** and write ``CHAOS_REPORT.json``:

   * every probe resolves as ok, a closed-vocabulary error, or an
     explicit shed (server back-pressure or the client's own breaker) —
     zero unexplained outcomes;
   * no leaked workers: every pid the pool ever spawned is reaped after
     drain;
   * a flight-recorder bundle exists for every observed worker crash,
     and every *injected* crash is observed (as a crash replacement or,
     in the rare deadline race, a deadline kill);
   * the metrics/trace plumbing stayed intact under fire (request
     accounting consistent, flight recorder populated).

Replaying a failing campaign is ``repro chaos soak --seed <seed>`` with
the same budget/rate: the report's ``schedule_digest`` is identical
across runs by construction.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..diag.log import get_logger
from .plan import CRASH_SITES, SITES, FaultPlan

_log = get_logger(__name__)

__all__ = ["SOAK_SCHEMA", "SoakConfig", "format_soak_report", "run_soak"]

SOAK_SCHEMA = 1

#: outcomes that count as an explicit shed: the server's deliberate
#: back-pressure vocabulary plus the client-side breaker refusal
SHED_OUTCOMES = frozenset(
    {"queue_full", "deadline_exceeded", "draining", "circuit_open"}
)


@dataclass
class SoakConfig:
    #: number of probes (each an independent logical request)
    budget: int = 60
    seed: int = 0
    #: per-site injection rate; every site in ``sites`` gets it
    rate: float = 0.05
    #: sites to enable (default: all of :data:`~repro.chaos.plan.SITES`)
    sites: tuple[str, ...] = SITES
    workers: int = 2
    #: per-probe deadline — also bounds how long a ``pool.hang`` burns
    deadline_s: float = 5.0
    #: cells the probes cycle through (workload, variant)
    mix: tuple[tuple[str, str], ...] = (
        ("dhrystone", "modref/promo"),
        ("fft", "modref/nopromo"),
    )
    #: interpreter fuel per cell: small enough that a cold probe is
    #: fast, large enough that the cell does real compile+execute work
    max_steps: int = 2_000_000
    #: fresh per-run directories by default (determinism: a pre-warmed
    #: cache would change which probes hit)
    cache_dir: str | None = None
    artifacts_dir: str | None = None
    out: str | None = "CHAOS_REPORT.json"


@dataclass
class _Outcomes:
    ok: int = 0
    errors: int = 0
    shed: int = 0
    unexplained: int = 0
    by_code: dict[str, int] = field(default_factory=dict)

    def count(self, code: str | None) -> None:
        """Classify one resolved probe by its outcome code (None = ok)."""
        if code is None:
            self.ok += 1
            return
        self.by_code[code] = self.by_code.get(code, 0) + 1
        from ..serve.protocol import ERROR_CODES

        if code in SHED_OUTCOMES:
            self.shed += 1
        elif code in ERROR_CODES or code == "connection_lost":
            # connection_lost is the client's closed-vocabulary name for
            # a transport fault that outlived every retry
            self.errors += 1
        else:
            self.unexplained += 1


async def _soak(config: SoakConfig, tmp_root: Path) -> dict:
    from ..serve.client import ResilientClient, ServeClient
    from ..serve.resilience import CircuitBreaker, CircuitOpen, RetryPolicy
    from ..serve.server import ReproServer, ServerConfig

    plan = FaultPlan(
        config.seed, {site: config.rate for site in config.sites}
    )
    cache_dir = config.cache_dir or str(tmp_root / "cache")
    artifacts_dir = config.artifacts_dir or str(tmp_root / "artifacts")
    server = ReproServer(
        ServerConfig(
            port=0,
            workers=config.workers,
            cache_dir=cache_dir,
            artifacts_dir=artifacts_dir,
            default_deadline_s=config.deadline_s,
            # the bundle-per-crash invariant must never saturate the cap
            max_flight_dumps=100_000,
            chaos_plan=plan,
        )
    )
    await server.start()
    outcomes = _Outcomes()
    started = time.perf_counter()
    client = ResilientClient(
        "127.0.0.1",
        server.port,
        retry=RetryPolicy(
            max_attempts=8,
            base_delay_s=0.02,
            max_delay_s=0.25,
            rng=random.Random(config.seed),
        ),
        breaker=CircuitBreaker(failure_threshold=8, recovery_s=1.0),
        key_prefix=f"soak-{config.seed}",
    )
    try:
        for index in range(config.budget):
            workload, variant = config.mix[(index // 2) % len(config.mix)]
            params = {
                "workload": workload,
                "variant": variant,
                "max_steps": config.max_steps,
            }
            if index % 2 == 0:
                # cold probe: bypass the cache read, force real work
                params["no_cache"] = True
            token = f"soak-{config.seed}-{index:04d}"
            try:
                response = await client.request(
                    "suite_cell",
                    params,
                    deadline_s=config.deadline_s,
                    idempotency_key=token,
                )
            except CircuitOpen:
                outcomes.count("circuit_open")
                continue
            except (ConnectionError, OSError):
                outcomes.count("connection_lost")
                continue
            if response.get("ok"):
                outcomes.count(None)
            else:
                outcomes.count(
                    response.get("error", {}).get("code", "unexplained")
                )
        resilience = client.stats.as_dict()
    finally:
        await client.close()

    # post-campaign snapshot over a plain client: metrics is a control
    # op, so chaos never mangles it
    snapshot_error = None
    try:
        probe = await ServeClient.connect("127.0.0.1", server.port)
        try:
            wire_metrics = await probe.call("metrics")
        finally:
            await probe.close()
    except Exception as error:  # noqa: BLE001 - recorded, not fatal
        wire_metrics = {}
        snapshot_error = f"{type(error).__name__}: {error}"

    await server.drain()
    duration_s = time.perf_counter() - started

    registry = server.metrics
    crash_replacements = int(
        registry.get("serve.worker_restarts.crash") or 0
    ) + int(registry.get("serve.worker_restarts.idle_crash") or 0)
    deadline_kills = int(
        registry.get("serve.worker_restarts.deadline_kill") or 0
    )
    requests_served = int(registry.get("serve.requests") or 0)

    leaked = sorted(
        pid for pid in server.pool.spawned_pids if _pid_alive(pid)
    )
    crash_bundles = len(
        [
            name
            for name in _list_dir(artifacts_dir)
            if name.startswith("flight-") and "worker_crash-" in name
        ]
    )
    injected = plan.injected_by_site()
    injected_crashes = sum(
        count for site, count in injected.items() if site in CRASH_SITES
    )

    schedule = [fault.as_dict() for fault in plan.injected]
    invariants = {
        # every probe landed in exactly one bucket, none outside the
        # closed vocabulary
        "all_resolved": (
            outcomes.ok + outcomes.errors + outcomes.shed
            + outcomes.unexplained
            == config.budget
        ),
        "no_unexplained": outcomes.unexplained == 0,
        "no_leaked_workers": not leaked,
        # evidence per crash: every observed crash dumped a bundle, and
        # every injected crash was observed (a deadline may win the race
        # against a crash_during timer on a slow cell, hence the kills
        # term)
        "bundle_per_crash": crash_bundles >= crash_replacements
        and crash_replacements + deadline_kills >= injected_crashes,
        # the observability stack survived: request accounting covers at
        # least every client attempt and the wire snapshot still answers
        "metrics_intact": (
            requests_served >= resilience["attempts"]
            and snapshot_error is None
            and bool(wire_metrics.get("chaos"))
        ),
    }
    report = {
        "schema": SOAK_SCHEMA,
        "seed": config.seed,
        "budget": config.budget,
        "spec": plan.spec(),
        "duration_s": round(duration_s, 3),
        "requests": {
            "total": config.budget,
            "ok": outcomes.ok,
            "closed_vocab_errors": outcomes.errors,
            "shed": outcomes.shed,
            "unexplained": outcomes.unexplained,
        },
        "outcomes_by_code": dict(sorted(outcomes.by_code.items())),
        "resilience": resilience,
        "chaos": plan.describe(),
        "workers": {
            "spawned": len(server.pool.spawned_pids),
            "leaked_pids": leaked,
            "crash_replacements": crash_replacements,
            "deadline_kills": deadline_kills,
        },
        "flight": {
            "crash_bundles": crash_bundles,
            "injected_crashes": injected_crashes,
            "artifacts_dir": artifacts_dir,
        },
        "snapshot_error": snapshot_error,
        "schedule": schedule,
        "schedule_digest": FaultPlan.schedule_digest(schedule),
        "invariants": invariants,
        "passed": all(invariants.values()),
    }
    return report


def run_soak(config: SoakConfig | None = None) -> dict:
    """Run one campaign; returns (and optionally writes) the report."""
    import tempfile

    config = config or SoakConfig()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_root = Path(tmp)
        report = asyncio.run(_soak(config, tmp_root))
        # bundles live in the temp dir unless the caller pinned a
        # directory; preserve the evidence on failure
        if not report["passed"] and config.artifacts_dir is None:
            keep = Path("chaos-artifacts")
            keep.mkdir(exist_ok=True)
            import shutil

            for name in _list_dir(report["flight"]["artifacts_dir"]):
                shutil.copy2(
                    Path(report["flight"]["artifacts_dir"]) / name, keep
                )
            report["flight"]["artifacts_dir"] = str(keep)
    if config.out:
        Path(config.out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_soak_report(report: dict) -> str:
    requests = report["requests"]
    injected = report["chaos"]["injected_by_site"]
    lines = [
        f"chaos soak: seed {report['seed']}, {report['budget']} probes in "
        f"{report['duration_s']:.1f}s ({report['spec']})",
        f"  outcomes: ok {requests['ok']}  "
        f"closed-vocab errors {requests['closed_vocab_errors']}  "
        f"shed {requests['shed']}  unexplained {requests['unexplained']}",
        f"  injected {report['chaos']['injected']} fault(s) over "
        f"{report['chaos']['consults']} decision point(s): "
        + (
            "  ".join(f"{site}={n}" for site, n in injected.items())
            or "none"
        ),
        f"  workers: {report['workers']['spawned']} spawned, "
        f"{report['workers']['crash_replacements']} crash replacement(s), "
        f"{report['workers']['deadline_kills']} deadline kill(s), "
        f"leaked {report['workers']['leaked_pids'] or 'none'}",
        f"  flight bundles: {report['flight']['crash_bundles']} for "
        f"{report['flight']['injected_crashes']} injected crash(es)",
        f"  schedule digest: {report['schedule_digest'][:16]}",
    ]
    if report.get("resilience", {}).get("retried"):
        resilience = report["resilience"]
        lines.append(
            f"  client absorbed: retried {resilience['retried']} "
            f"({resilience['retries_by_code']})  "
            f"reconnects {resilience['reconnects']}  "
            f"breaker-open {resilience['breaker_open']}"
        )
    failed = [
        name for name, held in report["invariants"].items() if not held
    ]
    lines.append(
        "  PASS: all invariants held"
        if report["passed"]
        else f"  FAIL: {', '.join(failed)}"
    )
    return "\n".join(lines)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _list_dir(path: str) -> list[str]:
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []
