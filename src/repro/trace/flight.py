"""Always-on flight recorder: a bounded ring of recent spans and logs.

The serving layer (and the fuzzer) keep one :class:`FlightRecorder`
running regardless of sampling: a preallocated ring buffer whose slots
are plain dicts with a fixed key set, updated **in place** — recording a
span allocates nothing, so the recorder can stay on in production.  When
something dies without warning (worker crash, deadline SIGKILL, drain
timeout, fuzz divergence) the ring holds the last-N spans and recent log
records from *before* the failure, and :meth:`FlightRecorder.dump`
writes them as a crash bundle in the same spirit as ``fuzz-artifacts/``
divergence bundles: a directory with ``meta.json``, ``spans.jsonl`` and
``logs.txt``.

A module-level recorder can be installed with
:func:`install_flight_recorder` so distant subsystems (the fuzz
campaign, the pool) can feed it without plumbing; it is never installed
implicitly.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .spans import SpanEvent

__all__ = [
    "FlightLogHandler",
    "FlightRecorder",
    "flight_recorder",
    "install_flight_recorder",
    "uninstall_flight_recorder",
]

#: the fixed slot schema — every ring slot always has exactly these keys
_SLOT_KEYS = (
    "name",
    "trace_id",
    "span_id",
    "parent_id",
    "worker",
    "wall_start",
    "start",
    "seconds",
    "args",
)


class FlightLogHandler(logging.Handler):
    """A logging handler that keeps the last N formatted records in a
    ring, for inclusion in crash bundles."""

    def __init__(self, capacity: int = 200) -> None:
        super().__init__()
        self.capacity = max(1, int(capacity))
        self._lines: list[str | None] = [None] * self.capacity
        self._next = 0
        self._count = 0

    def emit(self, record: logging.LogRecord) -> None:
        try:
            line = self.format(record)
        except Exception:  # pragma: no cover - formatter misconfiguration
            line = record.getMessage()
        self._lines[self._next % self.capacity] = line
        self._next += 1
        self._count = min(self._count + 1, self.capacity)

    def snapshot(self) -> list[str]:
        """Retained log lines, oldest first."""
        if self._count < self.capacity:
            lines = self._lines[: self._count]
        else:
            split = self._next % self.capacity
            lines = self._lines[split:] + self._lines[:split]
        return [line for line in lines if line is not None]


class FlightRecorder:
    """Bounded ring buffer of recent span records.

    ``capacity`` slots are preallocated as dicts at construction; the hot
    path (:meth:`record_span`) only assigns into the next slot's existing
    keys and advances an index — no allocation, no locking (single
    process, and the asyncio server records from one thread).
    """

    def __init__(self, capacity: int = 512, log_capacity: int = 200) -> None:
        self.capacity = max(1, int(capacity))
        self._slots: list[dict] = [
            dict.fromkeys(_SLOT_KEYS) for _ in range(self.capacity)
        ]
        self._next = 0
        self._count = 0
        self.dumps = 0
        self.log_handler = FlightLogHandler(log_capacity)
        self.log_handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )

    # -- recording (hot path) ---------------------------------------------

    def record_span(
        self,
        name: str,
        *,
        seconds: float,
        start: float = 0.0,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent_id: str | None = None,
        worker: str | None = None,
        wall_start: float | None = None,
        args: dict | None = None,
    ) -> None:
        slot = self._slots[self._next % self.capacity]
        slot["name"] = name
        slot["trace_id"] = trace_id
        slot["span_id"] = span_id
        slot["parent_id"] = parent_id
        slot["worker"] = worker
        slot["wall_start"] = wall_start
        slot["start"] = start
        slot["seconds"] = seconds
        slot["args"] = args
        self._next += 1
        self._count = min(self._count + 1, self.capacity)

    def record_event(self, name: str, seconds: float = 0.0, **args: object) -> None:
        """Record a coarse marker (one per request, per batch, ...)."""
        self.record_span(
            name,
            seconds=seconds,
            wall_start=time.time() - seconds,
            args=args or None,
        )

    # -- inspection ---------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._count

    @property
    def dropped(self) -> int:
        """Spans that have been overwritten by newer ones."""
        return max(0, self._next - self.capacity)

    def _iter_slots(self) -> Iterator[dict]:
        if self._count < self.capacity:
            yield from self._slots[: self._count]
            return
        split = self._next % self.capacity
        yield from self._slots[split:]
        yield from self._slots[:split]

    def snapshot(self) -> list[dict]:
        """Retained spans, oldest first, as independent dicts."""
        records = []
        for slot in self._iter_slots():
            record = {k: v for k, v in slot.items() if v is not None}
            records.append(record)
        return records

    # -- crash bundles -------------------------------------------------------

    def dump(
        self,
        directory: str | Path,
        reason: str,
        extra_spans: "list[SpanEvent] | None" = None,
        meta: dict | None = None,
    ) -> Path:
        """Write a crash bundle and return its directory.

        The bundle holds the ring contents (``spans.jsonl``, with any
        ``extra_spans`` — e.g. the killed request's partial trace —
        appended after a blank-line-free stream), retained log lines
        (``logs.txt``) and a ``meta.json`` describing the trigger.
        """
        self.dumps += 1
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        root = Path(directory)
        bundle = root / f"flight-{stamp}-{reason}-{self.dumps:03d}"
        bundle.mkdir(parents=True, exist_ok=True)

        records = self.snapshot()
        if extra_spans:
            records.extend(event.as_dict() for event in extra_spans)
        with (bundle / "spans.jsonl").open("w") as fh:
            for record in records:
                fh.write(json.dumps(record, default=str) + "\n")

        (bundle / "logs.txt").write_text(
            "\n".join(self.log_handler.snapshot()) + "\n"
        )

        bundle_meta = {
            "schema": 1,
            "reason": reason,
            "written_at": time.time(),
            "spans": len(records),
            "ring": {
                "capacity": self.capacity,
                "occupancy": self.occupancy,
                "dropped": self.dropped,
            },
        }
        if meta:
            bundle_meta.update(meta)
        (bundle / "meta.json").write_text(json.dumps(bundle_meta, indent=2) + "\n")
        return bundle


_RECORDER: FlightRecorder | None = None


def install_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-global one (and hook it into the
    ``repro`` logger so recent log records land in crash bundles)."""
    global _RECORDER
    uninstall_flight_recorder()
    _RECORDER = recorder
    logging.getLogger("repro").addHandler(recorder.log_handler)
    return recorder


def uninstall_flight_recorder() -> None:
    global _RECORDER
    if _RECORDER is not None:
        logging.getLogger("repro").removeHandler(_RECORDER.log_handler)
    _RECORDER = None


def flight_recorder() -> FlightRecorder | None:
    return _RECORDER
