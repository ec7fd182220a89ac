"""The content-addressed store behind the cell cache and the function
store, plus the canonical JSON and source fingerprint their keys use.

Entries live at ``<root>/<first two hex of the key>/<key><suffix>``, so
a directory stays listable with tens of thousands of entries.  Writes go
to a temp name unique to the process and the write, then rename into
place, so concurrent writers never collide and readers never see a torn
entry.  A failed write logs a warning and leaves the value uncached.  An
entry that does not decode is logged, unlinked and read as a miss; one
that fails the payload check is a miss.  Configurations that set
``memory`` keep up to :data:`MEMORY_ENTRIES` encoded entries in a
per-process FIFO layer and decode on every hit, so each hit is a fresh
object; ``root=None`` makes them memory-only.  With a disk, the layer
holds what was read, not what was written: a record an edit replaces
is never read again.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import os
from contextlib import suppress
from pathlib import Path

from .diag.log import get_logger

__all__ = ["MEMORY_ENTRIES", "Store", "canonical_digest", "code_fingerprint"]

#: bound on a memory layer, in entries (FIFO eviction beyond it)
MEMORY_ENTRIES = 4096

#: top-level ``repro`` directories whose edits do not affect results
_NON_SEMANTIC_PARTS = ("runner", "serve")

#: per-process write counter: with the pid, makes every temp name unique
_WRITES = itertools.count()

_log = get_logger(__name__)


def _encode(value):
    """JSON form of what :mod:`json` cannot encode: options dataclasses as
    field dicts, enums as their values, anything else as its ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


def canonical_digest(value: object) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON form."""
    canonical = json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=_encode
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every semantic source file of the ``repro`` package."""
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in _NON_SEMANTIC_PARTS:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class Store:
    """Entries keyed by hex digest.  A configuration sets ``suffix`` and
    ``memory`` and supplies ``encode``/``decode`` (raising on a corrupt
    entry) and ``accepts`` (the payload check)."""

    #: file extension of an entry on disk
    suffix = ""
    #: keep a bounded in-process memo of encoded entries
    memory = False

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) if root is not None else None
        self._memory: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        # stores travel to pool workers by pickle; the memory layer is a
        # per-process warm layer and would be dead weight on the wire
        state = self.__dict__.copy()
        state["_memory"] = {}
        return state

    def path_for(self, key: str) -> Path:
        if self.root is None:
            raise ValueError("memory-only store has no paths")
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _remember(self, key: str, blob: bytes) -> None:
        if self.memory:
            memo = self._memory
            while key not in memo and len(memo) >= MEMORY_ENTRIES:
                del memo[next(iter(memo))]
            memo[key] = blob

    def get(self, key: str):
        value = self._load(key)
        if value is None or not self.accepts(value):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _load(self, key: str):
        blob = self._memory.get(key)
        if blob is None and self.root is not None:
            with suppress(OSError):
                blob = self.path_for(key).read_bytes()
                self._remember(key, blob)
        if blob is None:
            return None
        try:
            return self.decode(blob)
        except Exception as error:  # corrupt entry: drop it, read a miss
            _log.warning("dropping corrupt cache entry %s: %s", key, error)
            self._memory.pop(key, None)
            if self.root is not None:
                with suppress(OSError):
                    self.path_for(key).unlink(missing_ok=True)
            return None

    def put(self, key: str, value) -> None:
        blob = self.encode(value)
        if self.root is None:
            self._remember(key, blob)
            return
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_WRITES)}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError as error:
            _log.warning("cache write to %s failed, left uncached: %s", path, error)
            with suppress(OSError):
                tmp.unlink(missing_ok=True)

    def _entries(self):
        return () if self.root is None else self.root.rglob(f"*{self.suffix}")

    def clear(self) -> int:
        """Remove every entry (memory and disk); returns the disk count."""
        self._memory.clear()
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return sum(1 for _ in self._entries())
