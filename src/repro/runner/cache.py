"""Content-addressed on-disk result cache for experiment cells.

A cell's key is the SHA-256 of everything that determines its result:

* the workload's C source and preprocessor defines,
* the full :class:`~repro.pipeline.PipelineOptions` (including nested
  promotion and register-allocation options),
* the :class:`~repro.interp.MachineOptions`,
* :data:`SCHEMA_VERSION` (bump when the stored payload changes meaning),
* a fingerprint of the compiler's own source files, so editing any pass
  invalidates every cached cell automatically — only genuinely unrelated
  edits (docs, tests, the runner itself) keep the cache warm.

Values are JSON payloads (counters, output, exit code, timing) at
``.repro-cache/ab/abcdef....json``; failures are never cached.
"""

from __future__ import annotations

import json

from ..store import Store, canonical_digest, code_fingerprint

__all__ = ["SCHEMA_VERSION", "ResultCache", "cell_key"]

#: bump when the cached payload or the meaning of a counter changes
SCHEMA_VERSION = 3  # v3: cells may be produced by incremental per-function
#                     compilation (repro.inccomp); byte-identical by
#                     contract, but invalidate pre-inccomp payloads


def cell_key(
    source: str,
    defines: dict[str, str] | None,
    options,
    machine,
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """The content address of one (program, variant, machine) cell."""
    return canonical_digest(
        {
            "schema": schema_version,
            "code": code_fingerprint(),
            "source": source,
            "defines": defines or {},
            "pipeline": options,
            "machine": machine,
        }
    )


class ResultCache(Store):
    """Directory-backed cache of cell payload dicts (JSON, no memory layer)."""

    suffix = ".json"

    def encode(self, payload: dict) -> bytes:
        return json.dumps({"schema": SCHEMA_VERSION, **payload}, sort_keys=True).encode()

    def decode(self, blob: bytes) -> dict:
        return json.loads(blob)

    def accepts(self, payload) -> bool:
        return isinstance(payload, dict) and payload.get("schema") == SCHEMA_VERSION
