"""Fault enactment: turning a decided :class:`~repro.chaos.plan.FaultSpec`
into an actual failure.

The *decision* of what fails lives entirely in the plan (parent-side, one
asyncio loop, deterministic).  This module holds the *mechanics* — the
small, side-effectful helpers each seam calls once a fault has already
been decided:

* worker faults ride inside the job dict (``job["_chaos"]``) and are
  enacted in the child by :func:`enact_worker_fault`;
* cache faults rewrite or unlink the entry on disk before the read;
* protocol faults reshape an already-encoded response frame into the
  chunks the server should actually write (and whether to hang up).

Everything here is import-lazy from the serving stack's point of view:
a server with no chaos plan never imports this module.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "CHAOS_EXIT_CODE",
    "corrupt_cache_entry",
    "enact_worker_fault",
    "evict_cache_entry",
    "mangle_response",
]

#: exit status for chaos-killed workers — distinguishable from real
#: segfaults (negative signal codes) and clean exits in post-mortems
CHAOS_EXIT_CODE = 86

#: a "forever" hang, in practice bounded by the request deadline that
#: kills the worker (the server always sets one)
_HANG_S = 3600.0

#: padding size for protocol.oversize — comfortably past the asyncio
#: StreamReader default limit (64 KiB) so the client's read loop trips
#: ``LimitOverrunError`` instead of parsing the frame
_OVERSIZE_PAD = 128 * 1024


# --------------------------------------------------------------------------
# worker-side enactment (runs in the child process)


def enact_worker_fault(chaos: dict, work) -> None:
    """Enact a pool fault inside the worker.  Never returns normally.

    ``chaos`` is the :meth:`FaultSpec.worker_payload` dict shipped in the
    job; ``work`` is a zero-arg callable running the real job.  All three
    crash shapes exit via :func:`os._exit` **before any reply is sent**,
    so the parent always observes the same thing — EOF on the pipe — and
    the retry schedule stays deterministic:

    * ``crash_before``: die without touching the job;
    * ``crash_during``: arm an exit timer for the fault's timing step,
      run the job, then die anyway if the timer hasn't fired — the timer
      models dying mid-cell, the unconditional exit keeps the outcome
      independent of how fast the cell ran;
    * ``crash_after``: run the job to completion, then die holding the
      result;
    * ``hang``: sleep until the request deadline kills this process.
    """
    site = chaos["site"]
    delay_s = chaos.get("delay_ms", 1) / 1000.0
    if site == "pool.crash_before":
        os._exit(CHAOS_EXIT_CODE)
    if site == "pool.crash_during":
        timer = threading.Timer(delay_s, os._exit, args=(CHAOS_EXIT_CODE,))
        timer.daemon = True
        timer.start()
        try:
            work()
        finally:
            timer.cancel()
            os._exit(CHAOS_EXIT_CODE)
    if site == "pool.crash_after":
        try:
            work()
        finally:
            os._exit(CHAOS_EXIT_CODE)
    if site == "pool.hang":
        while True:  # killed by the parent's deadline reaper
            time.sleep(_HANG_S)
    raise ValueError(f"not a worker-enactable chaos site: {site!r}")


# --------------------------------------------------------------------------
# cache-side enactment (parent, before the read)


def corrupt_cache_entry(cache, key: str) -> bool:
    """Overwrite the cached entry with bytes that are not JSON.

    Returns whether an entry existed to corrupt.  The read that follows
    must treat the entry as a miss (the store logs, unlinks and misses on
    undecodable entries), never serve garbage — that is the invariant
    this site exists to exercise.
    """
    path = cache.path_for(key)
    if not path.exists():
        return False
    path.write_bytes(b"\x00chaos: corrupted entry\xff{{{")
    return True


def evict_cache_entry(cache, key: str) -> bool:
    """Delete the cached entry out from under the read (a clean miss)."""
    path = cache.path_for(key)
    if not path.exists():
        return False
    path.unlink(missing_ok=True)
    return True


# --------------------------------------------------------------------------
# wire-side enactment (parent, on the encoded response frame)


def mangle_response(site: str, frame: bytes) -> tuple[list[bytes], bool]:
    """Reshape one encoded response frame per the protocol fault.

    Returns ``(chunks, hangup)``: the byte chunks the server should
    write (each followed by a drain) and whether to close the connection
    afterwards.

    * ``truncate``: half the frame, then hang up — the client can never
      complete the line;
    * ``hangup``: nothing at all, then close — mid-response from the
      client's point of view (the request is inflight);
    * ``split``: the frame in two flushes — *benign*, the client's line
      framing must reassemble it transparently;
    * ``oversize``: the frame padded past the client's stream limit via
      a junk field — still valid JSON, but unreadable through a default
      64 KiB :class:`asyncio.StreamReader`.
    """
    if site == "protocol.truncate":
        return [frame[: max(1, len(frame) // 2)]], True
    if site == "protocol.hangup":
        return [], True
    if site == "protocol.split":
        cut = max(1, len(frame) // 2)
        return [frame[:cut], frame[cut:]], False
    if site == "protocol.oversize":
        # graft the pad inside the JSON object: strip "}\n", append field
        body = frame.rstrip(b"\n")[:-1]
        pad = b"x" * _OVERSIZE_PAD
        return [body + b',"_chaos_pad":"' + pad + b'"}\n'], True
    raise ValueError(f"not a protocol chaos site: {site!r}")
