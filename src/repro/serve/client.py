"""Client side of ``repro serve``.

:class:`ServeClient` speaks the NDJSON protocol over one connection,
matching out-of-order responses to requests by ``id`` so any number of
requests can be in flight at once.  :class:`ResilientClient` wraps it
with retries, idempotency keys and a circuit breaker;
:func:`wait_for_server` polls ``health`` until a server is up.  The
``repro loadgen`` campaign built on them lives in
:mod:`repro.bench.serve`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time

from .protocol import encode_frame
from .resilience import (
    CircuitBreaker,
    CircuitOpen,
    ResilienceStats,
    RetryPolicy,
)

__all__ = [
    "ResilientClient",
    "ServeClient",
    "ServeError",
    "wait_for_server",
]


class ServeError(Exception):
    """An error response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class _Calls:
    """``call``: :meth:`request` unwrapped to the result dict, or
    :class:`ServeError` for an error response."""

    async def call(self, op: str, params: dict | None = None, **kw) -> dict:
        response = await self.request(op, params, **kw)
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServeError(
                error.get("code", "internal"), error.get("message", "")
            )
        return response["result"]


class ServeClient(_Calls):
    """One connection; safe for any number of concurrent ``request``s."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        #: frames the server sent without a matchable id (e.g. the
        #: payload_too_large notice before closing the connection)
        self.unmatched: list = []
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 7411
    ) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """Send one request, await its response frame (the full dict).

        ``trace=True`` asks the server for a sampled trace: the result
        carries ``trace.trace_id`` and ``trace.spans`` (see
        :mod:`repro.trace`).  ``idempotency_key`` names the logical
        request so a retry single-flights onto the original computation
        server-side instead of queueing duplicate work.  Raises
        :class:`ConnectionError` at once when the connection has ended.
        """
        if self._reader_task.done():
            raise ConnectionError("connection to the server has ended")
        request_id = next(self._ids)
        frame: dict = {"id": request_id, "op": op}
        if params:
            frame["params"] = params
        if deadline_s is not None:
            frame["deadline_s"] = deadline_s
        if priority is not None:
            frame["priority"] = priority
        if trace:
            frame["trace"] = True
        if idempotency_key is not None:
            frame["idempotency_key"] = idempotency_key
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        return await future

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    frame = json.loads(line)
                except ValueError:
                    continue
                # our ids are ints; a frame that is not an object, or
                # whose id is anything else, cannot answer a request
                request_id = frame.get("id") if type(frame) is dict else None
                future = (
                    self._pending.pop(request_id, None)
                    if type(request_id) is int
                    else None
                )
                if future is not None and not future.done():
                    future.set_result(frame)
                else:
                    self.unmatched.append(frame)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()


class ResilientClient(_Calls):
    """A self-healing wrapper around :class:`ServeClient`.

    What it adds on top of the raw client, in order of engagement:

    * **retries** — errors in the closed retryable vocabulary
      (:data:`~repro.serve.resilience.RETRYABLE_CODES`) and transport
      failures are retried with jittered exponential backoff, up to the
      policy's attempt budget; the connection is re-established after a
      transport failure;
    * **idempotency keys** — every logical request carries one (caller
      supplied, else auto-generated), so a retry single-flights onto the
      original computation server-side instead of duplicating work;
    * **circuit breaker** — consecutive failures trip it; while open,
      :meth:`request` sheds immediately with :class:`CircuitOpen`
      (a *client-side* explicit shed) instead of piling onto a sick
      server; a half-open probe re-closes it.

    ``sleep`` and ``connect`` are injectable (and the breaker takes a
    clock) so the whole state machine runs under a fake clock in tests
    — zero real sleeps.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep=None,
        connect=None,
        key_prefix: str | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.stats = ResilienceStats()
        self._sleep = sleep or asyncio.sleep
        self._connect = connect or ServeClient.connect
        self._client = None
        if key_prefix is None:
            import os

            key_prefix = os.urandom(4).hex()
        self._key_prefix = key_prefix
        self._key_counter = itertools.count(1)
        self._connected_once = False

    async def _ensure_client(self):
        if self._client is None:
            self._client = await self._connect(self.host, self.port)
            if self._connected_once:
                self.stats.reconnects += 1
            self._connected_once = True
        return self._client

    async def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass

    async def close(self) -> None:
        await self._drop_client()

    async def request(
        self,
        op: str,
        params: dict | None = None,
        *,
        deadline_s: float | None = None,
        priority: str | None = None,
        trace: bool = False,
        idempotency_key: str | None = None,
    ) -> dict:
        """One *logical* request: retried and breaker-gated.

        Returns the final response frame.  Raises :class:`CircuitOpen`
        when the breaker sheds the request client-side, or the final
        transport error when every attempt lost its connection.
        """
        key = (
            idempotency_key
            or f"{self._key_prefix}-{next(self._key_counter)}"
        )
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self.breaker.allow():
                self.stats.breaker_open += 1
                raise CircuitOpen(
                    f"circuit breaker open for {self.host}:{self.port}"
                )
            self.stats.attempts += 1
            try:
                client = await self._ensure_client()
                response = await client.request(
                    op,
                    params,
                    deadline_s=deadline_s,
                    priority=priority,
                    trace=trace,
                    idempotency_key=key,
                )
            except (ConnectionError, OSError):
                self.breaker.record_failure()
                await self._drop_client()
                if attempt >= self.retry.max_attempts:
                    raise
                self.stats.record_retry("connection_lost")
                await self._sleep(self.retry.delay_s(attempt))
                continue
            if response.get("ok"):
                self.breaker.record_success()
                return response
            code = response.get("error", {}).get("code", "internal")
            if self.retry.retryable(code):
                self.breaker.record_failure()
                if attempt >= self.retry.max_attempts:
                    return response
                self.stats.record_retry(code)
                await self._sleep(self.retry.delay_s(attempt))
                continue
            # a definitive answer (bad request, cell failure, draining):
            # the host is healthy, retrying would only repeat it
            self.breaker.record_success()
            return response
        raise AssertionError("unreachable")  # pragma: no cover


async def wait_for_server(
    host: str, port: int, timeout_s: float = 30.0
) -> dict:
    """Poll until the server answers ``health``; returns the health dict."""
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            client = await ServeClient.connect(host, port)
            try:
                return await client.call("health")
            finally:
                await client.close()
        except (ConnectionError, OSError, ServeError) as error:
            last_error = error
            await asyncio.sleep(0.1)
    raise TimeoutError(
        f"server at {host}:{port} not healthy after {timeout_s:.0f}s: "
        f"{last_error}"
    )
