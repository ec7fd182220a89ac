"""ServeClient against a scripted local asyncio server.

The server here is a few lines of asyncio, not ``repro serve``: it
answers each request line with whatever frames the test scripts, so
the client's handling of frames a real server never sends (non-object
frames, unhashable ids) and of a closed connection is pinned without
workers.
"""

import asyncio
import contextlib
import json

import pytest

from repro.serve.client import ServeClient
from tests.serve.helpers import run_async


@contextlib.asynccontextmanager
async def scripted_server(answer):
    """Serve ``answer(request) -> list[bytes] | None`` per request line;
    ``None`` hangs up instead of answering."""

    async def handle(reader, writer):
        try:
            while line := await reader.readline():
                frames = answer(json.loads(line))
                if frames is None:
                    break
                writer.write(b"".join(frames))
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()


def test_foreign_frames_are_unmatched_and_the_answer_still_lands():
    def answer(request):
        reply = {"id": request["id"], "ok": True, "result": {}}
        frame = json.dumps(reply).encode() + b"\n"
        return [b"[1]\n", b'{"id": [1]}\n', frame]

    async def scenario():
        async with scripted_server(answer) as port:
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                assert await client.call("health") == {}
                assert client.unmatched == [[1], {"id": [1]}]
                # the read loop survived both frames
                assert await client.call("health") == {}
            finally:
                await client.close()

    run_async(asyncio.wait_for(scenario(), timeout=30))


def test_request_after_the_connection_ended_raises_at_once():
    async def scenario():
        async with scripted_server(lambda request: None) as port:
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(ConnectionError):
                    await client.request("health")
                with pytest.raises(ConnectionError):
                    await client.request("health")
            finally:
                await client.close()

    # a request that waited forever would stall the suite: bound it
    run_async(asyncio.wait_for(scenario(), timeout=30))

