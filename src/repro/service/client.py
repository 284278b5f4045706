"""A small asyncio client for the probing service.

Used by the test harness and the (optional) interactive clients; it is
a thin typed veneer over the wire protocol — one coroutine per message
exchange, plus an async iterator for streamed jobs.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, List, Optional

from . import protocol as wire
from .server import MAX_LINE


class ServiceError(RuntimeError):
    """A structured ``error`` reply from the server."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


class ServiceClient:
    """One connection-scoped session with a probing service."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0):
        if (socket_path is None) == (host is None):
            raise ValueError("exactly one of socket_path/host required")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # -- connection --------------------------------------------------------
    async def connect(self) -> dict:
        """Open the connection and complete the hello handshake."""
        if self.socket_path is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.socket_path, limit=MAX_LINE)
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE)
        await self._send(wire.hello_msg())
        return self._expect(await self._recv(), "welcome")

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- wire --------------------------------------------------------------
    async def _send(self, msg: dict) -> None:
        self._writer.write(wire.encode(msg))
        await self._writer.drain()

    async def _recv(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return wire.decode(line)

    @staticmethod
    def _expect(msg: dict, kind: str) -> dict:
        if msg["t"] == "error":
            raise ServiceError(msg.get("code", "?"),
                               msg.get("detail", ""))
        if msg["t"] != kind:
            raise wire.ProtocolError(
                f"expected {kind!r} reply, got {msg['t']!r}")
        return msg

    # -- operations --------------------------------------------------------
    async def submit(self, workload: Optional[str] = None,
                     config: Optional[dict] = None, **fields) -> str:
        """Submit a job; returns the assigned job id."""
        msg = {"t": "submit", **fields}
        if workload is not None:
            msg["workload"] = workload
        if config is not None:
            msg["config"] = config
        await self._send(msg)
        return self._expect(await self._recv(), "accepted")["id"]

    async def submit_and_stream(
            self, workload: Optional[str] = None,
            config: Optional[dict] = None,
            **fields) -> AsyncIterator[dict]:
        """Submit with ``stream=True``; yields ``event`` records and
        finally the ``result`` message itself."""
        fields["stream"] = True
        await self.submit(workload=workload, config=config, **fields)
        while True:
            msg = await self._recv()
            if msg["t"] == "error":
                raise ServiceError(msg.get("code", "?"),
                                   msg.get("detail", ""))
            yield msg
            if msg["t"] == "result":
                return

    async def wait(self, job_id: str) -> dict:
        """Block until the job finishes; returns the ``result``."""
        await self._send({"t": "wait", "id": job_id})
        return self._expect(await self._recv(), "result")

    async def status(self, job_id: str) -> dict:
        await self._send({"t": "status", "id": job_id})
        return self._expect(await self._recv(), "status")

    async def jobs(self) -> List[dict]:
        await self._send({"t": "jobs"})
        return self._expect(await self._recv(), "ok")["jobs"]

    async def cancel(self, job_id: str) -> dict:
        await self._send({"t": "cancel", "id": job_id})
        return self._expect(await self._recv(), "ok")

    async def shutdown(self) -> dict:
        await self._send({"t": "shutdown"})
        return self._expect(await self._recv(), "ok")
