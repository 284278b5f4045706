"""The asyncio session server: probing as a service.

One :class:`ProbingService` listens on a unix socket (or TCP address)
and serves concurrent client sessions speaking the line-delimited JSON
protocol of :mod:`repro.service.protocol`.  Each connection is an
independent session; jobs outlive their connection — a client that
drops mid-stream loses its event subscription, never its job, and can
reconnect and ``wait`` on the same id.

Progress streaming: a ``submit`` with ``"stream": true`` makes the
worker write coarse QueryTrace records (``meta``/``compile``/``done``)
to a per-job events file; the server tails that file with
:class:`~repro.trace.stream.EventTail` and forwards each record as an
``event`` message, then sends the terminal ``result``.  The stream
format IS the trace schema, so captured streams feed straight into the
``repro.trace`` readers.

Errors are always structured: malformed lines, bad job ids, and
unknown workloads produce ``error`` messages with a stable ``code`` —
the connection stays open, nothing ever tracebacks onto the wire.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from ..oraql.config import BenchmarkConfig
from ..oraql.parallel import JobSpec
from ..workloads.base import get_config, row_names
from . import protocol as wire
from .scheduler import ProbingScheduler

#: how often (seconds) a streaming session polls the job's events file
STREAM_POLL_INTERVAL = 0.03

#: maximum wire line length (a submit with an inline config JSON is a
#: few KB; 4 MiB is generous headroom for fat importance reports)
MAX_LINE = 4 * 1024 * 1024


class ProbingService:
    """The server: owns a scheduler, speaks the wire protocol."""

    def __init__(self, state_dir: str, jobs: int = 2,
                 resume: bool = False,
                 socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0):
        if (socket_path is None) == (host is None):
            raise ValueError("exactly one of socket_path/host required")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.scheduler = ProbingScheduler(state_dir, jobs=jobs,
                                          resume=resume)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._draining = False
        #: sessions served (observability)
        self.sessions = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        await self.scheduler.start()
        if self.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_session, path=self.socket_path,
                limit=MAX_LINE)
        else:
            self._server = await asyncio.start_server(
                self._handle_session, host=self.host, port=self.port,
                limit=MAX_LINE)
            # resolve an ephemeral port for the caller
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` message (or task cancellation)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    # -- one client session ------------------------------------------------
    async def _handle_session(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        self.sessions += 1
        try:
            await self._session_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # server closing under a live session: quiet exit
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _session_loop(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                return  # over-long line or dropped connection
            if not line:
                return  # client closed its end
            if not line.strip():
                continue
            try:
                msg = wire.decode(line)
            except wire.ProtocolError as e:
                await self._send(writer,
                                 wire.error_msg("bad-request", str(e)))
                continue
            try:
                if await self._dispatch(msg, writer):
                    return
            except ConnectionError:
                return

    async def _send(self, writer: asyncio.StreamWriter,
                    msg: dict) -> None:
        writer.write(wire.encode(msg))
        await writer.drain()

    async def _dispatch(self, msg: dict,
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one message; returns True when the session ends."""
        t = msg["t"]
        if t == "hello":
            version = msg.get("v", wire.PROTOCOL_VERSION)
            if version != wire.PROTOCOL_VERSION:
                await self._send(writer, wire.error_msg(
                    "unsupported-version",
                    f"server speaks v{wire.PROTOCOL_VERSION}, "
                    f"client sent v{version}"))
            else:
                await self._send(writer,
                                 wire.welcome_msg("repro.service"))
        elif t == "submit":
            await self._handle_submit(msg, writer)
        elif t == "status":
            job = self.scheduler.get(msg.get("id", ""))
            if job is None:
                await self._send(writer, wire.error_msg(
                    "unknown-job", f"no job {msg.get('id')!r}"))
            else:
                view = job.public_view()
                view.pop("id"), view.pop("status")
                await self._send(writer, wire.status_msg(
                    job.spec.id, job.status, **view))
        elif t == "jobs":
            await self._send(writer, wire.ok_msg(
                jobs=[j.public_view()
                      for j in self.scheduler.all_jobs()]))
        elif t == "wait":
            job_id = msg.get("id", "")
            if self.scheduler.get(job_id) is None:
                await self._send(writer, wire.error_msg(
                    "unknown-job", f"no job {job_id!r}"))
            else:
                job = await self.scheduler.wait(job_id)
                await self._send_result(writer, job)
        elif t == "cancel":
            job_id = msg.get("id", "")
            if self.scheduler.get(job_id) is None:
                await self._send(writer, wire.error_msg(
                    "unknown-job", f"no job {job_id!r}"))
            else:
                signalled = self.scheduler.cancel(job_id)
                await self._send(writer, wire.ok_msg(
                    id=job_id, cancelled=signalled))
        elif t == "shutdown":
            self._draining = True
            await self._send(writer, wire.ok_msg(shutdown=True))
            self._shutdown.set()
            return True
        else:
            await self._send(writer, wire.error_msg(
                "bad-request", f"unknown message type {t!r}"))
        return False

    async def _handle_submit(self, msg: dict,
                             writer: asyncio.StreamWriter) -> None:
        if self._draining:
            await self._send(writer, wire.error_msg(
                "shutting-down", "server is draining"))
            return
        unknown = set(msg) - wire.SUBMIT_FIELDS
        if unknown:
            await self._send(writer, wire.error_msg(
                "bad-request",
                f"unknown submit field(s): {', '.join(sorted(unknown))}"))
            return
        config_json = None
        workload = msg.get("workload")
        if workload is not None:
            try:
                config_json = get_config(workload).to_json()
            except KeyError:
                await self._send(writer, wire.error_msg(
                    "unknown-workload",
                    f"unknown workload {workload!r} "
                    f"(known: {', '.join(row_names())})"))
                return
        elif isinstance(msg.get("config"), dict):
            try:
                config_json = BenchmarkConfig.from_json(
                    json.dumps(msg["config"])).to_json()
            except (TypeError, ValueError, KeyError) as e:
                await self._send(writer, wire.error_msg(
                    "bad-request", f"bad inline config: {e}"))
                return
        if config_json is None:
            await self._send(writer, wire.error_msg(
                "bad-request",
                "submit needs a 'workload' name or inline 'config'"))
            return

        job_id = msg.get("id")
        if job_id is None:
            job_id = self.scheduler.next_job_id()
        spec_fields = {k: msg[k] for k in
                       ("kind", "strategy", "max_tests",
                        "stream", "fault_plan", "significant_percent",
                        "recover_percent", "max_measurements")
                       if k in msg}
        try:
            spec = JobSpec(id=job_id, config_json=config_json,
                           **spec_fields)
        except (TypeError, ValueError) as e:
            await self._send(writer,
                             wire.error_msg("bad-request", str(e)))
            return
        try:
            job = self.scheduler.submit(spec)
        except ValueError as e:
            await self._send(writer, wire.error_msg(
                "duplicate-job", str(e), job_id=job_id))
            return
        await self._send(writer, wire.accepted_msg(job.spec.id))
        if spec.stream:
            await self._stream_job(job.spec.id, writer)

    async def _stream_job(self, job_id: str,
                          writer: asyncio.StreamWriter) -> None:
        """Tail the job's events file onto this connection, then send
        the terminal result.  A dropped connection ends only the
        subscription — the job keeps running."""
        from ..trace.stream import EventTail
        tail = EventTail(self.scheduler.events_path(job_id))
        job = self.scheduler.get(job_id)
        while True:
            for record in tail.poll():
                await self._send(writer, wire.event_msg(job_id, record))
            if job.finished:
                break
            try:
                await asyncio.wait_for(
                    self.scheduler.wait(job_id),
                    timeout=STREAM_POLL_INTERVAL)
            except asyncio.TimeoutError:
                pass
        for record in tail.poll():  # final drain
            await self._send(writer, wire.event_msg(job_id, record))
        await self._send_result(writer, job)

    async def _send_result(self, writer: asyncio.StreamWriter,
                           job) -> None:
        await self._send(writer, wire.result_msg(
            job.spec.id, job.status, report=job.report,
            error=job.error))
