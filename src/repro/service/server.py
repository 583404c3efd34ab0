"""Async HTTP façade over the job manager (stdlib asyncio only).

A deliberately small HTTP/1.1 server — ``asyncio.start_server`` plus a
hand-rolled request parser, every response ``Connection: close`` — so
the simulation service needs nothing beyond the standard library:

=========  =====================================  ======================
method     path                                   body
=========  =====================================  ======================
GET        ``/v1/healthz``                        ``{"ok": true}``
GET        ``/v1/metrics``                        flat ``service.*`` map
POST       ``/v1/jobs``                           job record (submitted)
GET        ``/v1/jobs``                           ``{"jobs": [...]}``
GET        ``/v1/jobs/<id>``                      job record
GET        ``/v1/jobs/<id>/result``               rows / campaign
GET        ``/v1/jobs/<id>/events``               NDJSON event stream
POST       ``/v1/jobs/<id>/cancel``               ``{"cancelled": bool}``
=========  =====================================  ======================

Errors come back as ``{"error": message}`` with the status carried by
:class:`~repro.service.jobs.ServiceError` (400 malformed, 404 unknown
job, 409 result-not-ready, 429 quota), or 408 for a stalled request.  The
events endpoint streams each job event as one JSON line, live, and closes
after the terminal state event — the HTTP analogue of ``Executor.stream``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from .jobs import JobManager, ServiceError

__all__ = ["ServiceServer", "run_server"]

_MAX_BODY = 8 * 1024 * 1024
#: how long a client may take to send its whole request
_READ_TIMEOUT_S = 30.0
#: how often the event stream re-checks a quiet job for new events
_STREAM_POLL_S = 0.05


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


class ServiceServer:
    """One job manager behind ``asyncio.start_server``.

    ``port=0`` binds an ephemeral port (the resolved one is in
    :attr:`port` / :attr:`url` after :meth:`start`) — tests rely on
    that.
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), _READ_TIMEOUT_S)
            except asyncio.TimeoutError:
                await self._respond(writer, 408, {"error": "request timeout"})
                return
            except (asyncio.IncompleteReadError, ValueError) as exc:
                await self._respond(writer, 400, {"error": f"bad request: "
                                                           f"{exc}"})
                return
            try:
                await self._route(writer, method, path, body)
            except ServiceError as exc:
                await self._respond(writer, exc.status,
                                    {"error": exc.message})
            except Exception as exc:  # noqa: BLE001 - connection boundary
                await self._respond(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"})
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, Optional[Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request line")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise ValueError(f"malformed request line {request_line!r}")
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > _MAX_BODY:
            raise ValueError(f"body too large ({length} bytes)")
        body = None
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode())
        return method.upper(), target.split("?", 1)[0], body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any) -> None:
        body = _json_bytes(payload)
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 408: "Request Timeout",
                  409: "Conflict", 429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, body: Optional[Any]) -> None:
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise ServiceError(404, f"no such path {path!r}")
        rest = parts[1:]
        if rest == ["healthz"] and method == "GET":
            await self._respond(writer, 200, {"ok": True})
        elif rest == ["metrics"] and method == "GET":
            await self._respond(writer, 200, self.manager.metrics())
        elif rest == ["jobs"] and method == "POST":
            record = self.manager.submit(body)
            await self._respond(writer, 200, record.to_dict())
        elif rest == ["jobs"] and method == "GET":
            await self._respond(writer, 200,
                                {"jobs": self.manager.list_jobs()})
        elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
            record = self.manager.record(rest[1])
            await self._respond(writer, 200, record.to_dict())
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "result" \
                and method == "GET":
            record = self.manager.record(rest[1])
            if record.state != "done":
                detail = f": {record.error}" if record.error else ""
                raise ServiceError(
                    409, f"job {rest[1]!r} is {record.state}{detail}")
            await self._respond(writer, 200, record.result_payload())
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "events" \
                and method == "GET":
            await self._stream_events(writer, rest[1])
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "cancel" \
                and method == "POST":
            cancelled = self.manager.cancel(rest[1])
            await self._respond(writer, 200, {"id": rest[1],
                                              "cancelled": cancelled})
        else:
            raise ServiceError(
                405 if rest[:1] == ["jobs"] else 404,
                f"cannot {method} {path}")

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job_id: str) -> None:
        record = self.manager.record(job_id)   # 404 before headers
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode())
        await writer.drain()
        sent = 0
        while True:
            events, terminal = record.events_since(sent)
            for event in events:
                writer.write((json.dumps(event, sort_keys=True)
                              + "\n").encode())
                sent += 1
            if events:
                await writer.drain()
            if terminal and not events:
                return
            if not events:
                await asyncio.sleep(_STREAM_POLL_S)


def run_server(manager: JobManager, host: str = "127.0.0.1",
               port: int = 0, *, announce=print) -> None:
    """Run the server until interrupted (the ``repro serve`` body).

    ``announce(url)`` is called once the socket is bound — the CLI
    prints the "listening on" line through it, and tests parse it to
    discover an ephemeral port.
    """
    async def _main() -> None:
        server = ServiceServer(manager, host, port)
        await server.start()
        announce(server.url)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        manager.close()
