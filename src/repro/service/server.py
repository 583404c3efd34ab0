"""HTTP façade over the job manager (stdlib ``http.server`` only).

A deliberately small HTTP/1.1 server — one
:class:`~http.server.ThreadingHTTPServer` and one request handler, a
thread per request, every response ``Connection: close`` — so the
simulation service needs nothing beyond the standard library:

=========  =====================================  ======================
method     path                                   body
=========  =====================================  ======================
GET        ``/v1/healthz``                        ``{"ok": true}``
GET        ``/v1/metrics``                        flat ``service.*`` map
POST       ``/v1/jobs``                           job record (submitted)
GET        ``/v1/jobs``                           ``{"jobs": [...]}``
GET        ``/v1/jobs/<id>``                      job record
GET        ``/v1/jobs/<id>?wait=<s>``             job record, once it
                                                  ends or ``s`` passes
GET        ``/v1/jobs/<id>/result``               rows / campaign
GET        ``/v1/jobs/<id>/events``               NDJSON event stream
POST       ``/v1/jobs/<id>/cancel``               ``{"cancelled": bool}``
=========  =====================================  ======================

Errors come back as ``{"error": message}`` with the status carried by
:class:`~repro.service.jobs.ServiceError` (400 malformed, 404 unknown
job, 409 result-not-ready, 429 quota), 408 for a body not received
within ``_READ_TIMEOUT_S``, or the stdlib parser's own rejection (400 a
malformed request line, 431 an oversized header line or too many
headers, 501 a method no route takes).  A request line or headers that
stall past the same deadline get a clean close.  The events endpoint
streams each job event as one JSON line, live, and closes after the
terminal state event: its handler thread follows the job record
(:meth:`~repro.parallel.executor.JobState.follow`), as
``Executor.stream`` does.  A record GET with ``?wait=<s>`` is a long
poll: its handler thread waits on the record (at most ``_MAX_WAIT_S``)
and then answers what a plain GET would, so a client learns that a job
ended when it ends.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs

from .jobs import JobManager, ServiceError

__all__ = ["ServiceServer", "run_server"]

_MAX_BODY = 8 * 1024 * 1024
#: how long a client may take to send each part of its request
_READ_TIMEOUT_S = 30.0
#: the longest a ``?wait=`` long poll holds its request
_MAX_WAIT_S = 30.0


def _json_bytes(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _wait_seconds(query: dict[str, list[str]]) -> float:
    """A record GET's ``?wait=<s>``, clamped to ``_MAX_WAIT_S``; 0 when
    absent."""
    raw = query.get("wait", ["0"])[-1]
    try:
        seconds = float(raw)
    except ValueError:
        seconds = -1.0
    if not seconds >= 0:                  # negative or NaN
        raise ServiceError(400, f"bad wait {raw!r}: expected seconds >= 0")
    return min(seconds, _MAX_WAIT_S)


class _Handler(BaseHTTPRequestHandler):
    """One request: read it, route it to the manager, answer JSON."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    # An unparseable request line is answered with a status line, not
    # in the stdlib's HTTP/0.9 style (a bare body).
    default_request_version = "HTTP/1.1"
    # Buffered, so a response's headers and body leave in one send: sent
    # apart, the body waits on Nagle's algorithm.
    wbufsize = -1

    def setup(self) -> None:
        # Read per connection, so patching the module constant counts.
        self.timeout = _READ_TIMEOUT_S
        super().setup()

    def log_message(self, format: str, *args: Any) -> None:
        # Silent: ``repro serve``'s stderr may be a pipe nobody drains.
        pass

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        # The stdlib parser's rejections speak the service's JSON too.
        self._respond(code, {"error": message or self.responses[code][0]})

    def _respond(self, status: int, payload: Any) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _handle(self) -> None:
        try:
            path, _, query = self.path.partition("?")
            self._route(path, parse_qs(query, keep_blank_values=True),
                        self._read_body())
        except ServiceError as exc:
            self._respond(exc.status, {"error": exc.message})
        except ConnectionError:
            raise
        except Exception as exc:  # noqa: BLE001 - connection boundary
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _handle

    def _read_body(self) -> Optional[Any]:
        try:
            length = int(self.headers.get("Content-Length", 0))
            if not 0 <= length <= _MAX_BODY:
                raise ValueError(f"Content-Length {length} is not "
                                 f"0..{_MAX_BODY}")
            raw = self.rfile.read(length)
            if len(raw) < length:
                raise ValueError(f"body ended after {len(raw)} of "
                                 f"{length} bytes")
            return json.loads(raw.decode()) if length else None
        except TimeoutError:
            raise ServiceError(408, "request timeout") from None
        except ValueError as exc:
            raise ServiceError(400, f"bad request: {exc}") from None

    # -- routing -------------------------------------------------------

    def _route(self, path: str, query: dict[str, list[str]],
               body: Optional[Any]) -> None:
        manager, method = self.server.manager, self.command
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise ServiceError(404, f"no such path {path!r}")
        rest = parts[1:]
        if rest == ["healthz"] and method == "GET":
            self._respond(200, {"ok": True})
        elif rest == ["metrics"] and method == "GET":
            self._respond(200, manager.metrics())
        elif rest == ["jobs"] and method == "POST":
            self._respond(200, manager.submit(body).to_dict())
        elif rest == ["jobs"] and method == "GET":
            self._respond(200, {"jobs": manager.list_jobs()})
        elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
            record = manager.record(rest[1])
            record.wait(_wait_seconds(query))
            self._respond(200, record.to_dict())
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "result" \
                and method == "GET":
            record = manager.record(rest[1])
            if record.state != "done":
                detail = f": {record.error}" if record.error else ""
                raise ServiceError(
                    409, f"job {rest[1]!r} is {record.state}{detail}")
            self._respond(200, record.result_payload())
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "events" \
                and method == "GET":
            self._stream_events(rest[1])
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "cancel" \
                and method == "POST":
            cancelled = manager.cancel(rest[1])
            self._respond(200, {"id": rest[1], "cancelled": cancelled})
        else:
            raise ServiceError(
                405 if rest[:1] == ["jobs"] else 404,
                f"cannot {method} {path}")

    def _stream_events(self, job_id: str) -> None:
        record = self.server.manager.record(job_id)   # 404 before headers
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        for event in record.follow():
            self.wfile.write((json.dumps(event, sort_keys=True)
                              + "\n").encode())
            self.wfile.flush()


class ServiceServer(ThreadingHTTPServer):
    """One job manager behind a :class:`~http.server.ThreadingHTTPServer`.

    The socket is bound at construction; ``port=0`` binds an ephemeral
    port, and the resolved one is in :attr:`port` / :attr:`url` — tests
    rely on that.  Run it with :meth:`serve_forever`, stop it with
    :meth:`shutdown` and :meth:`server_close`.
    """

    def __init__(self, manager: JobManager, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.manager = manager
        self.host = host
        super().__init__((host, port), _Handler)
        self.port = self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that left (e.g. mid-stream) is nobody to answer.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def run_server(manager: JobManager, host: str = "127.0.0.1",
               port: int = 0, *, announce=print) -> None:
    """Run the server until interrupted (the ``repro serve`` body).

    ``announce(url)`` is called once the socket is bound — the CLI
    prints the "listening on" line through it, and tests parse it to
    discover an ephemeral port.
    """
    try:
        with ServiceServer(manager, host, port) as server:
            announce(server.url)
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        manager.close()
