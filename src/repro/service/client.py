"""Thin synchronous client for the simulation service (stdlib only).

``http.client`` under the hood — one connection per call, matching the
server's ``Connection: close`` discipline.  :meth:`ServiceClient.wait`
long-polls (``GET /v1/jobs/<id>?wait=<s>``): the server answers when
the job ends, so a wait costs no more than the job.  Raises
:class:`~repro.service.jobs.ServiceError` with the HTTP status on any
error response, so CLI commands can map failures to exit codes without
parsing bodies.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator, Optional
from urllib.parse import urlsplit

from ..parallel.executor import TERMINAL_STATES
from .jobs import ServiceError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to a running ``repro serve`` instance.

    ::

        client = ServiceClient("http://127.0.0.1:8421")
        record = client.submit({"kind": "sweep", "preset": ..., ...})
        record = client.wait(record["id"])
        rows = client.result(record["id"])["rows"]
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    def _request(self, method: str, path: str,
                 payload: Optional[Any] = None) -> Any:
        conn = self._connect()
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = json.loads(resp.read().decode() or "null")
            if resp.status >= 400:
                message = (data or {}).get("error", f"HTTP {resp.status}")
                raise ServiceError(resp.status, message)
            return data
        finally:
            conn.close()

    # -- API -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def submit(self, request: dict) -> dict:
        """Submit a job request; returns the job record."""
        return self._request("POST", "/v1/jobs", request)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """The finished job's result document (409 until it is done)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> bool:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")["cancelled"]

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream the job's NDJSON events live until the terminal one."""
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            if resp.status >= 400:
                data = json.loads(resp.read().decode() or "{}")
                raise ServiceError(resp.status,
                                   data.get("error", f"HTTP {resp.status}"))
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            conn.close()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Block until the job ends; returns the final record.

        A loop of long polls, each shorter than the socket timeout.
        Past ``timeout`` seconds, raises a 408 :class:`ServiceError`
        naming the job's last state.
        """
        # Client-side deadline: host wall time by definition.
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)  # repro: noqa[PY002]
        while True:
            chunk = self.timeout / 2
            if deadline is not None:
                chunk = min(chunk, max(
                    0.0, deadline - time.monotonic()))  # repro: noqa[PY002]
            record = self._request("GET",
                                   f"/v1/jobs/{job_id}?wait={chunk:.3f}")
            if record["state"] in TERMINAL_STATES:
                return record
            if deadline is not None \
                    and time.monotonic() >= deadline:  # repro: noqa[PY002]
                raise ServiceError(
                    408, f"timed out waiting for job {job_id!r} "
                         f"(last state {record['state']!r})")
