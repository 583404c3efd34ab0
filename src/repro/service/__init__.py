"""Simulation as a service: an HTTP job server over the workbench.

The paper's workbench is an interactive design-exploration loop; this
package serves that loop to many users.  Sweeps and chaos campaigns
become *jobs* — submitted over HTTP, scheduled across tenants and
priority lanes, executed on a backend-agnostic
:class:`~repro.parallel.Executor`, streamed as progress events, and
persisted in a content-addressed :class:`ResultStore` that promotes
the sweep :class:`~repro.parallel.ResultCache`:

* :class:`JobManager` — admission, scheduling, execution, records;
* :class:`JobScheduler` — per-tenant quotas, ``high``/``normal``/
  ``low`` lanes, anti-starvation aging;
* :class:`ServiceServer` / :func:`run_server` — a stdlib threading
  HTTP server, one thread per request (submit / status / result /
  NDJSON event stream / cancel / metrics);
* :class:`ServiceClient` — thin synchronous client;
* :class:`ResultStore` — variant rows + deterministic job records.

CLI: ``repro serve`` runs the server; ``repro submit`` / ``repro
status`` / ``repro fetch`` talk to it.  Rows fetched over HTTP are
byte-identical to in-process ``Sweep.run`` output — pinned by
``tests/test_service_api.py``.
"""

from .client import ServiceClient
from .jobs import (
    JobManager,
    JobRecord,
    ResultStore,
    ServiceError,
    canonical_request,
    job_key,
)
from .scheduler import LANES, JobScheduler, QuotaExceeded
from .server import ServiceServer, run_server

__all__ = [
    "JobManager", "JobRecord", "JobScheduler", "LANES", "QuotaExceeded",
    "ResultStore", "ServiceClient", "ServiceError", "ServiceServer",
    "canonical_request", "job_key", "run_server",
]
