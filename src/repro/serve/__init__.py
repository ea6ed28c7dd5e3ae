"""``repro.serve`` — the async HTTP/JSON serving front-end.

A stdlib-only (``asyncio``) server over the :mod:`repro.api` facade: figure,
sweep and DSE requests arrive as HTTP, cache-warm ones are answered in
milliseconds with zero engine executions, and cold ones run as background
jobs behind pollable ``202``s.  Start it with ``python -m repro serve`` or
embed it::

    from repro.api import Session
    from repro.serve import BackgroundServer

    with BackgroundServer(Session()) as server:
        print(server.url)  # http://127.0.0.1:<port>

See :mod:`repro.serve.app` for the endpoint table and
:mod:`repro.serve.wire` for the wire formats and ETag semantics.
"""

from repro.serve.app import BackgroundServer, ServeApp, run_server, start_server
from repro.serve.executor import DONE, FAILED, PENDING, RUNNING, JobManager, ServeJob

__all__ = [
    "BackgroundServer",
    "ServeApp",
    "run_server",
    "start_server",
    "JobManager",
    "ServeJob",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
]
