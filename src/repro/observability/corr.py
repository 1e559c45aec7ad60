"""Request-scoped correlation IDs.

One simulation request fans out across many artifacts — a service job
record, an archived run, a live-status file, trace events, and (under
the distributed backends, the farm included) one OS process per
partition.  The correlation ID is the single join key across all
of them: minted once at ``service.submit`` (or by any caller that
wants joinable artifacts), carried on the simulation object
(``sim.corr_id``), copied into every worker's option dict by the
backend coordinators, and exported into each child process's
environment as :data:`CORR_ENV` — which the child echoes back in its
result fragment, so the coordinator can *prove* the ID survived the
fork/exec boundary end-to-end.

IDs are opaque ``corr-<12 hex>`` strings; nothing parses them.
"""

from __future__ import annotations

import os
import uuid

#: environment variable carrying the correlation ID into worker
#: subprocesses (exec'd tooling under a worker inherits it too)
CORR_ENV = "REPRO_CORR_ID"


def mint_corr_id() -> str:
    """A fresh correlation ID (``corr-`` + 12 hex chars)."""
    return f"corr-{uuid.uuid4().hex[:12]}"


def current_corr_id() -> str:
    """The correlation ID of the enclosing request, if any.

    Inside a worker subprocess this is whatever the coordinator
    exported via :data:`CORR_ENV`; empty when no request scope is
    active.
    """
    return os.environ.get(CORR_ENV, "")


def propagate_corr_id(corr_id: str) -> None:
    """Export ``corr_id`` into this process's environment so child
    processes (and :func:`current_corr_id` callers) see it."""
    if corr_id:
        os.environ[CORR_ENV] = corr_id
