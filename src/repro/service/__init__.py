"""Simulation-as-a-service: a supervised, crash-recoverable worker.

The long-lived counterpart of the batch experiment scripts: a
:class:`~repro.service.core.SimulationService` feeds streaming job
submissions into a :class:`~repro.scheduler.cluster.ClusterScheduler`,
advancing the DES incrementally between arrivals; a stdlib HTTP/JSON API
(:mod:`repro.service.http`) exposes submit/status/metrics/fingerprint/drain
with idempotent tokens and explicit backpressure; and a
:class:`~repro.service.supervisor.Supervisor` restarts a crashed worker,
which recovers by replaying the durable submission log.

Run one from the command line with ``python -m repro.service``.
"""

from repro.service.base import (
    ServiceSummary,
    build_service_cluster,
    finish_service_cluster,
)
from repro.service.core import (
    SimulationService,
    apply_entry,
    canonical_result,
    replay_entries,
    replay_result,
)
from repro.service.http import ServiceHTTPServer, make_server
from repro.service.log import LogEntry, SubmissionLog
from repro.service.spec import JobSpec
from repro.service.supervisor import (
    CRASH_EXIT_CODE,
    ServiceConfig,
    Supervisor,
    worker_main,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "JobSpec",
    "LogEntry",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceSummary",
    "SimulationService",
    "SubmissionLog",
    "Supervisor",
    "apply_entry",
    "build_service_cluster",
    "canonical_result",
    "finish_service_cluster",
    "make_server",
    "replay_entries",
    "replay_result",
    "worker_main",
]
