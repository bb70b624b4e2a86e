"""Multi-tenant optimizer service: REST control plane over ``repro.api``.

The paper frames RASA as a per-cluster CronJob; a production deployment
runs *many* clusters.  This package is the long-running control plane that
manages N named clusters as independent tenants:

* :class:`~repro.service.app.OptimizerService` — the stdlib HTTP service
  (``/v1/tenants/...``): register/deregister a cluster (problem or event
  trace), push collector snapshots, trigger or cron-schedule optimization
  cycles, fetch migration plans and cycle reports, and scrape per-tenant
  ``/healthz`` / ``/metrics``.
* :class:`~repro.service.tenant.Tenant` — one cluster's control loop:
  its own :class:`~repro.cluster.cronjob.CronJobController`, collector,
  fault plan, degradation policy, telemetry hub, and (optionally) its own
  durable checkpoint directory, built through exactly the same wiring as
  :func:`repro.api.run_control_loop` so a tenant's cycle reports are
  bit-identical to the equivalent single-tenant run.
* :class:`~repro.service.pool.ControllerPool` — bounded worker set the
  per-tenant loops shard onto (each tenant pinned to one slot); one
  tenant's cycles always run serialized on one worker, different tenants
  run concurrently.
* :class:`~repro.service.client.ServiceClient` — stdlib HTTP client
  mirroring the REST surface (the ``rasa tenant ...`` CLI rides on it).

Everything crossing the wire is a ``schema_version``-tagged payload (see
:mod:`repro.schemas`); the service speaks only versioned JSON.
"""

from repro.service.app import OptimizerService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.pool import ControllerPool
from repro.service.tenant import Tenant, TenantSpec

__all__ = [
    "ControllerPool",
    "OptimizerService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "Tenant",
    "TenantSpec",
]
