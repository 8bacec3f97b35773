"""Auction service layer: serve allocation requests over the batch engine.

The modules (see DESIGN.md → "The auction service", "Fault tolerance &
chaos", and "The serving edge"):

* :mod:`repro.service.scenes` — content-hash scene registry, so
  structurally identical interference scenes share one canonical object
  and therefore one compilation;
* :mod:`repro.service.service` — :class:`AuctionService`: coalescing
  request queue, per-service LRU compilation caches, shard-affinity
  routing, graceful drain, admission control + per-request deadlines
  with greedy-baseline degradation;
* :mod:`repro.service.pool` — :class:`ProcessShardPool`: long-lived
  worker processes (own HiGHS backend, warm bases, caches) behind the
  ``executor="process"`` service configuration — the GIL-free shard tier
  for distinct-heavy traffic — with capped-backoff respawn and
  per-worker circuit breakers;
* :mod:`repro.service.wire` — the versioned wire schema
  (``schema_version`` :data:`SCHEMA_VERSION`): :class:`AuctionRequest` /
  :class:`AuctionResponse` with exact JSON round trips, and every typed
  error mapped to a stable ``error_code`` + HTTP status
  (:data:`WIRE_ERROR_CODES`);
* :mod:`repro.service.gateway` — :class:`AuctionGateway`, the
  stdlib-asyncio HTTP/1.1 front-end serving the wire schema over
  localhost sockets (plus :class:`GatewayServer`, its sync wrapper);
* :mod:`repro.service.client` — :class:`GatewayClient` (asyncio, one
  or more gateway endpoints, pooled keep-alive connections,
  typed-error reconstruction, one :class:`RetryPolicy` attempt budget
  per request across endpoints, hedging, probe-driven eviction) and
  its sync facade :class:`SyncGatewayClient` (future-based ``submit``,
  mirroring the in-process service);
* :mod:`repro.service.traffic` — open-loop Poisson/burst/replay traffic
  over the metro workload family;
* :mod:`repro.service.metrics` — throughput, latency percentiles, cache
  hit rates, shed/timeout/degraded counters, persisted as JSON;
* :mod:`repro.service.errors` — the typed failure hierarchy
  (:class:`ShedError`, :class:`DeadlineExceeded`,
  :class:`InjectedFaultError`);
* :mod:`repro.service.faults` — declarative, seeded fault injection at
  named sites (:class:`FaultPlan`);
* :mod:`repro.service.scenarios` / :mod:`repro.service.chaos` — the
  named scenario library and the invariant-checking chaos runner.
"""

from repro.service.chaos import ChaosReport, run_matrix, run_scenario
from repro.service.client import GatewayClient, RetryPolicy, SyncGatewayClient
from repro.service.errors import (
    DeadlineExceeded,
    InjectedFaultError,
    ServiceFaultError,
    ShedError,
)
from repro.service.faults import FAULT_SITES, FaultPlan, FaultSpec
from repro.service.gateway import AuctionGateway, GatewayServer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import ProcessShardPool, WorkerCrashError
from repro.service.scenarios import Scenario, scenario_library
from repro.service.scenes import SceneRegistry, scene_fingerprint
from repro.service.service import AuctionService
from repro.service.traffic import (
    TrafficRequest,
    TrafficTrace,
    burst_trace,
    load_trace,
    poisson_trace,
    save_trace,
)
from repro.service.wire import (
    SCHEMA_VERSION,
    WIRE_ERROR_CODES,
    AuctionRequest,
    AuctionResponse,
    decode_valuation,
    default_idempotency_key,
    encode_valuation,
    error_from_wire,
    error_to_wire,
    http_status_for,
    request_from_wire,
    request_to_wire,
)

__all__ = [
    "AuctionRequest",
    "AuctionResponse",
    "AuctionService",
    "SCHEMA_VERSION",
    "WIRE_ERROR_CODES",
    "encode_valuation",
    "decode_valuation",
    "request_to_wire",
    "request_from_wire",
    "error_to_wire",
    "error_from_wire",
    "http_status_for",
    "default_idempotency_key",
    "AuctionGateway",
    "GatewayServer",
    "GatewayClient",
    "RetryPolicy",
    "SyncGatewayClient",
    "ProcessShardPool",
    "WorkerCrashError",
    "SceneRegistry",
    "scene_fingerprint",
    "ServiceMetrics",
    "ServiceFaultError",
    "ShedError",
    "DeadlineExceeded",
    "InjectedFaultError",
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "ChaosReport",
    "Scenario",
    "scenario_library",
    "run_scenario",
    "run_matrix",
    "TrafficRequest",
    "TrafficTrace",
    "poisson_trace",
    "burst_trace",
    "save_trace",
    "load_trace",
]
