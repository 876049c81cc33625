"""``repro.service`` — simulation-as-a-service.

An asyncio TCP server (:mod:`~repro.service.server`) exposing the
:mod:`repro.api` facade to concurrent multi-tenant clients over a
newline-delimited JSON protocol (:mod:`~repro.service.protocol`), with
admission control with backpressure and per-tenant token-bucket quotas.
Every request decomposes into keyed work items, and one scheduler
(:mod:`~repro.service.batch`) owns their memo, single-flight coalescing,
disk → shared cache tiers, dispatch and write-back, stitching distinct
analytical points into shared vectorized kernel dispatches.  The
resilience layer adds per-request deadlines, cancellation through
waiter refcounts, graceful drain on SIGTERM, a kernel circuit breaker
that switches dispatches to per-point pricing, and a deterministic chaos
drill (:mod:`~repro.service.chaos`, driven by
:mod:`~repro.service.bench`).  A small synchronous client with a retry
policy (:mod:`~repro.service.client`) rides along; ``repro serve`` /
``repro client`` / ``repro chaos --service`` are the CLI entries.

See ``docs/service.md`` for the protocol and operational semantics.
"""

from repro.service.batch import BatchScheduler, KernelBreaker, work_items
from repro.service.bench import ChaosReport, mixed_trace, run_chaos_drill
from repro.service.chaos import (
    ChaosError,
    ChaosInjector,
    ChaosResultCache,
    ServiceChaosSpec,
)
from repro.service.client import (
    ConnectionLost,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    DeadlineExceeded,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.service.server import (
    ServerThread,
    ServiceConfig,
    SimulationServer,
    SimulationService,
    TokenBucket,
    default_workers,
    execute_request,
    serve,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL",
    "BatchScheduler",
    "ChaosError",
    "ChaosInjector",
    "ChaosReport",
    "ChaosResultCache",
    "ConnectionLost",
    "DeadlineExceeded",
    "KernelBreaker",
    "ProtocolError",
    "RetryPolicy",
    "ServerThread",
    "ServiceChaosSpec",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SimulationServer",
    "SimulationService",
    "TokenBucket",
    "decode_frame",
    "default_workers",
    "encode_frame",
    "execute_request",
    "mixed_trace",
    "run_chaos_drill",
    "serve",
    "work_items",
]
