"""``repro.service`` — simulation-as-a-service.

An asyncio TCP server (:mod:`~repro.service.server`) exposing the
:mod:`repro.api` facade to concurrent multi-tenant clients over a
newline-delimited JSON protocol (:mod:`~repro.service.protocol`), with
admission control with backpressure and per-tenant token-bucket quotas.
Every request decomposes into keyed work items, and one scheduler
(:mod:`~repro.service.batch`) owns their memo, single-flight coalescing,
disk tier and dispatch, stitching distinct analytical points into
shared vectorized kernel dispatches.  The
resilience layer adds per-request deadlines, cancellation through
waiter refcounts, graceful drain on SIGTERM, and a deterministic chaos
drill (:mod:`~repro.service.chaos`, driven by
:mod:`~repro.service.bench`).  A profiled request is priced through the
same items, engines and kernel as any other, so its payload is the
unprofiled one, byte for byte.  A small synchronous client with a retry
policy (:mod:`~repro.service.client`) rides along; ``repro serve`` /
``repro client`` / ``repro chaos --service`` are the CLI entries.

See ``docs/service.md`` for the protocol and operational semantics.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "batch": ("BatchScheduler", "work_items"),
    "bench": ("ChaosReport", "mixed_trace", "run_chaos_drill"),
    "chaos": (
        "ChaosError",
        "ChaosInjector",
        "ChaosResultCache",
        "ServiceChaosSpec",
    ),
    "client": ("ConnectionLost", "RetryPolicy", "ServiceClient", "ServiceError"),
    "protocol": (
        "MAX_FRAME_BYTES",
        "PROTOCOL",
        "DeadlineExceeded",
        "ProtocolError",
        "decode_frame",
        "encode_frame",
    ),
    "server": (
        "ServerThread",
        "ServiceConfig",
        "SimulationServer",
        "SimulationService",
        "TokenBucket",
        "default_workers",
        "execute_request",
        "serve",
    ),
})
