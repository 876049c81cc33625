"""Timing shims around the program's layer boundaries.

Each shim replaces the attribute the caller actually looks up (a module
global, or a method on its class) with a wrapper that records a span in a
:class:`benchlib.SpanLog`.  No ``repro.obs`` tracer is ever activated: an
active tracer moves analytical points off the vectorized kernel, so the
traced run would measure a different program.
"""

from __future__ import annotations

import collections
from typing import Dict, List, Tuple

from benchlib import SpanLog

#: Span name -> the layer (module) whose self time it contributes to.
PREP_LAYERS = {
    "dataprep.engine.next": "dataprep.engine",
    "dataprep.engine.prepare_shard": "dataprep.engine",
    "dataprep.plan.run": "dataprep.plan",
    "dataprep.plan.lookup": "dataprep.plan",
    "dataprep.plan.execute": "dataprep.plan",
    "dataprep.plan.augment": "dataprep.plan",
    "dataprep.jpeg.decode": "dataprep.jpeg",
}
CORE_LAYERS = {
    "api.sweep": "core.sweeps",
    "core.sweeps.point": "core.sweeps",
    "core.server.build": "core.server",
    "core.analytical_batch.kernel": "core.analytical_batch",
    "core.analytical_batch.incidence": "core.analytical_batch",
    "core.des.run": "core.des",
    "cache.key": "cache",
    "cache.get": "cache",
    "cache.put": "cache",
}
SERVICE_LAYERS = {
    "service.protocol.decode": "service.protocol",
    "service.protocol.encode": "service.protocol",
    "service.server.handle": "service.server",
    "service.server.compute": "service.server",
    "service.batch.request": "service.batch",
    "service.batch.dispatch": "service.batch",
}

LAYER_OF = {**PREP_LAYERS, **CORE_LAYERS, **SERVICE_LAYERS}

#: The layers the benchmark attributes time to.  Self time elsewhere (the
#: ``api.sweep`` root around each timed grid, the scalar per-point path of
#: ``core.sweeps``) is unattributed and does not count as coverage.
NAMED_LAYERS = (
    "dataprep.jpeg", "dataprep.plan", "dataprep.engine",
    "core.server", "core.analytical_batch", "core.des", "cache",
    "service.protocol", "service.server", "service.batch",
)


def self_time_by_layer(layers: Dict) -> Dict[str, float]:
    """Self seconds per layer, from per-span-name rows of
    :func:`benchlib.layer_totals`."""
    out: Dict[str, float] = collections.defaultdict(float)
    for name, row in layers.items():
        out[LAYER_OF.get(name, name)] += row["self_s"]
    return dict(out)


def coverage(layers: Dict, wall_s: float) -> float:
    """Share of ``wall_s`` covered by the named layers' self time."""
    by_layer = self_time_by_layer(layers)
    named = sum(by_layer.get(layer, 0.0) for layer in NAMED_LAYERS)
    return named / wall_s if wall_s else 0.0

_AUGMENT_STAGES = (
    "FusedCropMirrorStage",
    "CropStage",
    "MirrorStage",
    "FusedNoiseCastStage",
    "NoiseStage",
    "CastStage",
)


class Shims:
    """Installs and removes the shims; keeps the counts they make."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._patched: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.log.wrap(original, name, **hooks))

    def _count(self, key: str, amount_of=None):
        def hook(args, kwargs, result):
            self.counts[key] += amount_of(args, kwargs, result) if amount_of else 1

        return hook

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- layers ---------------------------------------------------------------

    def install_prep(self) -> None:
        from repro.dataprep import engine, pipeline, plan
        from repro.dataprep.jpeg import codec

        self._patch(
            codec, "decode_batch", "dataprep.jpeg.decode",
            on_exit=self._count("jpeg.images", lambda a, k, r: len(a[0])),
        )
        for stage in _AUGMENT_STAGES:
            self._patch(getattr(plan, stage), "run", "dataprep.plan.augment")
        self._patch(
            plan.PrepPlan, "execute", "dataprep.plan.execute",
            on_exit=self._count("plan.executed"),
        )
        self._patch(plan, "try_plan", "dataprep.plan.lookup")
        self._patch(engine, "prepare_shard", "dataprep.engine.prepare_shard")

        # A batch left the plan when run_batch_vectorized returned without
        # a completed PrepPlan.execute inside it.
        shims = self
        original = pipeline.PrepPipeline.run_batch_vectorized

        def run_counting(self_, batch, rngs, plan=True):
            before = shims.counts["plan.executed"]
            out = original(self_, batch, rngs, plan)
            shims.counts["plan.batches"] += 1
            if shims.counts["plan.executed"] == before:
                shims.counts["plan.fallbacks"] += 1
            return out

        self._patched.append((pipeline.PrepPipeline, "run_batch_vectorized", original))
        pipeline.PrepPipeline.run_batch_vectorized = self.log.wrap(
            run_counting, "dataprep.plan.run"
        )

    def install_core(self) -> None:
        from repro import api, cache
        from repro.core import analytical, analytical_batch, des, server, sweeps

        for module in (server, des, analytical):
            self._patch(
                module, "build_server", "core.server.build",
                on_exit=self._count("server.builds"),
            )
        for entry in ("evaluate_points", "evaluate_grid"):
            self._patch(
                analytical_batch, entry, "core.analytical_batch.kernel",
                on_exit=self._kernel_hook,
            )
        self._patch(
            analytical_batch, "prep_rates_batch", "core.analytical_batch.incidence"
        )
        for module in (api, des):
            self._patch(
                module, "simulate_des", "core.des.run",
                on_exit=self._count("des.runs"),
            )
        self._patch(sweeps, "evaluate_point", "core.sweeps.point")
        # Result-cache keys: ``sweeps.cache_key`` hashes each point with
        # ``repro.cache.fingerprint``.
        self._patch(sweeps, "fingerprint", "cache.key")
        self._patch(cache.ResultCache, "get", "cache.get")
        self._patch(cache.ResultCache, "put", "cache.put")

    def _kernel_hook(self, args, kwargs, result) -> None:
        self.counts["kernel.calls"] += 1
        self.counts["kernel.points"] += len(args[0])

    def install_service(self) -> None:
        from repro.service import batch, protocol, server

        self._patch(
            protocol, "decode_frame", "service.protocol.decode",
            on_exit=self._count("protocol.frames"),
        )
        self._patch(
            protocol, "encode_frame", "service.protocol.encode",
            on_exit=self._count("protocol.response_bytes", lambda a, k, r: len(r)),
        )
        self._patch(
            server.SimulationService, "handle", "service.server.handle",
            rid_of=_envelope_id,
        )
        self._patch(server, "execute_request", "service.server.compute")
        self._patch(batch.BatchScheduler, "run_request", "service.batch.request")
        self._patch(batch.BatchScheduler, "_compute_batch", "service.batch.dispatch")
        self._patch(batch, "evaluate_point", "core.sweeps.point")


def _envelope_id(args, kwargs):
    envelope = args[1] if len(args) > 1 else kwargs.get("envelope")
    return envelope.get("id") if isinstance(envelope, dict) else None


def core_metrics(layers: Dict, counts: Dict) -> Dict:
    """Per-layer metrics of the simulator core and result cache."""

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    calls = counts.get("kernel.calls", 0)
    return {
        "core.server.builds": counts.get("server.builds", 0),
        "core.server.build_busy_s": total("core.server.build"),
        "core.analytical_batch.kernel_busy_s": layers.get(
            "core.analytical_batch.kernel", {}
        ).get("self_s", 0.0),
        "core.analytical_batch.points": counts.get("kernel.points", 0),
        "core.analytical_batch.points_per_call": (
            counts.get("kernel.points", 0) / calls if calls else 0.0
        ),
        "core.analytical_batch.incidence_busy_s": total(
            "core.analytical_batch.incidence"
        ),
        "core.des.runs": counts.get("des.runs", 0),
        "core.des.busy_s": total("core.des.run"),
        "cache.key_busy_s": total("cache.key"),
        "cache.get_busy_s": total("cache.get"),
        "cache.put_busy_s": total("cache.put"),
    }
