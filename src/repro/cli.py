"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — one scenario: workload × architecture × scale.
* ``sweep``    — throughput vs accelerator count for one workload
  (``--jobs``/``--cache-dir`` fan out and cache via :mod:`repro.core.sweeps`).
* ``ladder``   — the Figure 19 optimization ladder for one workload.
* ``plan``     — the §V-A train-initializer plan (prep-pool sizing,
  data distribution).
* ``report``   — full session report (``--json`` for machines).
* ``trace``    — run one scenario with tracing on and export a Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` / Perfetto).
* ``profile``  — run one scenario instrumented and print the top spans
  and counters.
* ``chaos``    — the resilience drill: inject every prep-engine failure
  mode deterministically and verify bit-identical recovery; with
  ``--service`` it runs the seeded fault drill against a live simulation
  service instead, and with ``--fail DEVICE:T0[:T1]`` it prices a
  time-varying fault schedule as a piecewise degraded-throughput
  timeline.
* ``serve``    — run the simulation service (:mod:`repro.service`):
  an asyncio TCP server with request coalescing, admission control and
  per-tenant quotas in front of the facade.
* ``client``   — talk to a running service: ``client simulate`` prices
  a scenario remotely, ``client stats`` / ``client ping`` are the admin
  ops.
* ``workloads`` — print Table I.

``simulate``/``sweep``/``ladder`` share one flag vocabulary (scenario,
engine, ``--jobs``/``--cache-dir``, ``--trace``/``--metrics``) built
from common argparse parents, and ``simulate``/``sweep`` construct the
versioned :mod:`repro.api` request objects explicitly — the CLI speaks
the same wire schema the service does.  All scenario evaluation goes
through the :mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api, obs, units
from repro.analysis.tables import format_table
from repro.core.server import build_server
from repro.errors import ConfigError
from repro.workloads.registry import TABLE_I, get_workload

#: The Figure 19 optimization ladder, as registry aliases.
_LADDER = ("baseline", "acc", "p2p", "gen4", "trainbox")


def _instruments(args: argparse.Namespace):
    """(tracer, registry) per the command's --trace/--metrics flags."""
    tracer = obs.Tracer() if getattr(args, "trace", None) else None
    registry = obs.MetricsRegistry() if getattr(args, "metrics", None) else None
    return tracer, registry


def _export_instruments(args, tracer, registry) -> None:
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print(f"trace written: {args.trace} ({len(tracer.spans)} spans)")
    if registry is not None:
        registry.write_manifest(args.metrics)
        print(f"metrics manifest written: {args.metrics}")


def _request(args: argparse.Namespace) -> "api.SimulationRequest":
    """The versioned request object a scenario command denotes."""
    return api.SimulationRequest(
        args.workload,
        args.arch,
        args.accelerators,
        engine=args.engine,
        batch_size=getattr(args, "batch", None),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    tracer, registry = _instruments(args)
    result = api.simulate(
        _request(args),
        trace=tracer,
        metrics=registry,
        cache=args.cache_dir,
    )
    print(f"workload      : {result.workload_name}")
    print(f"architecture  : {result.arch_name}")
    print(f"engine        : {args.engine}")
    print(f"accelerators  : {result.n_accelerators}")
    print(f"batch/device  : {result.batch_size}")
    print(f"throughput    : {result.throughput:,.0f} samples/s")
    print(f"prep capacity : {result.prep_rate:,.0f} samples/s")
    print(f"accel demand  : {result.consume_rate:,.0f} samples/s")
    print(f"bottleneck    : {result.bottleneck}")
    _export_instruments(args, tracer, registry)
    return 0


def _sweep_cache(args: argparse.Namespace):
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.cache import ResultCache

    return ResultCache(args.cache_dir)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweeps import SCALE_LADDER

    scales = tuple(n for n in SCALE_LADDER if n <= args.accelerators)
    if not scales:
        scales = (args.accelerators,)
    try:
        request = api.SweepRequest(
            workloads=(args.workload,),
            archs=(args.arch,),
            scales=scales,
            engine=args.engine,
        )
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None
    tracer, registry = _instruments(args)
    with obs.session(tracer=tracer):
        outcome = api.sweep(
            request, n_jobs=args.jobs, cache=_sweep_cache(args),
            metrics=registry,
        )
    one = outcome.results[0].throughput
    rows = [
        [p.scale, f"{r.throughput:,.0f}", f"{r.throughput / one:.1f}x",
         r.bottleneck]
        for p, r in outcome
    ]
    print(format_table(["accels", "samples/s", "vs 1", "bottleneck"], rows))
    if args.cache_dir:
        print(
            f"cache: {outcome.cache_hits} hits, "
            f"{outcome.cache_misses} misses ({args.cache_dir})"
        )
    if getattr(args, "explain_batch", False):
        print(
            f"dispatch: {outcome.batch_points} batch, "
            f"{outcome.batch_fallbacks} scalar fallback, "
            f"{outcome.cache_hits} cache"
        )
        for (p, _), how in zip(outcome, outcome.dispatch):
            print(f"  {p.workload.name}/{p.arch.name}/{p.scale}: {how}")
    _export_instruments(args, tracer, registry)
    return 0


def _cmd_ladder(args: argparse.Namespace) -> int:
    try:
        spec = api.SweepRequest(
            workloads=(args.workload,),
            archs=_LADDER,
            scales=(args.accelerators,),
            engine=args.engine,
        )
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None
    tracer, registry = _instruments(args)
    with obs.session(tracer=tracer):
        outcome = api.sweep(
            spec, n_jobs=args.jobs, cache=_sweep_cache(args),
            metrics=registry,
        )
    base = next(
        r for p, r in outcome if p.arch.name == "baseline"
    )
    rows = [
        [
            p.arch.name,
            f"{r.throughput:,.0f}",
            f"{r.speedup_over(base):.1f}x",
            r.bottleneck,
        ]
        for p, r in outcome
    ]
    print(format_table(["architecture", "samples/s", "speedup", "bottleneck"], rows))
    if args.cache_dir:
        print(
            f"cache: {outcome.cache_hits} hits, "
            f"{outcome.cache_misses} misses ({args.cache_dir})"
        )
    _export_instruments(args, tracer, registry)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    result = api.simulate(
        args.workload,
        args.arch,
        args.accelerators,
        engine=args.engine,
        batch_size=args.batch,
        trace=tracer,
        metrics=registry,
    )
    path = tracer.write_chrome(args.out)
    traced = api.trace_iteration_time(tracer)
    reported = result.iteration_time
    delta = abs(traced - reported) / reported if reported else 0.0
    print(f"trace written : {path} ({len(tracer.spans)} spans)")
    print(f"engine        : {args.engine}")
    print(f"throughput    : {result.throughput:,.0f} samples/s")
    print(f"iteration time: {reported * 1e3:.3f} ms (reported)")
    print(f"trace implies : {traced * 1e3:.3f} ms ({100 * delta:.3f}% off)")
    if delta > 0.01:
        print("RECONCILIATION FAILURE: trace vs result differ by >1%",
              file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    result = api.simulate(
        args.workload,
        args.arch,
        args.accelerators,
        engine=args.engine,
        batch_size=args.batch,
        trace=tracer,
        metrics=registry,
    )
    print(f"{result.workload_name} on {result.arch_name} "
          f"x{result.n_accelerators} [{args.engine}]: "
          f"{result.throughput:,.0f} samples/s")
    print()
    rows = [
        [
            s.name,
            s.track,
            s.count,
            f"{s.total * 1e3:.3f}",
            f"{s.mean * 1e3:.3f}",
            f"{s.max_duration * 1e3:.3f}",
        ]
        for s in tracer.summarize(top=args.top)
    ]
    print(format_table(
        ["span", "track", "count", "total ms", "mean ms", "max ms"], rows
    ))
    manifest = registry.to_manifest()
    counter_rows = [[k, v] for k, v in manifest["counters"].items()]
    if counter_rows:
        print()
        print(format_table(["counter", "value"], counter_rows))
    histo_rows = [
        [k, h["count"], f"{h['total']:.4g}", h["min"], h["max"]]
        for k, h in manifest["histograms"].items()
    ]
    if histo_rows:
        print()
        print(format_table(["histogram", "n", "total", "min", "max"], histo_rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.initializer import TrainInitializer

    if args.workload == "describe":
        return _cmd_plan_describe(args)
    workload = get_workload(args.workload)
    server = build_server(api.ARCHS["trainbox"], args.accelerators)
    plan = TrainInitializer(server).plan(workload, num_items=args.items)
    print(f"required prep throughput : {plan.required_prep_rate:,.0f} samples/s")
    print(f"in-box FPGA capacity     : {plan.in_box_prep_rate:,.0f} samples/s")
    print(f"prep-pool FPGAs          : {plan.pool_fpgas_granted} "
          f"(+{100 * plan.extra_resource_fraction:.0f}%)")
    print(f"meets target             : {plan.meets_target}")
    print(f"boxes with data          : {len(plan.shards)}")
    return 0


def _cmd_plan_describe(args: argparse.Namespace) -> int:
    """``repro plan describe <pipeline>`` — compile a prep pipeline for a
    representative batch and print the compiled-plan report (stages,
    fusions, hoisted invariants, arena layout)."""
    import numpy as np

    from repro.dataprep.ops_audio import audio_pipeline
    from repro.dataprep.ops_image import image_pipeline
    from repro.dataprep.plan import compile_plan, geometry_for_batch
    from repro.datasets.imagenet import synthesize_image

    name = args.pipeline
    size, batch = args.size, args.batch
    crop = max(1, size - 32)

    def images():
        return [
            synthesize_image(np.random.default_rng(300 + i), size, size, i)
            for i in range(batch)
        ]

    if name == "image":
        from repro.dataprep import jpeg

        pipe = image_pipeline(out_height=crop, out_width=crop)
        payloads = jpeg.encode_batch(images(), quality=75)
    elif name == "image-png":
        from repro.dataprep.png import codec as png

        pipe = image_pipeline(
            out_height=crop, out_width=crop, source_format="png"
        )
        payloads = [png.encode(image) for image in images()]
    elif name == "audio":
        pipe = audio_pipeline()
        payloads = (
            np.clip(
                np.random.default_rng(5).normal(0, 0.2, (batch, 16_000)),
                -1,
                1,
            )
            * 32767
        ).astype(np.int16)
    else:
        raise SystemExit(
            f"unknown pipeline {name!r}; choose from image, image-png, audio"
        )
    plan = compile_plan(pipe, geometry_for_batch(pipe, payloads))
    print(plan.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.core.dataflow import build_demand
    from repro.core.resources import (
        host_requirements,
        resource_breakdown,
        shares,
    )
    from repro.core.server import build_server_cached

    result = api.simulate(
        args.workload, args.arch, args.accelerators, batch_size=args.batch
    )
    workload = api.resolve_workload(args.workload)
    arch = api.resolve_arch(args.arch)
    demand = build_demand(build_server_cached(arch, args.accelerators), workload)
    if args.json:
        breakdowns = resource_breakdown(demand)
        print(json.dumps({
            "workload": workload.name,
            "architecture": arch.name,
            "n_accelerators": args.accelerators,
            "batch_size": result.batch_size,
            "throughput": result.throughput,
            "prep_rate": result.prep_rate,
            "consume_rate": result.consume_rate,
            "bottleneck": result.bottleneck,
            "resource_rates": {
                k: (None if v == float("inf") else v)
                for k, v in result.resource_rates.items()
            },
            "breakdown_shares": {
                resource: shares(table) if sum(table.values()) > 0 else {}
                for resource, table in breakdowns.items()
            },
        }, indent=2))
        return 0
    target = args.accelerators * workload.sample_rate
    req = host_requirements(demand, target)
    print(f"workload        : {workload.name} ({workload.task})")
    print(f"architecture    : {arch.name}")
    print(f"accelerators    : {args.accelerators}")
    print(f"batch/device    : {result.batch_size}")
    print(f"throughput      : {result.throughput:,.0f} samples/s "
          f"({100 * result.throughput / target:.1f}% of accelerator target)")
    print(f"bottleneck      : {result.bottleneck}")
    print(f"prep capacity   : {result.prep_rate:,.0f} samples/s")
    print(f"consume demand  : {result.consume_rate:,.0f} samples/s")
    print()
    print("host requirements at target (normalized to DGX-2):")
    print(f"  CPU cores     : {req.normalized_cores:8.1f}x")
    print(f"  memory BW     : {req.normalized_memory_bandwidth:8.1f}x")
    print(f"  PCIe BW at RC : {req.normalized_pcie_bandwidth:8.1f}x")
    print()
    print("per-resource prep rates (samples/s):")
    rows = sorted(result.resource_rates.items(), key=lambda kv: kv[1])
    print(format_table(
        ["resource", "rate"],
        [
            [name, "unbounded" if rate == float("inf") else f"{rate:,.0f}"]
            for name, rate in rows
        ],
    ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.fail:
        return _chaos_schedule(args)
    if args.service:
        drill, default_seeds = _service_drill, [5, 11]
    else:
        drill, default_seeds = _prep_drill, [7]
    status = 0
    for seed in args.seed or default_seeds:
        status |= drill(args, seed)
    return status


def _prep_drill(args: argparse.Namespace, seed: int) -> int:
    from repro.dataprep.drill import run_drill

    results = run_drill(
        num_samples=args.samples,
        batch_size=args.batch,
        num_workers=args.workers,
        seed=seed,
        shard_timeout_s=args.timeout,
    )
    rows = []
    for r in results:
        d = r.report.as_dict()
        rows.append(
            [
                r.name,
                "ok" if r.ok else "FAIL",
                f"{r.seconds:.2f}",
                d["retries"],
                d["worker_crashes"],
                d["deadline_expiries"],
                d["respawns"],
                d["shards_quarantined"],
                d["samples_quarantined"],
            ]
        )
    print(format_table(
        ["scenario", "bits", "sec", "retry", "crash", "deadline",
         "respawn", "shard-q", "sample-q"],
        rows,
    ))
    failures = [r for r in results if not r.ok]
    for r in failures:
        detail = r.error or "delivered batches differ from the reference run"
        print(f"CHAOS FAILURE  {r.name}: {detail}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"all {len(results)} chaos scenarios bit-identical to the "
        f"fault-free reference ({args.workers} workers, seed {seed})"
    )
    return 0


def _service_drill(_args: argparse.Namespace, seed: int) -> int:
    # A correctness drill, not a latency gate: seeded fault injection
    # against a live service with hard invariants (bit-identity,
    # accounting balance, clean drain).
    from repro.service.bench import run_chaos_drill

    try:
        report = run_chaos_drill(seed=seed)
    except ConfigError as exc:
        print(f"SERVICE CHAOS FAILURE  {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    print(
        f"service chaos drill passed (seed {seed}): non-faulted responses "
        f"bit-identical, accounting balanced, server drained clean"
    )
    return 0


def _chaos_schedule(args: argparse.Namespace) -> int:
    from repro.core.faults import FaultEvent, FaultSchedule

    events = []
    for spec in args.fail:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"bad --fail spec {spec!r}; expected DEVICE:FAIL[:RECOVER]"
            )
        try:
            fail_t = float(parts[1])
            recover_t = float(parts[2]) if len(parts) == 3 else float("inf")
        except ValueError:
            raise SystemExit(f"bad --fail times in {spec!r}") from None
        events.append(FaultEvent(parts[0], fail_t, recover_t))
    timeline = api.price_fault_schedule(
        args.workload,
        args.arch,
        args.accelerators,
        FaultSchedule(tuple(events)),
        args.horizon,
        engine=args.engine,
    )
    rows = [
        [
            f"{s.start:g}",
            f"{s.end:g}",
            ",".join(s.failed) or "-",
            f"{s.throughput:,.0f}",
            s.bottleneck,
        ]
        for s in timeline.segments
    ]
    print(format_table(
        ["start", "end", "failed", "samples/s", "bottleneck"], rows
    ))
    print(
        f"mean {timeline.mean_throughput:,.0f} samples/s over "
        f"{timeline.horizon:g}s "
        f"(min {timeline.min_throughput:,.0f}, "
        f"max {timeline.max_throughput:,.0f}) [{args.engine}]"
    )
    return 0


def _service_config(args: argparse.Namespace):
    import math

    from repro.service import ServiceConfig

    return ServiceConfig(
        max_workers=args.workers,
        max_pending=args.max_pending,
        memo_entries=args.memo,
        quota_rate=math.inf if args.quota_rate is None else args.quota_rate,
        quota_burst=args.quota_burst,
        max_tenants=args.max_tenants,
        cache_dir=args.cache_dir,
        max_batch_points=args.max_batch_points,
        drain_timeout=args.drain_timeout,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    try:
        serve(_service_config(args), host=args.host, port=args.port)
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def _pipeline_requests(path: str):
    """Parse a JSONL file of request bodies into request objects."""
    import json

    requests = []
    try:
        handle = open(path)
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    with handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not JSON: {exc}")
            try:
                requests.append(api.request_from_dict(data))
            except ConfigError as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}")
    if not requests:
        raise SystemExit(f"{path}: no requests")
    return requests


def _cmd_client(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.service import ServiceClient

    try:
        with ServiceClient(
            args.host, args.port, tenant=args.tenant
        ) as client:
            if args.requests_file is not None:
                # Pipeline mode: write every frame, then collect the
                # out-of-order responses — the server stitches distinct
                # analytical points that queue together into one dispatch.
                requests = _pipeline_requests(args.requests_file)
                start = time.perf_counter()
                responses = client.request_many(requests)
                elapsed = time.perf_counter() - start
                if args.json:
                    for response in responses:
                        print(json.dumps(response, sort_keys=True))
                failed = 0
                served: dict = {}
                for response in responses:
                    if response.get("status") != "ok":
                        failed += 1
                        error = response.get("error") or {}
                        print(
                            f"{response.get('id')}: "
                            f"{response.get('status')}: "
                            f"{error.get('code')}: {error.get('message')}",
                            file=sys.stderr,
                        )
                    else:
                        tier = response["meta"].get("served_by", "?")
                        served[tier] = served.get(tier, 0) + 1
                tiers = ", ".join(
                    f"{tier}: {count}" for tier, count in sorted(served.items())
                )
                print(
                    f"{len(responses)} requests in {elapsed * 1000:.1f} ms "
                    f"({failed} failed; {tiers})"
                )
                return 1 if failed else 0
            if args.action == "ping":
                response = client.ping()
                print(json.dumps(response, indent=2, sort_keys=True))
                return 0 if response.get("status") == "ok" else 1
            if args.action == "stats":
                stats = client.stats()
                print(json.dumps(stats, indent=2, sort_keys=True))
                return 0
            # action == "simulate": price one scenario remotely.
            if args.workload is None:
                raise SystemExit("client simulate needs a workload name")
            request = _request(args)
            response = client.call(request, profile=args.profile)
            if response.get("status") != "ok":
                error = response.get("error") or {}
                print(
                    f"{response.get('status')}: {error.get('code')}: "
                    f"{error.get('message')}",
                    file=sys.stderr,
                )
                return 1
            if args.json:
                print(json.dumps(response, indent=2, sort_keys=True))
                return 0
            result = response["payload"]["result"]
            meta = response.get("meta", {})
            print(f"workload      : {result['workload_name']}")
            print(f"architecture  : {result['arch_name']}")
            print(f"engine        : {request.engine}")
            print(f"accelerators  : {result['n_accelerators']}")
            print(f"throughput    : {result['throughput']:,.0f} samples/s")
            print(f"bottleneck    : {result['bottleneck']}")
            print(f"served by     : {meta.get('served_by')}")
            if args.profile and "spans" in meta:
                rows = [
                    [name, count, f"{total_ms:.3f}", track]
                    for name, count, total_ms, track in meta["spans"]
                ]
                print(
                    format_table(["span", "count", "total ms", "track"], rows)
                )
            return 0
    except ConfigError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [
            w.nn_type.value,
            w.name,
            w.task,
            w.batch_size,
            f"{w.model_bytes / units.MB:.1f}",
            f"{w.sample_rate:,}",
        ]
        for w in TABLE_I.values()
    ]
    print(
        format_table(
            ["type", "name", "task", "batch", "model MB", "sample/s"], rows
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TrainBox reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag vocabulary: one argparse parent per group, composed
    # per command, so simulate/sweep/ladder (and trace/profile) can
    # never drift apart in spelling, defaults or help text.
    scenario_p = argparse.ArgumentParser(add_help=False)
    scenario_p.add_argument(
        "workload", help="Table I workload name (e.g. Resnet-50)"
    )
    scenario_p.add_argument(
        "-n", "--accelerators", type=int, default=256,
        help="NN accelerator count (default 256)",
    )

    # argparse parents share Action objects, so a per-command default
    # needs a per-default parent (set_defaults would mutate the shared
    # Action and leak the override into every sibling command).
    def arch_parent(default: str) -> argparse.ArgumentParser:
        ap = argparse.ArgumentParser(add_help=False)
        ap.add_argument(
            "-a", "--arch", default=default, choices=sorted(api.ARCHS),
            help=f"architecture alias (default {default})",
        )
        return ap

    arch_p = arch_parent("trainbox")
    arch_baseline_p = arch_parent("baseline")

    batch_p = argparse.ArgumentParser(add_help=False)
    batch_p.add_argument(
        "-b", "--batch", type=int, default=None, help="per-device batch"
    )

    engine_p = argparse.ArgumentParser(add_help=False)
    engine_p.add_argument(
        "-e", "--engine", default="analytical",
        choices=list(api.ENGINE_NAMES),
        help="simulation engine (default analytical)",
    )

    obs_p = argparse.ArgumentParser(add_help=False)
    obs_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a trace and write Chrome trace_event JSON here",
    )
    obs_p.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="collect counters and write the run manifest JSON here",
    )

    cache_p = argparse.ArgumentParser(add_help=False)
    cache_p.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory (off by default)",
    )

    jobs_p = argparse.ArgumentParser(add_help=False)
    jobs_p.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for uncached points (default 1)",
    )

    p = sub.add_parser(
        "simulate", help="simulate one scenario",
        parents=[scenario_p, arch_p, batch_p, engine_p, cache_p, obs_p],
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "sweep", help="throughput vs accelerator count",
        parents=[scenario_p, arch_baseline_p, engine_p, jobs_p, cache_p, obs_p],
    )
    p.add_argument(
        "--explain-batch", action="store_true",
        help="print which path (batch kernel / scalar / cache) served "
        "each point",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "ladder", help="the Figure 19 optimization ladder",
        parents=[scenario_p, engine_p, jobs_p, cache_p, obs_p],
    )
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser(
        "trace",
        help="trace one scenario and export Chrome trace_event JSON",
        parents=[scenario_p, arch_p, batch_p, engine_p],
    )
    p.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="output trace path (default trace.json)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run one scenario instrumented; print top spans and counters",
        parents=[scenario_p, arch_p, batch_p, engine_p],
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="how many span aggregates to show (default 10)",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "plan",
        help="train-initializer plan (prep-pool sizing); "
        "'plan describe <pipeline>' prints a compiled prep plan",
        parents=[scenario_p],
    )
    p.add_argument("--items", type=int, default=1_000_000, help="dataset items")
    p.add_argument(
        "pipeline", nargs="?", default="image",
        help="for 'plan describe': image | image-png | audio",
    )
    p.add_argument(
        "--size", type=int, default=256,
        help="for 'plan describe': source image edge (default 256)",
    )
    p.add_argument(
        "-b", "--batch", type=int, default=32,
        help="for 'plan describe': batch size to compile for (default 32)",
    )
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "report", help="full session report (use --json for machines)",
        parents=[scenario_p, arch_p, batch_p],
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "chaos",
        help="chaos drill: run every prep-engine failure mode and verify "
        "bit-identical recovery; with --service, drill the simulation "
        "service instead; with --fail, price a fault schedule",
    )
    p.add_argument(
        "--service", action="store_true",
        help="run the seeded service chaos drill: injected executor "
        "faults, dispatch faults, disk-tier IO errors and connection "
        "drops; asserts non-faulted responses stay bit-identical, outcome "
        "accounting balances and the server drains clean",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="prep worker processes for the drill (default 2)",
    )
    p.add_argument("--samples", type=int, default=20, help="drill dataset size")
    p.add_argument("--batch", type=int, default=4, help="drill batch size")
    p.add_argument(
        "--seed", type=int, action="append", default=None, metavar="SEED",
        help="drill seed, repeatable (default 7; seeds 5 and 11 with "
        "--service)",
    )
    p.add_argument(
        "--timeout", type=float, default=2.0,
        help="per-shard deadline seconds for the drill (default 2.0)",
    )
    p.add_argument(
        "--fail", action="append", default=[], metavar="DEVICE:FAIL[:RECOVER]",
        help="price a fault schedule instead of the drill; repeatable "
        "(e.g. --fail tbox0_fpga0:10:40)",
    )
    p.add_argument(
        "--workload", default="Resnet-50",
        help="workload for --fail schedule pricing (default Resnet-50)",
    )
    p.add_argument(
        "-a", "--arch", default="trainbox", choices=sorted(api.ARCHS),
        help="architecture alias for --fail pricing (default trainbox)",
    )
    p.add_argument(
        "-n", "--accelerators", type=int, default=32,
        help="accelerator count for --fail pricing (default 32)",
    )
    p.add_argument(
        "-e", "--engine", default="analytical",
        choices=list(api.ENGINE_NAMES),
        help="simulation engine (default analytical)",
    )
    p.add_argument(
        "--horizon", type=float, default=60.0,
        help="schedule pricing horizon seconds (default 60)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the simulation service (asyncio TCP, NDJSON protocol)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=7543, help="bind port")
    p.add_argument(
        "--workers", type=int, default=None,
        help="engine threads for DES/flow points and fault schedules; "
        "analytical points are priced on the event loop (default: sized "
        "from the CPU count)",
    )
    p.add_argument(
        "--max-batch-points", type=int, default=256,
        help="points per kernel dispatch, priced on the event loop; a "
        "dispatch carries the points queued in one loop iteration, and a "
        "larger queue goes in chunks, one per iteration (default 256)",
    )
    p.add_argument(
        "--max-pending", type=int, default=64,
        help="admission-control bound on requests holding work they "
        "started; beyond it a request needing new work gets a "
        "backpressure rejection (default 64)",
    )
    p.add_argument(
        "--memo", type=int, default=4096,
        help="in-process work-item memo entries (default 4096)",
    )
    p.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-tenant requests/s token-bucket rate (default unlimited)",
    )
    p.add_argument(
        "--quota-burst", type=float, default=256.0,
        help="per-tenant burst capacity (default 256)",
    )
    p.add_argument(
        "--max-tenants", type=int, default=1024,
        help="live per-tenant quota buckets; idle ones are LRU-evicted "
        "beyond this (default 1024)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="on-disk result tier; several servers and `repro sweep "
        "--cache-dir` runs may share one directory",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="graceful-drain budget on SIGTERM/close: seconds to wait "
        "for in-flight requests before abandoning them (default 10)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running simulation service",
        parents=[arch_p, batch_p, engine_p],
    )
    p.add_argument(
        "action", choices=["simulate", "stats", "ping"],
        nargs="?", default="simulate",
        help="simulate a scenario remotely, or an admin op "
        "(ignored with --requests-file)",
    )
    p.add_argument(
        "--requests-file", default=None, metavar="JSONL",
        help="pipeline a JSONL file of request bodies (one "
        "schema-tagged request dict per line) over one connection and "
        "print a served-by summary",
    )
    p.add_argument(
        "workload", nargs="?", default=None,
        help="Table I workload name (for 'simulate')",
    )
    p.add_argument(
        "-n", "--accelerators", type=int, default=256,
        help="NN accelerator count (default 256)",
    )
    p.add_argument("--host", default="127.0.0.1", help="service address")
    p.add_argument("--port", type=int, default=7543, help="service port")
    p.add_argument("--tenant", default="cli", help="tenant id for quotas")
    p.add_argument(
        "--profile", action="store_true",
        help="ask the server for a per-request span summary",
    )
    p.add_argument(
        "--json", action="store_true", help="print the raw response envelope"
    )
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("workloads", help="print Table I")
    p.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
