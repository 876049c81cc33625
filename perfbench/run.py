"""The benchmark's one command.

    python3 perfbench/run.py --workload prep-image --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed in a separate process, times
the program's set-up and its steady state, checks the outputs, prints the
diagnostics, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  ``--details
FILE`` also writes the end-to-end values, raw and host-scaled, as JSON
(the steadiness mode reads it).  A mismatch against the reference
outputs makes the exit status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

import benchlib
from benchlib import SRC, WORK_ROOT, WORKLOADS, emit, run_json

HERE = Path(__file__).resolve().parent

#: Cold set-ups timed per run (each in a fresh process); the median counts.
SETUP_REPS = 5
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dataprep.jpeg.decode_busy_s": "s",
    "dataprep.jpeg.images": "count",
    "dataprep.plan.compile_s": "s",
    "dataprep.plan.compiles": "count",
    "dataprep.plan.augment_busy_s": "s",
    "dataprep.plan.copy_out_s": "s",
    "dataprep.plan.fallbacks": "count",
    "dataprep.engine.batch_wait_s": "s",
    "dataprep.engine.overhead_s": "s",
    "prep.batches": "count",
    "prep.samples": "count",
    "prep.retries": "count",
    "core.server.builds": "count",
    "core.server.build_busy_s": "s",
    "core.analytical_batch.kernel_busy_s": "s",
    "core.analytical_batch.points": "count",
    "core.analytical_batch.points_per_call": "ratio",
    "core.analytical_batch.incidence_busy_s": "s",
    "sweep.batch_fallbacks": "count",
    "core.des.runs": "count",
    "core.des.busy_s": "s",
    "cache.key_busy_s": "s",
    "cache.get_busy_s": "s",
    "cache.put_busy_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.stores": "count",
    "cache.quarantined": "count",
    "service.protocol.decode_busy_s": "s",
    "service.protocol.encode_busy_s": "s",
    "service.protocol.frames": "count",
    "service.protocol.response_bytes": "bytes",
    "service.served.computed": "count",
    "service.served.batched": "count",
    "service.served.coalesced": "count",
    "service.served.memo": "count",
    "service.engine_free_ratio": "ratio",
    "service.compute_busy_s": "s",
    "service.rejected": "count",
    "service.errors": "count",
    "service.batch.dispatches": "count",
    "service.batch.points_per_dispatch": "ratio",
    "service.batch.request_s": "s",
    "service.batch.dispatch_busy_s": "s",
    "service.breaker_tripped": "count",
    "loadgen.sent": "count",
    "loadgen.lag_p99_ms": "ms",
    "host.probe_ms": "ms",
    "trace.coverage": "ratio",
    "trace.throughput_traced_per_s": "1/s",
    "trace.throughput_untraced_per_s": "1/s",
    "trace.overhead_per_s": "1/s",
}


def _python(script: str, *args) -> List[str]:
    return [sys.executable, str(HERE / script), *map(str, args)]


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    run_json(_python("gen.py", workload, "--seed", seed, "--out", work), timeout=120)
    # The traced run reports no set-up time.
    setups = [
        run_json(
            _python("worker.py", "setup", workload, "--inputs", work),
            timeout=60,
        )
        for _ in range(0 if trace else SETUP_REPS)
    ]
    out = run_json(
        _python(
            "worker.py", "run", workload, "--inputs", work, "--seed", seed,
            "--seconds", seconds, "--trace", int(trace),
        ),
        timeout=170,
    )
    out["setup_raw"] = [s["setup_s"] for s in setups]
    out["setup_scaled"] = [s["scaled_s"] for s in setups]
    return out


def end_to_end(out: Dict) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics, raw and host-scaled.  The scaled ones are
    reported: over repeated runs scaling tightened the spread of every
    timing on every workload."""
    values = {}
    for kind in ("raw", "scaled"):
        values[kind] = dict(out["timing"][kind])
        values[kind]["setup_s"] = statistics.median(out[f"setup_{kind}"])
        values[kind]["peak_rss_mb"] = out["peak_rss_mb"]
    return values


def per_layer(out: Dict) -> Dict[str, float]:
    from shims import coverage

    trace = out["trace"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(trace["metrics"])
    metrics["trace.coverage"] = coverage(trace["layers"], trace["wall_s"])
    metrics["trace.throughput_traced_per_s"] = trace["throughput_traced"]
    metrics["trace.throughput_untraced_per_s"] = trace["throughput_untraced"]
    metrics["trace.overhead_per_s"] = (
        trace["throughput_traced"] - trace["throughput_untraced"]
    )
    metrics["host.probe_ms"] = out["probe"]["median"]
    return metrics


def report(workload: str, seed: int, trace: bool, out: Dict) -> Dict:
    env = benchlib.environment()
    print(f"perfbench {workload} seed={seed} trace={int(trace)}")
    print(
        "env: commit={commit} nproc={nproc} python={python} numpy={numpy}".format(**env)
    )
    probe = out["probe"]
    print(
        f"host.probe_ms: min={probe['min']:.3f} median={probe['median']:.3f} "
        f"max={probe['max']:.3f} (n={probe['count']}, nominal {probe['nominal']:g})"
    )
    for key, value in out.get("diagnostics", {}).items():
        print(f"{key}: {value}")
    for key, (raw, scaled) in out.get("extra_timings", {}).items():
        print(f"{key} = {raw:.6g} (raw {raw:.6g}, scaled {scaled:.6g})")
    attempted, failed = out["attempted"], out["failed"]
    print(
        f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} "
        f"operations; {out.get('checked', 0)} checked against the reference)"
    )
    if trace:
        metrics = per_layer(out)
        print(f"{'layer span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(out["trace"]["layers"].items()):
            print(
                f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} "
                f"{row['self_s']:10.4f}"
            )
        from shims import NAMED_LAYERS, self_time_by_layer

        wall = out["trace"]["wall_s"]
        by_layer = self_time_by_layer(out["trace"]["layers"])
        unattributed = 0.0
        for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            share = f" ({self_s / wall:.1%} of the timed wall time)" if wall else ""
            where = "in" if layer in NAMED_LAYERS else "unattributed, in"
            print(f"self time {where} {layer}: {self_s:.4f} s{share}")
            if layer not in NAMED_LAYERS:
                unattributed += self_s
        if wall:
            print(
                f"unattributed: {unattributed / wall:.1%} of the timed wall time; "
                f"coverage (named layers only): {metrics['trace.coverage']:.1%}"
            )
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {PER_LAYER[name]}")
        units = PER_LAYER
    else:
        values = end_to_end(out)
        metrics = values["scaled"]
        print(
            f"samples: {out['samples']} operations over {out['measured_s']:.2f}s "
            f"measured; {len(out['setup_raw'])} set-ups"
        )
        for name, unit in END_TO_END.items():
            print(
                f"{name} = {metrics[name]:.6g} {unit} "
                f"(raw {values['raw'][name]:.6g}, scaled {values['scaled'][name]:.6g})"
            )
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--details", type=Path,
        help="also write the end-to-end values, raw and host-scaled, as JSON",
    )
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mixed":
            import wl_service

            out = wl_service.run(args.seed, args.seconds, trace, work)
        else:
            out = run_inprocess(args.workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    result = report(args.workload, args.seed, trace, out)
    if args.details and not trace:
        args.details.parent.mkdir(parents=True, exist_ok=True)
        args.details.write_text(json.dumps(end_to_end(out)))
    emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
