"""Steadiness mode: run one workload N times and summarize the spread.

    python3 perfbench/steady.py --workload sweep-grid --runs 10 --seed 100 --seconds 20

Each run is a fresh untraced ``run.py`` process with its own seed
(``--seed``, ``--seed + 1``, ...); it writes its end-to-end values, raw
and host-scaled, to a ``--details`` file that this reads.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the inter-quartile range as a share of the median, and the max/min ratio;
with ``--sets 2`` it repeats the whole set and prints how far the second
median moved from the first.
``--json FILE`` saves every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from benchlib import WORK_ROOT, WORKLOADS, spread_summary

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> Dict:
    details = WORK_ROOT / f"steady-{os.getpid()}-{seed}.json"
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                "--details", str(details),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed} failed ({proc.returncode}):\n{proc.stdout[-2000:]}")
        values = json.loads(details.read_text())
    finally:
        details.unlink(missing_ok=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": values["raw"],
        "scaled": values["scaled"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def summarize(runs: List[Dict], key: str) -> Dict[str, Dict[str, float]]:
    names = runs[0][key].keys()
    return {name: spread_summary([r[key][name] for r in runs]) for name in names}


def print_table(title: str, table: Dict[str, Dict[str, float]]) -> None:
    print(title)
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'max/min':>8s}")
    for name, s in table.items():
        print(
            f"  {name:28s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
            f"{s['iqr_share']:8.3f} {s['max_min']:8.3f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.seed + k * args.runs + i
            runs.append(one_run(args.workload, seed, args.seconds))
            print(f"seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        sets.append(runs)
        print_table(f"set {k + 1}: {args.workload}, {args.runs} runs", summarize(runs, "metrics"))
        print_table("  raw:", summarize(runs, "raw"))
        print_table("  host-scaled:", summarize(runs, "scaled"))
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    if len(sets) > 1:
        first = summarize(sets[0], "metrics")
        for k, runs in enumerate(sets[1:], start=2):
            print(f"set {k} median vs set 1 median:")
            for name, s in summarize(runs, "metrics").items():
                base = first[name]["median"]
                print(f"  {name:28s} {(s['median'] - base) / base:+8.3%}")
    if args.json:
        args.json.write_text(json.dumps(sets, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
