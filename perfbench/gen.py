"""Seeded input generation for the three workloads.

Runs in its own process (``python3 perfbench/gen.py <workload> --seed N
--out DIR``, plus the open-loop rate and lengths for service-mixed)
before any clock starts, so neither its time nor its memory lands in a
measured process.  The same seed writes
byte-identical files; the workloads read only these files.
"""

from __future__ import annotations

import argparse
import json
import random
import struct
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: Distinct JPEGs in the prep corpus; the engine's sample range cycles over
#: them (each sample still draws its own augmentation stream).
CORPUS_IMAGES = 128
IMAGE_SIDE = 256
JPEG_QUALITY = 80

#: Grids generated per sweep run (more than any run consumes).
SWEEP_GRIDS = 6000
SWEEP_ARCHS = (
    "baseline", "acc", "acc-gpu", "p2p", "gen4", "trainbox", "trainbox-no-pool",
)
SWEEP_SCALES = (2, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 112, 128)
DES_SCALES = (1, 2, 4, 8, 16)
#: Server configurations of the set-up grid.
SETUP_ARCHS = ("baseline", "acc", "gen4", "trainbox")
SETUP_SCALES = (4, 8, 16, 32, 64, 128)
#: Grid kinds per block of 40: DES grids, grids opening a new (workloads,
#: archs, batch size) family, and grids extending an earlier family with
#: about half old, half new scales.
GRID_KINDS = ["des"] * 2 + ["fresh"] * 6 + ["extend"] * 32

#: Server configurations the service warms before timing.
WARM_ARCHS = ("baseline", "acc", "p2p", "gen4", "trainbox")
WARM_SCALES = (8, 16, 32)
#: Scales of first-time server configurations (none is a warm scale).
COLD_SCALES = (33, 96)
#: Zipf exponent of the repeats over the hot set.  An assumption: the
#: repo's load test repeats its requests uniformly.  The hot set is warmed
#: before timing, so every repeat is a memo hit whatever the exponent; it
#: only decides which entries are hit.
ZIPF_S = 1.0
#: Arrival events by kind, per block of 100 events; each block is shuffled,
#: so every run carries the same mix.  A burst is one tenant pipelining
#: BURST_K distinct simulates at a single due time, so a block holds 110
#: requests.  Where the shares come from:
#:
#: - hot repeats draw from the requests of the repo's own service load test
#:   (``repro.service.bench.mixed_trace()``);
#: - DES and fault-schedule requests keep about the shares they have among
#:   that test's unique requests (2 and 1 of 28; here 5 and 3 of 73);
#: - repeats are a third of the requests, an assumption below the load
#:   test's half (``dup_factor=2``): at half, the open-loop median falls on
#:   the gap between memo hits and engine passes and flips between the two
#:   from run to run;
#: - bursts and first-time configurations have no share in the repo to
#:   copy; one and two per hundred arrivals are assumptions, and a burst
#:   of at most 8 points fits one batch dispatch.
EVENT_MIX = (
    ("hot", 37),
    ("distinct", 52),
    ("burst", 2),
    ("des", 5),
    ("fault", 3),
    ("cold", 1),
)
BURST_K = (4, 8)
#: Tenants, as in the repo's load test (``tenant-{i % 4}``).
TENANTS = 4
DES_ITERATIONS = 12


# -- prep-image ---------------------------------------------------------------


def prep_corpus(seed: int, count: int = CORPUS_IMAGES) -> List[bytes]:
    """``count`` distinct photo-like 256×256 JPEGs, encoded 32 at a time
    so the encoder's working set stays small."""
    from repro.dataprep.jpeg import encode_batch
    from repro.datasets.imagenet import synthesize_image

    rng = np.random.default_rng([seed, 1])
    blobs: List[bytes] = []
    while len(blobs) < count:
        chunk = min(32, count - len(blobs))
        images = [
            synthesize_image(
                rng, IMAGE_SIDE, IMAGE_SIDE, int(rng.integers(0, 1000))
            )
            for _ in range(chunk)
        ]
        blobs.extend(encode_batch(images, quality=JPEG_QUALITY))
    return blobs


def write_blobs(path: Path, blobs: Sequence[bytes]) -> None:
    with open(path, "wb") as handle:
        handle.write(struct.pack("<I", len(blobs)))
        handle.write(struct.pack(f"<{len(blobs)}I", *(len(b) for b in blobs)))
        for blob in blobs:
            handle.write(blob)


def read_blobs(path: Path) -> List[bytes]:
    data = Path(path).read_bytes()
    (count,) = struct.unpack_from("<I", data, 0)
    sizes = struct.unpack_from(f"<{count}I", data, 4)
    offset = 4 + 4 * count
    blobs = []
    for size in sizes:
        blobs.append(data[offset:offset + size])
        offset += size
    return blobs


# -- sweep-grid ---------------------------------------------------------------


def sweep_grids(seed: int, count: int = SWEEP_GRIDS) -> List[Dict]:
    """A sequence of distinct grids, each 2–4 workloads × 2–4 archs × 3–6
    scales, about half of whose points an earlier grid already evaluated.

    Grids come in families sharing (workloads, archs, batch size, engine):
    a family's first grid is all new points; its later grids take
    ceil(n/2) scales it already covered and the rest new.  Kinds and
    shapes are dealt from shuffled blocks, so every run carries the same
    mix of fresh, extending and DES grids and of grid sizes.
    """
    from repro.workloads.registry import workload_names

    names = sorted(workload_names())
    rng = random.Random(seed * 7919 + 17)
    families: List[Dict] = []
    used_batch: set = set()
    grids: List[Dict] = []
    decks: Dict[str, List] = {}

    def deal(name: str, cards: List) -> object:
        deck = decks.setdefault(name, [])
        if not deck:
            deck.extend(cards)
            rng.shuffle(deck)
        return deck.pop()

    def new_batch() -> int:
        while True:
            value = rng.randint(8, 4096)
            if value not in used_batch:
                used_batch.add(value)
                return value

    def fresh(engine: str) -> Dict:
        if engine == "des":
            n_w, n_a, n_s, pool = 2, 2, 3, DES_SCALES
        else:
            n_w, n_a = deal("shape", [(w, a) for w in (2, 3, 4) for a in (2, 3, 4)])
            n_s, pool = deal("fresh_scales", [3, 4, 5, 6]), SWEEP_SCALES
        fam = {
            "workloads": sorted(rng.sample(names, n_w)),
            "archs": sorted(rng.sample(SWEEP_ARCHS, n_a)),
            "batch_size": new_batch(),
            "engine": engine,
            "covered": sorted(rng.sample(pool, n_s)),
            "scale_pool": list(pool),
        }
        if engine == "analytical":
            families.append(fam)
        return _grid(fam, fam["covered"])

    while len(grids) < count:
        kind = deal("kind", GRID_KINDS)
        n = deal("extend_scales", [3, 4, 5, 6])
        open_fams = [
            f for f in families[-24:]
            if len(f["scale_pool"]) - len(f["covered"]) >= n // 2
        ]
        if kind == "des":
            grids.append(fresh("des"))
            continue
        if kind == "fresh" or not open_fams:
            grids.append(fresh("analytical"))
            continue
        fam = rng.choice(open_fams)
        unused = [s for s in fam["scale_pool"] if s not in fam["covered"]]
        n_old = (n + 1) // 2
        scales = rng.sample(fam["covered"], n_old) + rng.sample(unused, n - n_old)
        fam["covered"] = sorted(set(fam["covered"]) | set(scales))
        grids.append(_grid(fam, scales))
    return grids


def sweep_setup_grid(seed: int) -> Dict:
    """The grid a cold process runs first.  Its server configurations are
    the same for every seed, so set-up time compares across seeds; the
    workloads and batch size are drawn from the seed."""
    from repro.workloads.registry import workload_names

    rng = random.Random(seed * 31 + 5)
    return {
        "workloads": sorted(rng.sample(sorted(workload_names()), 2)),
        "archs": list(SETUP_ARCHS),
        "scales": list(SETUP_SCALES),
        "batch_size": rng.randint(8, 4096),
        "engine": "analytical",
    }


def _grid(fam: Dict, scales: Sequence[int]) -> Dict:
    grid = {
        "workloads": fam["workloads"],
        "archs": fam["archs"],
        "scales": sorted(scales),
        "batch_size": fam["batch_size"],
        "engine": fam["engine"],
    }
    if fam["engine"] == "des":
        grid["des_iterations"] = DES_ITERATIONS
    return grid


# -- service-mixed ------------------------------------------------------------


class _TraceMaker:
    """Draws requests for the service trace; every non-hot request is a
    fingerprint no earlier request in the run used."""

    def __init__(self, seed: int) -> None:
        from repro import api
        from repro.core.server import build_server
        from repro.workloads.registry import workload_names

        self.api = api
        self.rng = random.Random(seed * 104729 + 3)
        self.names = sorted(workload_names())
        self.used: set = set()
        self.cold_used: set = set()
        self.block: List[str] = []
        from repro.service.bench import mixed_trace

        self.fpga = build_server(api.resolve_arch("trainbox"), 16).boxes[0].prep_ids[0]
        # The same hot set, in the same Zipf rank order, for every seed, so
        # every run repeats requests of the same cost.
        self.hot = [request.to_dict() for request in mixed_trace()]
        self.hot_weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(self.hot))]

    def _batch(self, key) -> int:
        while True:
            value = self.rng.randint(8, 8192)
            if (key, value) not in self.used:
                self.used.add((key, value))
                return value

    def distinct(self) -> Dict:
        w = self.rng.choice(self.names)
        a = self.rng.choice(WARM_ARCHS)
        s = self.rng.choice(WARM_SCALES)
        return self.api.SimulationRequest(
            w, a, s, batch_size=self._batch(("a", w, a, s))
        ).to_dict()

    def hot_pick(self) -> Dict:
        return self.rng.choices(self.hot, weights=self.hot_weights)[0]

    def des(self) -> Dict:
        w = self.rng.choice(self.names)
        a = self.rng.choice(("baseline", "trainbox"))
        s = self.rng.choice((4, 8, 16))
        return self.api.SimulationRequest(
            w, a, s, engine="des", des_iterations=DES_ITERATIONS,
            batch_size=self._batch(("d", w, a, s)),
        ).to_dict()

    def fault(self) -> Dict:
        while True:
            fail_t = round(self.rng.uniform(1.0, 50.0), 3)
            w = self.rng.choice(self.names)
            if (w, fail_t) not in self.used:
                self.used.add((w, fail_t))
                break
        return self.api.FaultScheduleRequest(
            w, "trainbox", 16,
            events=((self.fpga, fail_t, fail_t + 10.0),),
            horizon=60.0,
        ).to_dict()

    def cold(self) -> Dict:
        """A server configuration no earlier request used: a cold scale,
        and for TrainBox also a prep-pool size."""
        while True:
            a = self.rng.choice(WARM_ARCHS)
            s = self.rng.randint(*COLD_SCALES)
            pool = self.rng.randint(1, 64) if a == "trainbox" else None
            if (a, s, pool) not in self.cold_used:
                self.cold_used.add((a, s, pool))
                break
        return self.api.SimulationRequest(
            self.rng.choice(self.names), a, s, pool_size=pool
        ).to_dict()

    def event(self) -> List[Dict]:
        """One arrival: a list of (kind, tenant, request) entries."""
        if not self.block:
            self.block = [k for k, n in EVENT_MIX for _ in range(n)]
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        tenant = f"t{self.rng.randrange(TENANTS)}"
        if kind == "burst":
            k = self.rng.randint(*BURST_K)
            return [
                {"kind": "burst", "tenant": tenant, "req": self.distinct()}
                for _ in range(k)
            ]
        make = {
            "distinct": self.distinct,
            "hot": self.hot_pick,
            "des": self.des,
            "fault": self.fault,
            "cold": self.cold,
        }[kind]
        return [{"kind": kind, "tenant": tenant, "req": make()}]

    def warmup(self) -> List[Dict]:
        """Every warm configuration once per workload, the hot set, and
        one request of each scalar kind."""
        reqs = [
            self.api.SimulationRequest(w, a, s).to_dict()
            for w in self.names
            for a in WARM_ARCHS
            for s in WARM_SCALES
        ]
        reqs += self.hot + [self.des(), self.fault()]
        return [{"kind": "warmup", "tenant": "warm", "req": r} for r in reqs]


def mean_event_size() -> float:
    burst_mean = (BURST_K[0] + BURST_K[1]) / 2.0
    events = sum(n for _, n in EVENT_MIX)
    return sum(n * (burst_mean if k == "burst" else 1.0) for k, n in EVENT_MIX) / events


def service_trace(
    seed: int, open_rate: float, open_s: float, sat_requests: int
) -> Dict:
    """Warm-up requests, an open-loop schedule of evenly spaced arrivals
    at ``open_rate`` requests/s for ``open_s`` seconds, and a saturation
    sequence of at least ``sat_requests`` requests, all from the same mix."""
    maker = _TraceMaker(seed)
    warm = maker.warmup()
    gap = mean_event_size() / open_rate
    open_loop: List[Dict] = []
    for i in range(int(open_s / gap)):
        due = i * gap
        for entry in maker.event():
            entry["due"] = round(due, 6)
            open_loop.append(entry)
    saturation: List[Dict] = []
    while len(saturation) < sat_requests:
        saturation.extend(maker.event())
    return {"warmup": warm, "open_loop": open_loop, "saturation": saturation}


# -- entry --------------------------------------------------------------------


def write_inputs(workload: str, seed: int, out: Path, **params) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "prep-image":
        write_blobs(out / "corpus.bin", prep_corpus(seed))
    elif workload == "sweep-grid":
        inputs = {"setup": sweep_setup_grid(seed), "grids": sweep_grids(seed)}
        (out / "grids.json").write_text(json.dumps(inputs))
    elif workload == "service-mixed":
        trace = service_trace(
            seed, params["open_rate"], params["open_s"], params["sat_requests"]
        )
        (out / "trace.json").write_text(json.dumps(trace))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--open-rate", type=float, default=0.0)
    parser.add_argument("--open-s", type=float, default=0.0)
    parser.add_argument("--sat-requests", type=int, default=0)
    args = parser.parse_args()
    write_inputs(
        args.workload,
        args.seed,
        args.out,
        open_rate=args.open_rate,
        open_s=args.open_s,
        sat_requests=args.sat_requests,
    )
    print(json.dumps({"ok": True}))


if __name__ == "__main__":
    main()
