"""service-mixed: the simulation service in its own process, driven over
TCP by this process.

Load comes from one process with at most two threads and two
connections: a data connection (open loop: a sender on the main thread
and a receiver thread; saturation: the main thread alone, keeping a fixed
window outstanding) and a control connection for ``ping`` and ``stats``.
"""

from __future__ import annotations

import json
import math
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchlib
from benchlib import (
    LOADGEN_CPU,
    PROGRAM_CPU,
    ProbeTrack,
    pin,
    child_env,
    percentile,
    pid_peak_rss_mb,
    run_json,
    windowed_percentile,
)

HERE = Path(__file__).resolve().parent

#: Open-loop arrival rate, requests/s: under a third of the saturation
#: phase's throughput on a 2-core host (about 1,300-1,500/s).  At half that
#: throughput (750/s) a stall of the shared host queues more than the
#: service's default 64 pending computations within a tenth of a second,
#: and runs had failed requests.
OPEN_RATE = 400.0
#: Both phases run in segments of this length; between segments nothing is
#: outstanding and this process probes the host.
SEGMENT_S = 1.0
PROBES_PER_PAUSE = 3
#: Requests kept outstanding in the saturation phase.
WINDOW = 32
#: Share of ``--seconds`` spent in the open loop (the rest saturates).
OPEN_SHARE = 0.65
#: The saturation phase sends ``seconds * SAT_NOMINAL_RATE`` requests in
#: segments of SAT_SEGMENT_REQUESTS: a fixed amount of work, about the
#: phase's share of ``--seconds`` on a 2-core host.
SAT_NOMINAL_RATE = 1500.0
SAT_SEGMENT_REQUESTS = 1500
#: Cold launches timed per run; the last one is the measured server.
SETUP_REPS = 5
#: Distinct payloads checked against the unmodified ``execute_request``;
#: the rest are checked against it with server construction memoized.
PLAIN_ORACLE_SAMPLE = 200
#: Latency tail reported for this workload: per saturation-phase request,
#: the median over windows of 100 of each window's p90.  The open loop's
#: p90/p95/p99 and the saturation p95/p99 are printed as diagnostics: on a
#: 2-core VM they follow the host's wake-up latency and stalls and spread
#: too widely to carry a bound.
TAIL_Q = 90.0
SERVE_ARGS = ["--port", "0", "--drain-timeout", "10"]
IO_TIMEOUT = 60.0


class Conn:
    """One newline-delimited JSON connection to the service."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> Dict:
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def call(self, envelope: Dict) -> Dict:
        self.send(_frame(envelope))
        return self.recv()

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _frame(envelope: Dict) -> bytes:
    return (json.dumps(envelope, separators=(",", ":")) + "\n").encode()


class Server:
    """A ``repro serve`` process (optionally under the tracing launcher)."""

    def __init__(self, work: Path, spans_out: Optional[Path] = None) -> None:
        self.work = work
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.control: Optional[Conn] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``ping``; the seconds that took."""
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *SERVE_ARGS]
        else:
            cmd = [
                sys.executable, str(HERE / "serve_traced.py"),
                "--spans-out", str(self.spans_out), "--", *SERVE_ARGS,
            ]
        env = child_env()
        env["PYTHONUNBUFFERED"] = "1"
        start = time.perf_counter()
        with open(self.work / "server.err", "ab") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=benchlib.ROOT, env=env, stdout=subprocess.PIPE, stderr=err
            )
        # The server gets its own core (its threads start later and
        # inherit this); the load generator keeps the other.
        pin(self.proc.pid, PROGRAM_CPU)
        ready, _, _ = select.select([self.proc.stdout], [], [], IO_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.control = Conn(self.port)
        pong = self.control.call({"op": "ping", "id": "ping"})
        elapsed = time.perf_counter() - start
        if pong.get("status") != "ok":
            raise RuntimeError(f"bad ping answer {pong}")
        return elapsed

    def stats(self) -> Dict:
        return self.control.call({"op": "stats", "id": "stats"})["payload"]

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.control is not None:
            self.control.close()
            self.control = None
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            status = self.proc.wait(timeout=IO_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("service did not drain on SIGTERM")
        finally:
            self.proc.stdout.close()
        self.proc = None
        if status != 0:
            raise RuntimeError(f"service exited with status {status}")


# -- load phases --------------------------------------------------------------


def closed_loop(
    conn: Conn, frames: List[Tuple[int, bytes]], window: int
) -> Tuple[Dict[int, Dict], Dict[int, Tuple[float, float]]]:
    """Keep ``window`` requests outstanding until ``frames`` run out.
    Returns the responses and each request's (sent, received) times."""
    responses: Dict[int, Dict] = {}
    times: Dict[int, Tuple[float, float]] = {}
    sent: Dict[int, float] = {}
    pos = 0

    def send_next() -> None:
        nonlocal pos
        rid, frame = frames[pos]
        sent[rid] = time.perf_counter()
        conn.send(frame)
        pos += 1

    while pos < min(window, len(frames)):
        send_next()
    for _ in range(len(frames)):
        response = conn.recv()
        now = time.perf_counter()
        rid = response["id"]
        responses[rid] = response
        times[rid] = (sent[rid], now)
        if pos < len(frames):
            send_next()
    return responses, times


def open_loop(
    conn: Conn, schedule: List[Tuple[float, List[Tuple[int, bytes]]]]
) -> Tuple[Dict[int, Dict], Dict[int, Tuple[float, float]], List[float]]:
    """Send each group of frames at its due time (seconds from now).
    Returns the responses, each request's (due, received) times, and how
    late each send was."""
    total = sum(len(group) for _, group in schedule)
    responses: Dict[int, Dict] = {}
    received: Dict[int, float] = {}
    errors: List[BaseException] = []

    def receive() -> None:
        try:
            for _ in range(total):
                response = conn.recv()
                received[response["id"]] = time.perf_counter()
                responses[response["id"]] = response
        except BaseException as exc:  # reported by the sender below
            errors.append(exc)

    receiver = threading.Thread(target=receive, name="perfbench-recv")
    receiver.start()
    due_of: Dict[int, float] = {}
    lags: List[float] = []
    t0 = time.perf_counter() + 0.05
    try:
        for offset, group in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conn.send(b"".join(frame for _, frame in group))
            lags.append(time.perf_counter() - due)
            for rid, _ in group:
                due_of[rid] = due
    finally:
        receiver.join(timeout=IO_TIMEOUT)
    if receiver.is_alive() or errors:
        raise RuntimeError(f"open loop lost responses: {errors[:1]}")
    return responses, {rid: (due_of[rid], received[rid]) for rid in due_of}, lags


# -- checking -----------------------------------------------------------------


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check_responses(entries: Dict[int, Dict], responses: Dict[int, Dict], seed: int) -> int:
    """Failed requests: not answered ``ok``, or a payload whose canonical
    JSON differs from ``execute_request``'s for the same request."""
    from repro import api
    from repro.core import analytical
    from repro.core.server import build_server_cached
    from repro.service.server import execute_request

    by_request: Dict[str, List[int]] = {}
    failed = 0
    for rid, entry in entries.items():
        response = responses.get(rid)
        if response is None or response.get("status") != "ok":
            failed += 1
            continue
        by_request.setdefault(_canonical(entry["req"]), []).append(rid)
    keys = sorted(by_request)
    plain = set(random.Random(seed).sample(keys, min(PLAIN_ORACLE_SAMPLE, len(keys))))

    def expected(key: str) -> str:
        return _canonical(execute_request(api.request_from_dict(json.loads(key))))

    oracle = {key: expected(key) for key in keys if key in plain}
    original = analytical.build_server
    analytical.build_server = (
        lambda arch, n, hw=None, pool_size=None:
        build_server_cached(arch, n, hw=hw, pool_size=pool_size)
    )
    try:
        for key in keys:
            if key not in oracle:
                oracle[key] = expected(key)
    finally:
        analytical.build_server = original
    for key, rids in by_request.items():
        for rid in rids:
            if _canonical(responses[rid]["payload"]) != oracle[key]:
                failed += 1
    return failed


# -- the run ------------------------------------------------------------------


def _frames(entries: List[Dict], first_id: int) -> List[Tuple[int, bytes]]:
    return [
        (
            first_id + i,
            _frame({
                "id": first_id + i, "op": "request",
                "tenant": e["tenant"], "request": e["req"],
            }),
        )
        for i, e in enumerate(entries)
    ]


def _schedule(entries: List[Dict], first_id: int):
    frames = _frames(entries, first_id)
    groups: List[Tuple[float, List[Tuple[int, bytes]]]] = []
    for entry, frame in zip(entries, frames):
        if groups and groups[-1][0] == entry["due"]:
            groups[-1][1].append(frame)
        else:
            groups.append((entry["due"], [frame]))
    return groups


def _served(stats: Dict) -> Dict[str, float]:
    c = stats["counters"]
    requests = c.get("service.requests", 0)
    free = (
        c.get("service.memo_hits", 0) + c.get("service.coalesced", 0)
        + c.get("service.disk_hits", 0) + c.get("service.shared_hits", 0)
    )
    dispatches = c.get("service.batch_dispatches", 0)
    return {
        "service.served.computed": c.get("service.computed", 0),
        "service.served.batched": c.get("service.batched", 0),
        "service.served.coalesced": c.get("service.coalesced", 0),
        "service.served.memo": c.get("service.memo_hits", 0),
        "service.engine_free_ratio": free / requests if requests else 0.0,
        "service.rejected": sum(
            v for k, v in c.items() if k.startswith("service.rejected_")
        ) + c.get("service.deadline_exceeded", 0),
        "service.errors": c.get("service.errors", 0) + c.get("service.bad_requests", 0),
        "service.batch.dispatches": dispatches,
        "service.batch.points_per_dispatch": (
            c.get("service.batch_points", 0) / dispatches if dispatches else 0.0
        ),
        "service.breaker_tripped": c.get("service.breaker_tripped", 0),
    }


def _segments(schedule, seconds: float):
    """Split an open-loop schedule into consecutive ``SEGMENT_S`` pieces,
    each re-based to start at zero."""
    pieces = []
    for k in range(int(math.ceil(seconds / SEGMENT_S))):
        base = k * SEGMENT_S
        piece = [
            (offset - base, group)
            for offset, group in schedule
            if base <= offset < base + SEGMENT_S
        ]
        if piece:
            pieces.append(piece)
    return pieces


def _pause(probes: ProbeTrack) -> None:
    """Probe the host, on the server's core, while nothing is outstanding
    at the service."""
    pin(0, PROGRAM_CPU)
    try:
        for _ in range(PROBES_PER_PAUSE):
            probes.take(force=True)
    finally:
        pin(0, LOADGEN_CPU)


def open_phase(conn: Conn, schedule, seconds: float, probes: ProbeTrack):
    """The open loop, one segment at a time with probes in the pauses.
    Returns the responses, (due, received) per request, and send lags."""
    responses: Dict[int, Dict] = {}
    times: Dict[int, Tuple[float, float]] = {}
    lags: List[float] = []
    for piece in _segments(schedule, seconds):
        _pause(probes)
        got, timing, lag = open_loop(conn, piece)
        responses.update(got)
        times.update(timing)
        lags.extend(lag)
    _pause(probes)
    return responses, times, lags


def saturation_phase(conn: Conn, frames, seconds: float, probes: ProbeTrack):
    """Closed loop in segments of ``SAT_SEGMENT_REQUESTS`` requests (about
    ``seconds`` in all at the nominal rate), with probes in the pauses, so
    every run does the same work.  Returns the responses, (sent, received)
    per request, and (start, end, completions) per segment."""
    responses: Dict[int, Dict] = {}
    times: Dict[int, Tuple[float, float]] = {}
    segments: List[Tuple[float, float, int]] = []
    per_segment = SAT_SEGMENT_REQUESTS
    for k in range(max(1, round(seconds * SAT_NOMINAL_RATE / per_segment))):
        chunk = frames[k * per_segment:(k + 1) * per_segment]
        if len(chunk) < per_segment:
            raise RuntimeError("saturation trace ran out")
        _pause(probes)
        start = time.perf_counter()
        got, timing = closed_loop(conn, chunk, WINDOW)
        segments.append((start, time.perf_counter(), len(chunk)))
        responses.update(got)
        times.update(timing)
    _pause(probes)
    return responses, times, segments


def _latencies(times: Dict[int, Tuple[float, float]], probes: ProbeTrack):
    """Latencies (ms) in start order, and the host-speed factor of each."""
    order = sorted(times, key=lambda rid: times[rid][0])
    lat = np.array([times[r][1] - times[r][0] for r in order]) * 1e3
    return lat, probes.factors([(times[r][0] + times[r][1]) / 2 for r in order])


def _scaled_throughput(segments, probes: ProbeTrack) -> Tuple[float, float]:
    done = sum(c for _, _, c in segments)
    spans = [e - s for s, e, _ in segments]
    factors = probes.factors([(s + e) / 2 for s, e, _ in segments])
    return done / sum(spans), done / sum(d * f for d, f in zip(spans, factors))


def run(seed: int, seconds: float, trace: bool, work: Path) -> Dict:
    open_s = seconds / 3 if trace else seconds * OPEN_SHARE
    sat_s = seconds / 3 if trace else seconds * (1 - OPEN_SHARE)
    run_json(
        [
            sys.executable, str(HERE / "gen.py"), "service-mixed",
            "--seed", str(seed), "--out", str(work),
            "--open-rate", str(OPEN_RATE), "--open-s", str(open_s),
            "--sat-requests", str(int(SAT_NOMINAL_RATE * sat_s) + SAT_SEGMENT_REQUESTS),
        ],
        timeout=120,
    )
    trace_in = json.loads((work / "trace.json").read_text())
    warm = _frames(trace_in["warmup"], 0)
    first_open = len(warm)
    schedule = _schedule(trace_in["open_loop"], first_open)
    saturation = _frames(
        trace_in["saturation"], first_open + len(trace_in["open_loop"])
    )
    entries = dict(enumerate(
        trace_in["warmup"] + trace_in["open_loop"] + trace_in["saturation"]
    ))
    probes = ProbeTrack()
    pin(0, LOADGEN_CPU)

    def launch(server: Server) -> Tuple[float, float]:
        """Set-up seconds, raw and host-scaled."""
        _pause(probes)
        scale = probes.nominal_ms / statistics.median(probes.ms[-PROBES_PER_PAUSE:])
        elapsed = server.start()
        return elapsed, elapsed * scale

    setups: List[Tuple[float, float]] = []
    if trace:
        # Untraced reference for the tracing overhead: the same warm-up
        # and saturation phase on a plain server.
        server = Server(work)
        try:
            launch(server)
            conn = Conn(server.port)
            closed_loop(conn, warm, WINDOW)
            _, _, segments = saturation_phase(conn, saturation, sat_s, probes)
            conn.close()
        finally:
            server.stop()
        untraced_tput = _scaled_throughput(segments, probes)
        server = Server(work, spans_out=work / "spans.json")
    else:
        for _ in range(SETUP_REPS - 1):
            server = Server(work)
            try:
                setups.append(launch(server))
            finally:
                server.stop()
        server = Server(work)
    try:
        setups.append(launch(server))
        conn = Conn(server.port)
        responses = closed_loop(conn, warm, WINDOW)[0]
        got, times, lags = open_phase(conn, schedule, open_s, probes)
        responses.update(got)
        got, sat_times, segments = saturation_phase(conn, saturation, sat_s, probes)
        responses.update(got)
        conn.close()
        stats = server.stats()
        peak = server.peak_rss_mb()
    finally:
        server.stop()

    # Every phase drains its outstanding requests, so the answered ids are
    # exactly the sent ones.
    checked = {rid: entries[rid] for rid in responses}
    failed = check_responses(checked, responses, seed)
    lat, factors = _latencies(times, probes)
    sat_lat, sat_factors = _latencies(sat_times, probes)
    tput_raw, tput_scaled = _scaled_throughput(segments, probes)
    timing = {}
    for kind, scale, sat_scale, tput in (
        ("raw", 1.0, 1.0, tput_raw), ("scaled", factors, sat_factors, tput_scaled)
    ):
        timing[kind] = {
            "throughput_per_s": tput,
            "latency_p50_ms": percentile(lat * scale, 50),
            "latency_tail_ms": windowed_percentile(sat_lat * sat_scale, TAIL_Q),
        }
    lag_q, lag_tail = benchlib.highest_percentile([l * 1e3 for l in lags])
    extra = {
        f"{phase}.latency_p{q:g}_ms": (
            windowed_percentile(values, q), windowed_percentile(values * scale, q)
        )
        for phase, values, scale in (
            ("open_loop", lat, factors), ("saturation", sat_lat, sat_factors)
        )
        for q in (90, 95, 99)
        if len(values) >= benchlib.min_samples_for(q)
    }
    counted = sum(c for _, _, c in segments)
    result = {
        "attempted": len(checked),
        "failed": failed,
        "checked": len(checked),
        "timing": timing,
        "setup_raw": [raw for raw, _ in setups],
        "setup_scaled": [scaled for _, scaled in setups],
        "peak_rss_mb": peak,
        "probe": probes.summary(),
        "samples": len(lat),
        "measured_s": open_s + sum(e - s for s, e, _ in segments),
        "extra_timings": extra,
        "diagnostics": {
            "open_loop": f"{len(lat)} requests at {OPEN_RATE:g}/s over {open_s:g}s "
            f"in {SEGMENT_S:g}s segments; p50 over {len(lat)} samples",
            "saturation": f"{counted} completions in "
            f"{sum(e - s for s, e, _ in segments):.2f}s with {WINDOW} outstanding; "
            f"p{TAIL_Q:g} the median of {len(sat_lat) // benchlib.min_samples_for(TAIL_Q)} "
            f"windows of {benchlib.min_samples_for(TAIL_Q)}+",
            f"loadgen.lag_p{lag_q:g}_ms": f"{lag_tail:.3f} (over {len(lags)} sends)",
            "served": json.dumps(_served(stats), sort_keys=True),
        },
    }
    if trace:
        from shims import core_metrics

        dump = json.loads((work / "spans.json").read_text())
        layers = benchlib.layer_totals(dump["spans"])
        counts = dump["counts"]

        def total(name: str) -> float:
            return layers.get(name, {}).get("total_s", 0.0)

        metrics = core_metrics(layers, counts)
        metrics.update(_served(stats))
        metrics.update({
            "service.protocol.decode_busy_s": total("service.protocol.decode"),
            "service.protocol.encode_busy_s": total("service.protocol.encode"),
            "service.protocol.frames": counts.get("protocol.frames", 0),
            "service.protocol.response_bytes": counts.get("protocol.response_bytes", 0),
            "service.compute_busy_s": total("service.server.compute"),
            "service.batch.request_s": total("service.batch.request"),
            "service.batch.dispatch_busy_s": total("service.batch.dispatch"),
            "loadgen.sent": len(checked),
            # The highest percentile the sends support: p99 from 1,000 on.
            "loadgen.lag_p99_ms": lag_tail,
        })
        result["trace"] = {
            "metrics": metrics,
            "layers": layers,
            # The server is another process whose spans overlap across its
            # event loop and engine threads: no single timeline to cover.
            "wall_s": 0.0,
            "throughput_traced": tput_scaled,
            "throughput_untraced": untraced_tput[1],
        }
    return result
