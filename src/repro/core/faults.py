"""Fault injection: degraded operation of a TrainBox server.

Production racks lose devices.  The clustered design degrades
gracefully: an SSD failure halves a box's read bandwidth (after
resharding its data onto the surviving drive), an FPGA failure halves a
box's preparation compute (the prep-pool can absorb it), and an
accelerator failure shrinks the job.  This module injects such faults
into a built server and lets the ordinary engines price the result —
the tests assert throughput degrades by bounded, explainable amounts and
never silently collapses.

Two granularities:

* a static :class:`FaultSet` — devices that are simply gone — feeds
  :func:`inject_faults` and models the steady degraded state;
* a time-varying :class:`FaultSchedule` — ``(device, fail_time,
  recover_time)`` events — is priced as a **piecewise degraded
  throughput timeline**: the schedule partitions the horizon into
  windows of constant fault state, each window's server is degraded
  with :func:`inject_faults` and priced by an ordinary engine
  (analytical, DES or flow via :func:`price_schedule`), and the
  segments compose into a :class:`DegradedTimeline` whose every step is
  explainable by the operational rules above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro import obs
from repro.errors import ConfigError
from repro.core.server import BoxInfo, ServerModel


@dataclass(frozen=True)
class FaultSet:
    """Devices to fail, by endpoint id."""

    device_ids: frozenset

    @staticmethod
    def of(*device_ids: str) -> "FaultSet":
        return FaultSet(frozenset(device_ids))


def inject_faults(server: ServerModel, faults: FaultSet) -> ServerModel:
    """A degraded copy of ``server`` with the failed devices removed from
    every box registry (the PCIe topology object is shared — dead
    endpoints simply no longer source or sink traffic).

    Raises :class:`ConfigError` if a fault would leave a box unable to
    function at all (no SSD or no FPGA while it still has accelerators),
    mirroring the operational rule that such a box is drained instead.
    """
    known = (
        set(server.acc_ids) | set(server.prep_ids) | set(server.ssd_ids)
    )
    unknown = faults.device_ids - known
    if unknown:
        raise ConfigError(f"unknown devices in fault set: {sorted(unknown)}")

    degraded_boxes: List[BoxInfo] = []
    for box in server.boxes:
        acc = [a for a in box.acc_ids if a not in faults.device_ids]
        prep = [p for p in box.prep_ids if p not in faults.device_ids]
        ssd = [s for s in box.ssd_ids if s not in faults.device_ids]
        if acc and box.ssd_ids and not ssd:
            raise ConfigError(
                f"box {box.box_id} lost every SSD; drain it instead"
            )
        if acc and box.prep_ids and not prep:
            raise ConfigError(
                f"box {box.box_id} lost every FPGA; drain it instead"
            )
        degraded_boxes.append(
            BoxInfo(
                box_id=box.box_id,
                switch_id=box.switch_id,
                acc_ids=acc,
                prep_ids=prep,
                ssd_ids=ssd,
            )
        )
    return ServerModel(
        arch=server.arch,
        hw=server.hw,
        topology=server.topology,
        boxes=degraded_boxes,
        cpu=server.cpu,
        dram=server.dram,
        prep_network=server.prep_network,
        pool_fpga_ids=list(server.pool_fpga_ids),
    )


# -- time-varying faults ----------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One device outage: down over ``[fail_time, recover_time)``.

    ``recover_time`` defaults to ``inf`` — the device never comes back
    (it is replaced on the next maintenance window, outside the priced
    horizon)."""

    device_id: str
    fail_time: float
    recover_time: float = math.inf

    def __post_init__(self) -> None:
        if self.fail_time < 0:
            raise ConfigError(
                f"fail_time must be >= 0: {self.device_id} at {self.fail_time}"
            )
        if self.recover_time <= self.fail_time:
            raise ConfigError(
                f"recover_time must be after fail_time: {self.device_id} "
                f"fails {self.fail_time}, recovers {self.recover_time}"
            )

    def down_at(self, t: float) -> bool:
        return self.fail_time <= t < self.recover_time


@dataclass(frozen=True)
class FaultSchedule:
    """A timeline of device failures and recoveries.

    A device may appear in several events (repeated outages); it is
    down at ``t`` when *any* of its events covers ``t``."""

    events: tuple

    @staticmethod
    def of(*events: FaultEvent) -> "FaultSchedule":
        return FaultSchedule(tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def active_at(self, t: float) -> FaultSet:
        """The devices down at time ``t``, as a static fault set."""
        return FaultSet(
            frozenset(e.device_id for e in self.events if e.down_at(t))
        )

    def windows(self, horizon: float) -> List[Tuple[float, float, FaultSet]]:
        """Partition ``[0, horizon)`` into maximal windows of constant
        fault state: ``(start, end, active_faults)`` triples covering
        the horizon exactly, in time order."""
        if horizon <= 0:
            raise ConfigError(f"horizon must be positive: {horizon}")
        cuts = {0.0, float(horizon)}
        for e in self.events:
            for t in (e.fail_time, e.recover_time):
                if 0.0 < t < horizon:
                    cuts.add(float(t))
        edges = sorted(cuts)
        return [
            (t0, t1, self.active_at(t0))
            for t0, t1 in zip(edges, edges[1:])
        ]


@dataclass(frozen=True)
class TimelineSegment:
    """One constant-state window of a priced fault timeline."""

    start: float
    end: float
    failed: tuple  # sorted device ids down in this window
    throughput: float
    bottleneck: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def samples(self) -> float:
        return self.throughput * self.duration

    def to_dict(self) -> Dict:
        return {
            "start": self.start,
            "end": self.end,
            "failed": list(self.failed),
            "throughput": self.throughput,
            "bottleneck": self.bottleneck,
        }


@dataclass(frozen=True)
class DegradedTimeline:
    """A piecewise-constant throughput timeline under a fault schedule.

    Each segment is an ordinary engine run on the window's degraded
    server, so every step in the timeline is explainable: FPGA loss is
    absorbed by the prep pool (bounded dip), SSD loss halves the box's
    read bandwidth after resharding, recovery restores the healthy
    rate exactly."""

    segments: tuple

    @property
    def horizon(self) -> float:
        return self.segments[-1].end

    @property
    def total_samples(self) -> float:
        """Samples processed over the horizon (the throughput integral)."""
        return sum(s.samples for s in self.segments)

    @property
    def mean_throughput(self) -> float:
        """Time-weighted average throughput over the horizon."""
        return self.total_samples / self.horizon

    @property
    def min_throughput(self) -> float:
        return min(s.throughput for s in self.segments)

    @property
    def max_throughput(self) -> float:
        return max(s.throughput for s in self.segments)

    def throughput_at(self, t: float) -> float:
        for seg in self.segments:
            if seg.start <= t < seg.end:
                return seg.throughput
        raise ConfigError(f"time {t} outside the priced horizon")

    def to_dict(self) -> Dict:
        """JSON-encodable form (the service wire payload; floats
        round-trip through JSON exactly, so a served timeline is
        bit-for-bit the priced one)."""
        return {"segments": [s.to_dict() for s in self.segments]}


def price_schedule(
    server: ServerModel,
    schedule: FaultSchedule,
    horizon: float,
    runner: Callable[[ServerModel], object],
) -> DegradedTimeline:
    """Price a fault schedule as a piecewise degraded timeline.

    ``runner(degraded_server)`` evaluates one window's constant fault
    state with whatever engine the caller chose and returns a
    :class:`~repro.core.results.SimulationOutcome`.  Windows with the
    same fault set share one engine run (failure/recovery cycles of the
    same device cost nothing extra), and the fault-set validation of
    :func:`inject_faults` applies per window — a schedule that strips a
    box of its last SSD or FPGA raises :class:`ConfigError` with the
    drain rule, exactly like the static path.
    """
    cache: Dict[frozenset, object] = {}
    segments = []
    for start, end, faults in schedule.windows(horizon):
        key = faults.device_ids
        outcome = cache.get(key)
        if outcome is None:
            degraded = (
                inject_faults(server, faults) if faults.device_ids else server
            )
            outcome = runner(degraded)
            cache[key] = outcome
            obs.inc("faults.windows_priced")
        segments.append(
            TimelineSegment(
                start=start,
                end=end,
                failed=tuple(sorted(key)),
                throughput=outcome.throughput,
                bottleneck=outcome.bottleneck,
            )
        )
    obs.inc("faults.schedules_priced")
    obs.observe("faults.schedule_events", len(schedule))
    return DegradedTimeline(tuple(segments))


def drain_box(server: ServerModel, box_id: str) -> ServerModel:
    """Remove a whole box from service (its devices stop participating);
    the standard response to an unrecoverable box fault."""
    if box_id not in {b.box_id for b in server.boxes}:
        raise ConfigError(f"unknown box: {box_id}")
    remaining = [b for b in server.boxes if b.box_id != box_id]
    if not any(b.acc_ids for b in remaining):
        raise ConfigError("draining the last accelerator box")
    return ServerModel(
        arch=server.arch,
        hw=server.hw,
        topology=server.topology,
        boxes=remaining,
        cpu=server.cpu,
        dram=server.dram,
        prep_network=server.prep_network,
        pool_fpga_ids=list(server.pool_fpga_ids),
    )
