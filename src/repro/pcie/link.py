"""PCIe link generations and per-link bandwidth.

Bandwidth figures are the usable per-direction data rates commonly quoted
for each generation (after encoding overhead), in bytes per second per
lane.  A Gen3 x16 link therefore carries ~16 GB/s in each direction, which
is the number the paper uses when comparing against NVLink (§II-C) and when
doubling bandwidth for the ``B+Acc+P2P+Gen4`` configuration (§VI-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import units


class PcieGen(enum.Enum):
    """PCIe generation; the value is usable bandwidth per lane per
    direction in bytes/second."""

    GEN1 = 0.25 * units.GB
    GEN2 = 0.5 * units.GB
    GEN3 = 1.0 * units.GB
    GEN4 = 2.0 * units.GB
    GEN5 = 4.0 * units.GB

    @property
    def per_lane_bandwidth(self) -> float:
        return float(self.value)

    def next_gen(self) -> "PcieGen":
        """The following generation (used for Gen3→Gen4 upgrade sweeps)."""
        order = list(PcieGen)
        idx = order.index(self)
        if idx + 1 >= len(order):
            raise ValueError(f"{self.name} is the newest modeled generation")
        return order[idx + 1]


def link_bandwidth(gen: PcieGen, lanes: int) -> float:
    """Usable per-direction bandwidth (bytes/s) of a ``gen`` x``lanes`` link."""
    if lanes not in (1, 2, 4, 8, 16, 32):
        raise ValueError(f"invalid PCIe lane count: {lanes}")
    return gen.per_lane_bandwidth * lanes


class LinkDirection(enum.Enum):
    """Direction of traffic over a tree link.

    ``UP`` flows from the child (downstream) node toward its parent
    (upstream, i.e. toward the root complex); ``DOWN`` is the reverse.
    PCIe links are full duplex, so the two directions have independent
    capacity.
    """

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class Link:
    """A full-duplex tree link between a node and its parent.

    Attributes:
        child_id: id of the downstream node; a link is uniquely identified
            by its downstream endpoint because a tree node has exactly one
            parent.
        parent_id: id of the upstream node.
        gen: PCIe generation.
        lanes: lane count (x1..x32).
    """

    child_id: str
    parent_id: str
    gen: PcieGen = PcieGen.GEN3
    lanes: int = 16

    @property
    def bandwidth(self) -> float:
        """Per-direction usable bandwidth in bytes/s."""
        return link_bandwidth(self.gen, self.lanes)

    def directed(self, direction: LinkDirection) -> "DirectedLink":
        return DirectedLink(self, direction)


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a :class:`Link`; the unit of capacity accounting."""

    link: Link
    direction: LinkDirection

    @property
    def bandwidth(self) -> float:
        return self.link.bandwidth

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.direction is LinkDirection.UP:
            return f"{self.link.child_id}->{self.link.parent_id}"
        return f"{self.link.parent_id}->{self.link.child_id}"
