"""PCIe tree topology: root complex, switches, and endpoint devices.

The topology mirrors Figure 6 of the paper: a single root complex at the
top, PCIe switches as internal nodes, and devices (SSDs, NN accelerators,
data-preparation accelerators) at the leaves.  Switches have a bounded
number of links (the paper cites PEX8796-class parts with one uplink and
five downlinks, §V-D); the topology enforces that bound so that the
box layouts we build are physically plausible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import TopologyError
from repro.pcie.link import Link, PcieGen


class NodeKind(enum.Enum):
    ROOT_COMPLEX = "root_complex"
    SWITCH = "switch"
    ENDPOINT = "endpoint"


@dataclass
class Node:
    """A node in the PCIe tree.

    ``device`` is an opaque payload for endpoints (any object the caller
    wants to attach, typically a device model from :mod:`repro.devices`).
    Address ranges (``addr_base``/``addr_limit``) are filled in by
    :func:`repro.pcie.address.enumerate_topology`.
    """

    node_id: str
    kind: NodeKind
    device: Optional[object] = None
    max_links: Optional[int] = None
    addr_base: int = -1
    addr_limit: int = -1

    @property
    def enumerated(self) -> bool:
        return self.addr_base >= 0 and self.addr_limit > self.addr_base

    def contains_address(self, address: int) -> bool:
        if not self.enumerated:
            raise TopologyError(f"node {self.node_id} has not been enumerated")
        return self.addr_base <= address < self.addr_limit


def RootComplex(node_id: str = "rc", max_links: int = 8) -> Node:
    """Create a root-complex node.

    ``max_links`` models the number of PCIe root ports the host exposes.
    """
    return Node(node_id, NodeKind.ROOT_COMPLEX, max_links=max_links)


def Switch(node_id: str, max_links: int = 6) -> Node:
    """Create a switch node.  ``max_links`` counts the uplink too, so the
    default of 6 means one uplink plus five downlinks (PEX8796 style)."""
    return Node(node_id, NodeKind.SWITCH, max_links=max_links)


def Endpoint(node_id: str, device: Optional[object] = None) -> Node:
    """Create an endpoint (leaf device) node."""
    return Node(node_id, NodeKind.ENDPOINT, device=device)


class PcieTopology:
    """A mutable PCIe tree.

    Build it by creating the root, then attaching switches/endpoints with
    :meth:`attach`.  Call :meth:`validate` (or let routing/enumeration do
    it) to check the structural invariants:

    * exactly one root complex, which is the tree root;
    * every non-root node has exactly one parent (tree property);
    * endpoints are leaves;
    * no node exceeds its ``max_links`` budget (uplink + downlinks).
    """

    def __init__(self, root: Optional[Node] = None) -> None:
        self._nodes: Dict[str, Node] = {}
        self._parent: Dict[str, str] = {}
        self._children: Dict[str, List[str]] = {}
        self._links: Dict[str, Link] = {}  # keyed by child node id
        self.root: Optional[Node] = None
        if root is not None:
            self.add_root(root)

    # -- construction -------------------------------------------------

    def add_root(self, root: Node) -> Node:
        if self.root is not None:
            raise TopologyError("topology already has a root complex")
        if root.kind is not NodeKind.ROOT_COMPLEX:
            raise TopologyError("tree root must be a root complex")
        self.root = root
        self._nodes[root.node_id] = root
        self._children[root.node_id] = []
        return root

    def attach(
        self,
        node: Node,
        parent_id: str,
        gen: PcieGen = PcieGen.GEN3,
        lanes: int = 16,
    ) -> Node:
        """Attach ``node`` below ``parent_id`` with a ``gen`` x``lanes`` link."""
        if self.root is None:
            raise TopologyError("add a root complex before attaching nodes")
        if node.node_id in self._nodes:
            raise TopologyError(f"duplicate node id: {node.node_id}")
        parent = self.node(parent_id)
        if parent.kind is NodeKind.ENDPOINT:
            raise TopologyError(
                f"cannot attach below endpoint {parent_id}: endpoints are leaves"
            )
        if parent.max_links is not None:
            used = len(self._children[parent_id])
            if parent is not self.root:
                used += 1  # the parent's own uplink
            if used >= parent.max_links:
                raise TopologyError(
                    f"{parent_id} has no free link "
                    f"(max_links={parent.max_links})"
                )
        self._nodes[node.node_id] = node
        self._parent[node.node_id] = parent_id
        self._children[parent_id].append(node.node_id)
        self._children.setdefault(node.node_id, [])
        self._links[node.node_id] = Link(
            child_id=node.node_id, parent_id=parent_id, gen=gen, lanes=lanes
        )
        return node

    def upgrade_links(self, gen: PcieGen) -> None:
        """Replace every link's generation (used for the Gen4 sweep)."""
        for child_id, link in list(self._links.items()):
            self._links[child_id] = Link(
                child_id=link.child_id,
                parent_id=link.parent_id,
                gen=gen,
                lanes=link.lanes,
            )

    # -- queries -------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node: {node_id}") from None

    def parent_of(self, node_id: str) -> Optional[str]:
        self.node(node_id)
        return self._parent.get(node_id)

    def children_of(self, node_id: str) -> List[str]:
        self.node(node_id)
        return list(self._children.get(node_id, []))

    def uplink_of(self, node_id: str) -> Link:
        """The link connecting ``node_id`` to its parent."""
        if node_id not in self._links:
            raise TopologyError(f"node {node_id} has no uplink (is it the root?)")
        return self._links[node_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def endpoints(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.ENDPOINT]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- tree walks ----------------------------------------------------

    def ancestors(self, node_id: str) -> List[str]:
        """Ancestor ids from the node's parent up to (and including) the
        root, in bottom-up order."""
        out: List[str] = []
        cur = self.parent_of(node_id)
        while cur is not None:
            out.append(cur)
            cur = self._parent.get(cur)
        return out

    def path_to_root(self, node_id: str) -> List[str]:
        """Node ids from ``node_id`` (inclusive) up to the root."""
        return [node_id] + self.ancestors(node_id)

    def lowest_common_ancestor(self, a: str, b: str) -> str:
        """The deepest node whose subtree contains both ``a`` and ``b``."""
        path_a = self.path_to_root(a)
        set_a = set(path_a)
        for candidate in self.path_to_root(b):
            if candidate in set_a:
                return candidate
        raise TopologyError(f"{a} and {b} share no ancestor")

    def depth(self, node_id: str) -> int:
        return len(self.ancestors(node_id))

    def subtree(self, node_id: str) -> Iterator[Node]:
        """All nodes in the subtree rooted at ``node_id`` (preorder)."""
        stack = [node_id]
        while stack:
            cur = stack.pop()
            yield self.node(cur)
            stack.extend(reversed(self._children.get(cur, [])))

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TopologyError` if a structural invariant fails."""
        if self.root is None:
            raise TopologyError("topology has no root complex")
        roots = [
            n for n in self._nodes.values() if n.kind is NodeKind.ROOT_COMPLEX
        ]
        if len(roots) != 1:
            raise TopologyError(f"expected exactly 1 root complex, found {len(roots)}")
        reached = {n.node_id for n in self.subtree(self.root.node_id)}
        if reached != set(self._nodes):
            orphans = set(self._nodes) - reached
            raise TopologyError(f"orphan nodes not reachable from root: {sorted(orphans)}")
        for node in self._nodes.values():
            kids = self._children.get(node.node_id, [])
            if node.kind is NodeKind.ENDPOINT and kids:
                raise TopologyError(f"endpoint {node.node_id} has children")
            if node.max_links is not None:
                used = len(kids) + (0 if node is self.root else 1)
                if used > node.max_links:
                    raise TopologyError(
                        f"{node.node_id} uses {used} links, max is {node.max_links}"
                    )


def chain_boxes(
    topology: PcieTopology,
    boxes: Iterable[Node],
    gen: PcieGen = PcieGen.GEN3,
    lanes: int = 16,
) -> None:
    """Chain box-level switches from the root complex, DGX-2 style (§III-A).

    Each "box" has an uplink and a downlink; scaling is achieved by
    daisy-chaining boxes: the first box's uplink goes to the RC, each
    subsequent box's uplink goes to the previous box's downlink.  The
    downstream switch of each box is attached by the caller; this helper
    only wires the chain of top-level box switches.
    """
    if topology.root is None:
        raise TopologyError("topology has no root complex")
    prev = topology.root.node_id
    for box in boxes:
        topology.attach(box, prev, gen=gen, lanes=lanes)
        prev = box.node_id
