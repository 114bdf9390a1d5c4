"""Physical netlist: the block/net view consumed by placement and routing.

The technology-mapped network (LUTs, TLUTs, TCONs) is lowered to a *physical
netlist* of placeable blocks and point-to-multipoint nets:

* every LUT and TLUT becomes a logic block (one per tile on the 4-LUT
  architecture);
* primary inputs and outputs become IO blocks on the device perimeter;
* in the **conventional** flow, parameter inputs become flip-flop blocks --
  the settings registers are realized on logic-cell flip-flops, occupying
  logic tiles, exactly the overhead the paper's Table II talks about;
* in the **fully parameterized** flow, parameter inputs disappear entirely
  (they live in configuration memory) and TCONs are collapsed into the nets
  they pass through -- they are realized on routing switches, not on blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..techmap.mapping import MappedNetwork, NodeKind

__all__ = ["Block", "Net", "PhysicalNetlist", "from_mapped_network"]


@dataclass
class Block:
    """A placeable block of the physical netlist."""

    id: int
    name: str
    kind: str                  # "clb", "ff" or "io"
    mapped_node: Optional[int] = None  #: originating mapped-network node (if any)

    @property
    def needs_logic_site(self) -> bool:
        """Whether the block occupies a logic tile (a LUT or a flip-flop)."""
        return self.kind in ("clb", "ff")


@dataclass
class Net:
    """A signal from one driver block to one or more sink blocks."""

    id: int
    name: str
    driver: int
    sinks: List[int] = field(default_factory=list)


@dataclass
class PhysicalNetlist:
    """Blocks plus nets, with bookkeeping used by the resource accounting."""

    name: str
    blocks: List[Block] = field(default_factory=list)
    nets: List[Net] = field(default_factory=list)
    #: number of tunable connections absorbed into nets (parameterized flow)
    num_tcons_absorbed: int = 0

    def add_block(self, name: str, kind: str, mapped_node: Optional[int] = None) -> int:
        """Append a block and return its id."""
        bid = len(self.blocks)
        self.blocks.append(Block(bid, name, kind, mapped_node))
        return bid

    def add_net(self, name: str, driver: int, sinks: List[int]) -> int:
        """Append a net from block ``driver`` to blocks ``sinks``; return its id."""
        nid = len(self.nets)
        self.nets.append(Net(nid, name, driver, list(sinks)))
        return nid

    # -- statistics -------------------------------------------------------------

    def num_logic_blocks(self) -> int:
        """Number of LUT blocks (``"clb"``)."""
        return sum(1 for b in self.blocks if b.kind == "clb")

    def num_ff_blocks(self) -> int:
        """Number of flip-flop blocks (``"ff"``, conventional-flow settings bits)."""
        return sum(1 for b in self.blocks if b.kind == "ff")

    def num_io_blocks(self) -> int:
        """Number of IO blocks (``"io"``)."""
        return sum(1 for b in self.blocks if b.kind == "io")

    def validate(self) -> None:
        """Raise ``ValueError`` unless every net has sinks and names existing blocks."""
        ids = set(range(len(self.blocks)))
        for net in self.nets:
            if net.driver not in ids:
                raise ValueError(f"net {net.name!r}: missing driver block {net.driver}")
            for s in net.sinks:
                if s not in ids:
                    raise ValueError(f"net {net.name!r}: missing sink block {s}")
            if not net.sinks:
                raise ValueError(f"net {net.name!r} has no sinks")


def from_mapped_network(
    network: MappedNetwork,
    name: Optional[str] = None,
) -> PhysicalNetlist:
    """Lower a mapped network to a physical netlist.

    ``network`` is the technology-mapped network (conventional or
    parameterized).  Each TCON is resolved to a pass-through of its first
    data input, the representative specialization the generic stage places
    and routes.
    """
    netlist = PhysicalNetlist(name or network.source.name)

    # -- blocks -----------------------------------------------------------------
    node_to_block: Dict[int, Optional[int]] = {}
    for nid, node in enumerate(network.nodes):
        if node.kind in (NodeKind.LUT, NodeKind.TLUT):
            node_to_block[nid] = netlist.add_block(
                node.name or f"lut{nid}", "clb", mapped_node=nid
            )
        elif node.kind == NodeKind.INPUT:
            node_to_block[nid] = netlist.add_block(node.name or f"in{nid}", "io", nid)
        elif node.kind == NodeKind.PARAM:
            # Conventional flow only: the settings-register bit is a flip-flop
            # realized in a logic tile.
            node_to_block[nid] = netlist.add_block(node.name or f"param{nid}", "ff", nid)
        else:
            # constants and TCONs do not become blocks
            node_to_block[nid] = None

    # -- TCON pass-through resolution --------------------------------------------
    def resolve(nid: int) -> Optional[int]:
        node = network.nodes[nid]
        if node.kind == NodeKind.TCON:
            netlist_counted.add(nid)
            if not node.inputs:
                return None
            return resolve(node.inputs[0])
        if node.kind in (NodeKind.CONST0, NodeKind.CONST1):
            return None
        return nid

    netlist_counted: Set[int] = set()

    # -- nets --------------------------------------------------------------------
    # Collect sinks per driving mapped node.
    sinks_per_driver: Dict[int, List[int]] = {}
    for nid, node in enumerate(network.nodes):
        if node.kind not in (NodeKind.LUT, NodeKind.TLUT):
            continue
        block = node_to_block[nid]
        for inp in node.inputs:
            driver = resolve(inp)
            if driver is None:
                continue  # constant inputs need no routing
            sinks_per_driver.setdefault(driver, []).append(block)

    # Primary outputs become IO sink blocks.
    for out_name, out_nid in network.outputs.items():
        out_block = netlist.add_block(out_name, "io", None)
        driver = resolve(out_nid)
        if driver is None:
            continue
        sinks_per_driver.setdefault(driver, []).append(out_block)

    for driver_nid, sink_blocks in sinks_per_driver.items():
        driver_block = node_to_block.get(driver_nid)
        if driver_block is None:
            continue
        driver_name = network.nodes[driver_nid].name or f"n{driver_nid}"
        # Deduplicate sinks while preserving order; a block may consume the
        # same signal on several pins but the router targets its SINK once.
        unique_sinks = list(dict.fromkeys(s for s in sink_blocks if s != driver_block))
        if not unique_sinks:
            continue
        netlist.add_net(driver_name, driver_block, unique_sinks)

    netlist.num_tcons_absorbed = len(netlist_counted)
    netlist.validate()
    return netlist
