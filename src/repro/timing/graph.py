"""Levelized timing graph of a physical netlist.

The timing graph is the combinational view the STA engine scans: one timing
node per placeable block of the :class:`~repro.par.netlist.PhysicalNetlist`
(LUTs carry their intrinsic delay, IO and flip-flop blocks are free
endpoints), and one timing edge per *connection* -- a (net driver, net sink)
pair -- whose delay is filled in from the routed route trees (or from a
placement/structural estimate before routing exists).

Everything is stored as flat NumPy arrays sorted by topological level:
``edge_order_fwd`` groups edges by the level of their sink so the arrival
scan processes one level per vector operation, ``edge_order_bwd`` groups by
the level of their source for the required scan.  Graph topology is fixed
per netlist; only the edge delays change between analyses, which is what
makes the incremental-STA placer's repeated re-timing cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..par.netlist import PhysicalNetlist

__all__ = ["TimingGraph", "build_timing_graph"]


@dataclass
class TimingGraph:
    """Flat levelized timing graph over the blocks of one netlist."""

    netlist: PhysicalNetlist
    num_nodes: int
    node_delay: np.ndarray    #: float64 intrinsic delay per block (LUT delay)
    node_logic: np.ndarray    #: bool, True where the block counts a LUT level
    node_level: np.ndarray    #: int32 topological level (longest path, edges)
    edge_src: np.ndarray      #: int32 driver block per connection
    edge_dst: np.ndarray      #: int32 sink block per connection
    edge_net: np.ndarray      #: int32 net id per connection
    #: edge indices grouped by sink level (ascending), with the per-level
    #: slice boundaries; the forward arrival scan walks these groups.
    edge_order_fwd: np.ndarray
    fwd_bounds: List[Tuple[int, int, int]]  #: (level, lo, hi) into edge_order_fwd
    #: edge indices grouped by source level (descending) for the required scan.
    edge_order_bwd: np.ndarray
    bwd_bounds: List[Tuple[int, int, int]]
    #: blocks whose arrival time anchors the analysis: primary-output IO
    #: blocks when the netlist has any, else every block without fanout.
    sink_nodes: np.ndarray
    #: blocks of each level, for adding node delays level by level.
    level_nodes: List[np.ndarray]

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)


def build_timing_graph(netlist: PhysicalNetlist, lut_delay_ns: float) -> TimingGraph:
    """Build the levelized timing graph of ``netlist``.

    ``lut_delay_ns`` is the intrinsic delay of a logic block (the
    architecture's LUT delay); IO and flip-flop blocks contribute none.  The
    logic level of a block (``node_logic`` summed along a path) reproduces
    the LUT logic depth of the mapped network the netlist was lowered from:
    TCONs were absorbed into nets during lowering, so every remaining
    combinational hop is exactly one LUT.
    """
    num_nodes = len(netlist.blocks)
    node_delay = np.zeros(num_nodes, dtype=np.float64)
    node_logic = np.zeros(num_nodes, dtype=bool)
    for b in netlist.blocks:
        if b.kind == "clb":
            node_delay[b.id] = lut_delay_ns
            node_logic[b.id] = True

    srcs: List[int] = []
    dsts: List[int] = []
    nets: List[int] = []
    for net in netlist.nets:
        for sink in net.sinks:
            srcs.append(net.driver)
            dsts.append(sink)
            nets.append(net.id)
    edge_src = np.asarray(srcs, dtype=np.int32)
    edge_dst = np.asarray(dsts, dtype=np.int32)
    edge_net = np.asarray(nets, dtype=np.int32)
    num_edges = len(edge_src)

    # Longest-path levelization (Kahn's algorithm over the connection DAG).
    level = np.zeros(num_nodes, dtype=np.int32)
    indeg = np.bincount(edge_dst, minlength=num_nodes).astype(np.int64)
    fanout: List[List[int]] = [[] for _ in range(num_nodes)]
    for i in range(num_edges):
        fanout[edge_src[i]].append(i)
    frontier = [b for b in range(num_nodes) if indeg[b] == 0]
    seen = 0
    while frontier:
        nxt: List[int] = []
        for u in frontier:
            seen += 1
            lu = level[u]
            for ei in fanout[u]:
                v = int(edge_dst[ei])
                if lu + 1 > level[v]:
                    level[v] = lu + 1
                indeg[v] -= 1
                if indeg[v] == 0:
                    nxt.append(v)
        frontier = nxt
    if seen != num_nodes:
        raise ValueError("physical netlist contains a combinational cycle")

    # Group edges by sink level (forward) and by source level (backward).
    edge_order_fwd = np.argsort(level[edge_dst], kind="stable").astype(np.int64)
    fwd_bounds: List[Tuple[int, int, int]] = []
    if num_edges:
        dst_levels = level[edge_dst][edge_order_fwd]
        starts = np.flatnonzero(np.diff(dst_levels, prepend=dst_levels[0] - 1))
        ends = np.append(starts[1:], num_edges)
        fwd_bounds = [(int(dst_levels[s]), int(s), int(e)) for s, e in zip(starts, ends)]
    edge_order_bwd = np.argsort(-level[edge_src], kind="stable").astype(np.int64)
    bwd_bounds: List[Tuple[int, int, int]] = []
    if num_edges:
        src_levels = level[edge_src][edge_order_bwd]
        starts = np.flatnonzero(np.diff(src_levels, prepend=src_levels[0] + 1))
        ends = np.append(starts[1:], num_edges)
        bwd_bounds = [(int(src_levels[s]), int(s), int(e)) for s, e in zip(starts, ends)]

    # Arrival anchors: primary-output IO blocks (IO blocks that sink a net).
    # Dead logic hanging off no output does not define the critical path,
    # exactly as in the mapped network's depth over its outputs.
    has_fanout = np.zeros(num_nodes, dtype=bool)
    has_fanout[edge_src] = True
    is_io = np.asarray([b.kind == "io" for b in netlist.blocks], dtype=bool)
    has_fanin = np.zeros(num_nodes, dtype=bool)
    has_fanin[edge_dst] = True
    sink_nodes = np.flatnonzero(is_io & has_fanin)
    if sink_nodes.size == 0:
        sink_nodes = np.flatnonzero(~has_fanout)

    max_level = int(level.max()) if num_nodes else 0
    level_nodes = [np.flatnonzero(level == lv).astype(np.int64) for lv in range(max_level + 1)]

    return TimingGraph(
        netlist=netlist,
        num_nodes=num_nodes,
        node_delay=node_delay,
        node_logic=node_logic,
        node_level=level,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_net=edge_net,
        edge_order_fwd=edge_order_fwd,
        fwd_bounds=fwd_bounds,
        edge_order_bwd=edge_order_bwd,
        bwd_bounds=bwd_bounds,
        sink_nodes=sink_nodes,
        level_nodes=level_nodes,
    )
