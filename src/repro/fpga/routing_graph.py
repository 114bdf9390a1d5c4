"""Routing-resource graph of the island-style FPGA.

The routing-resource (RR) graph is the data structure the PathFinder router
(TROUTE in the paper's tool names) works on: a directed graph whose nodes are
sources, sinks, block pins and unit-length channel wires, and whose edges are
the programmable switches of the FPGA.

The construction mirrors VPR's graph for the 4-LUT "sanitized" architecture:

* every logic block exposes one SOURCE -> OPIN and ``lut_inputs`` IPIN -> SINK
  paths,
* connection blocks connect pins to the adjacent channel tracks
  (``fc_in`` / ``fc_out`` fractions of the channel),
* disjoint (subset) switch blocks connect wires of the same track index where
  a horizontal and a vertical channel meet.

Node attributes are stored in parallel NumPy arrays and adjacency in CSR form
so that the router's inner loop stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .architecture import FPGAArchitecture

__all__ = [
    "RRNodeType",
    "RRGraph",
    "RouterSearchView",
    "build_rr_graph",
    "RR_BASE_COST",
    "rr_delay_ns",
]


class RRNodeType:
    """Node-type codes of the RR graph."""

    SOURCE = 0
    SINK = 1
    OPIN = 2
    IPIN = 3
    CHANX = 4
    CHANY = 5

    NAMES = {0: "SOURCE", 1: "SINK", 2: "OPIN", 3: "IPIN", 4: "CHANX", 5: "CHANY"}


#: Congestion-free cost of occupying one RR node, by node type.  This is the
#: router's cost model, exported here so :class:`RouterSearchView` can bake a
#: flat base-cost vector next to the CSR arrays it already owns.
RR_BASE_COST = {
    RRNodeType.SOURCE: 0.1,
    RRNodeType.SINK: 0.1,
    RRNodeType.OPIN: 0.9,
    RRNodeType.IPIN: 0.9,
    RRNodeType.CHANX: 1.0,
    RRNodeType.CHANY: 1.0,
}


def rr_delay_ns(arch: FPGAArchitecture) -> Dict[int, float]:
    """Intrinsic delay of occupying one RR node, by node type, in ns.

    This is the per-resource delay model of the timing subsystem
    (:mod:`repro.timing`): a channel wire charges one switch (to enter it)
    plus one unit segment, pins charge the connection-block hop, and the
    logical SOURCE/SINK endpoints are free.  The arrival time of a routed
    connection is the sum of these node delays along its route-tree path.
    """
    wire = arch.wire_hop_delay_ns
    pin = arch.pin_delay_ns
    return {
        RRNodeType.SOURCE: 0.0,
        RRNodeType.SINK: 0.0,
        RRNodeType.OPIN: pin,
        RRNodeType.IPIN: pin,
        RRNodeType.CHANX: wire,
        RRNodeType.CHANY: wire,
    }


@dataclass
class RRGraph:
    """Routing-resource graph with CSR adjacency."""

    arch: FPGAArchitecture
    node_type: np.ndarray        # int8 per node
    node_x: np.ndarray           # int16
    node_y: np.ndarray           # int16
    node_track: np.ndarray       # int16 (track index; -1 for pins)
    node_capacity: np.ndarray    # int16
    edge_ptr: np.ndarray         # CSR row pointers (num_nodes + 1)
    edge_dst: np.ndarray         # CSR column indices
    #: lookup tables filled in by the builder
    clb_source: Dict[Tuple[int, int], int]
    clb_sink: Dict[Tuple[int, int], int]
    clb_opin: Dict[Tuple[int, int], int]
    io_source: Dict[Tuple[int, int, int], int]
    io_sink: Dict[Tuple[int, int, int], int]

    @property
    def num_nodes(self) -> int:
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        return len(self.edge_dst)

    def fanouts(self, node: int) -> np.ndarray:
        """Destination nodes of all switches leaving ``node``."""
        return self.edge_dst[self.edge_ptr[node] : self.edge_ptr[node + 1]]

    def num_wire_nodes(self) -> int:
        return int(
            np.count_nonzero(
                (self.node_type == RRNodeType.CHANX) | (self.node_type == RRNodeType.CHANY)
            )
        )

    def is_wire(self, node: int) -> bool:
        return self.node_type[node] in (RRNodeType.CHANX, RRNodeType.CHANY)

    def describe_node(self, node: int) -> str:  # pragma: no cover - debug helper
        t = RRNodeType.NAMES[int(self.node_type[node])]
        return (
            f"{t}({int(self.node_x[node])},{int(self.node_y[node])},"
            f"t={int(self.node_track[node])})"
        )

    def search_view(self) -> "RouterSearchView":
        """Precomputed flat-array view of the graph for the directed router.

        Built once per graph and cached; repeated :func:`repro.par.routing.route`
        calls on the same device (PathFinder iterations, benchmark reruns) share
        it.
        """
        view = self.__dict__.get("_search_view")
        if view is None:
            view = RouterSearchView(self)
            self.__dict__["_search_view"] = view
        return view


class RouterSearchView:
    """Flat mirrors of an :class:`RRGraph` for the directed search kernel.

    The astar router expands exclusively over SOURCE/OPIN/CHANX/CHANY
    nodes: IPIN and SINK successors are stripped from the adjacency here, and
    each sink instead exposes an *entry map* ``wire -> [ipins]`` derived from
    the reverse edges, so the search completes on the first wire adjacent to
    the target block instead of flooding every input pin it passes.  The node
    coordinates double as the admissible geometric lookahead: every remaining
    unit of Manhattan distance to the target costs at least one unit-length
    wire of base cost 1.0.

    The filtered adjacency is materialized twice from one construction pass:

    * ``csr_ptr`` / ``csr_dst`` -- contiguous NumPy CSR arrays, the layout
      the native astar expansion loop binds to, alongside ``xs_arr`` /
      ``ys_arr`` (Manhattan-lookahead tables), ``base_cost``
      (congestion-free node costs, :data:`RR_BASE_COST`) and ``delay_ns``
      (per-node intrinsic delays, :func:`rr_delay_ns` -- the flat delay
      model consumed by the STA engine and the timing-driven router
      objective);
    * ``adj_search`` -- per-node Python lists sliced out of the same CSR,
      the layout of the pure-Python astar twin, built on first access only.

    The per-sink entry maps come in the same two layouts: :meth:`entry_csr`
    (native kernel) and :meth:`entries_of` (Python twin), each cached on
    its own, so the native path never builds a Python mirror.
    """

    def __init__(self, rr: RRGraph) -> None:
        self.rr = rr
        self.xs: List[int] = rr.node_x.tolist()
        self.ys: List[int] = rr.node_y.tolist()
        self.types: List[int] = rr.node_type.tolist()
        self.capacity: List[int] = rr.node_capacity.tolist()

        # Filtered adjacency (no IPIN/SINK targets) as contiguous NumPy CSR.
        num_nodes = rr.num_nodes
        dst_type = rr.node_type[rr.edge_dst]
        keep = (dst_type != RRNodeType.IPIN) & (dst_type != RRNodeType.SINK)
        edge_src = np.repeat(
            np.arange(num_nodes, dtype=np.int32),
            np.diff(rr.edge_ptr).astype(np.int64),
        )
        self.csr_dst: np.ndarray = rr.edge_dst[keep].astype(np.int32)
        self.csr_ptr: np.ndarray = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(edge_src[keep], minlength=num_nodes), out=self.csr_ptr[1:])

        # Vector mirrors of the per-node attributes: lookahead tables, the
        # congestion-free cost floor and the intrinsic delays.
        self.xs_arr: np.ndarray = rr.node_x.astype(np.int64)
        self.ys_arr: np.ndarray = rr.node_y.astype(np.int64)
        base = np.empty(num_nodes, dtype=np.float64)
        for t, c in RR_BASE_COST.items():
            base[rr.node_type == t] = c
        self.base_cost: np.ndarray = base
        delay = np.empty(num_nodes, dtype=np.float64)
        for t, d in rr_delay_ns(rr.arch).items():
            delay[rr.node_type == t] = d
        self.delay_ns: np.ndarray = delay

        # Reverse CSR (for per-sink entry maps, built lazily below).
        self._rev_src = edge_src[np.argsort(rr.edge_dst, kind="stable")]
        self._rev_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rr.edge_dst, minlength=num_nodes), out=self._rev_ptr[1:])
        self._entries: Dict[int, Dict[int, List[int]]] = {}
        self._entry_csr: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @cached_property
    def adj_search(self) -> List[List[int]]:
        """The filtered adjacency as per-node Python lists (Python astar twin)."""
        ptr = self.csr_ptr.tolist()
        dst = self.csr_dst.tolist()
        return [dst[ptr[i]: ptr[i + 1]] for i in range(len(ptr) - 1)]

    def _in_edges(self, node: int) -> List[int]:
        lo, hi = int(self._rev_ptr[node]), int(self._rev_ptr[node + 1])
        return self._rev_src[lo:hi].tolist()

    def entries_of(self, sink: int) -> Dict[int, List[int]]:
        """Map ``wire -> [ipins]`` of every wire that can enter ``sink``."""
        entry = self._entries.get(sink)
        if entry is None:
            entry = {}
            for ipin in self._in_edges(sink):
                for wire in self._in_edges(ipin):
                    entry.setdefault(wire, []).append(ipin)
            self._entries[sink] = entry
        return entry

    def entry_csr(self, sink: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry map of ``sink`` as a wire-sorted CSR for the native kernel.

        ``(wires, ptr, ipins)``: ``wires`` is the sorted unique wire set, and
        ``ipins[ptr[i]:ptr[i + 1]]`` lists that wire's feasible entry pins in
        the same order as :meth:`entries_of` (the first-minimum tie-break of
        the completion scan depends on that order).  Sorted wires let the C
        kernel binary-search during expansion instead of hashing.
        """
        csr = self._entry_csr.get(sink)
        if csr is None:
            # Every (wire, ipin) pair in entries_of's visiting order: ipins
            # in sink in-edge order, each ipin's wires in its in-edge order.
            # A stable sort by wire then keeps each wire's ipins in that order.
            rev_ptr, rev_src = self._rev_ptr, self._rev_src
            ipin = rev_src[rev_ptr[sink]: rev_ptr[sink + 1]].astype(np.int64)
            lo = rev_ptr[ipin]
            counts = rev_ptr[ipin + 1] - lo
            first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            pair_wire = rev_src[first + np.arange(int(counts.sum()))]
            pair_ipin = np.repeat(ipin, counts)
            order = np.argsort(pair_wire, kind="stable")
            wires, per_wire = np.unique(pair_wire[order], return_counts=True)
            ptr = np.zeros(len(wires) + 1, dtype=np.int64)
            np.cumsum(per_wire, out=ptr[1:])
            csr = (wires.astype(np.int64), ptr, pair_ipin[order])
            self._entry_csr[sink] = csr
        return csr


class _Builder:
    """Incremental RR-graph builder."""

    def __init__(self, arch: FPGAArchitecture) -> None:
        self.arch = arch
        self.types: List[int] = []
        self.xs: List[int] = []
        self.ys: List[int] = []
        self.tracks: List[int] = []
        self.caps: List[int] = []
        self.adj: List[List[int]] = []

    def add_node(self, ntype: int, x: int, y: int, track: int = -1, capacity: int = 1) -> int:
        self.types.append(ntype)
        self.xs.append(x)
        self.ys.append(y)
        self.tracks.append(track)
        self.caps.append(capacity)
        self.adj.append([])
        return len(self.types) - 1

    def add_edge(self, src: int, dst: int) -> None:
        self.adj[src].append(dst)

    def add_bidir(self, a: int, b: int) -> None:
        self.adj[a].append(b)
        self.adj[b].append(a)

    def finish(self, lookups) -> RRGraph:
        ptr = np.zeros(len(self.adj) + 1, dtype=np.int64)
        for i, lst in enumerate(self.adj):
            ptr[i + 1] = ptr[i] + len(lst)
        dst = np.empty(int(ptr[-1]), dtype=np.int32)
        for i, lst in enumerate(self.adj):
            dst[ptr[i] : ptr[i + 1]] = lst
        return RRGraph(
            arch=self.arch,
            node_type=np.array(self.types, dtype=np.int8),
            node_x=np.array(self.xs, dtype=np.int16),
            node_y=np.array(self.ys, dtype=np.int16),
            node_track=np.array(self.tracks, dtype=np.int16),
            node_capacity=np.array(self.caps, dtype=np.int16),
            edge_ptr=ptr,
            edge_dst=dst,
            **lookups,
        )


def _track_subset(channel_width: int, fraction: float) -> List[int]:
    """Evenly spaced subset of track indices reachable by a pin."""
    count = max(1, int(round(channel_width * fraction)))
    if count >= channel_width:
        return list(range(channel_width))
    step = channel_width / count
    return sorted({int(i * step) % channel_width for i in range(count)})


def build_rr_graph(arch: FPGAArchitecture) -> RRGraph:
    """Build the routing-resource graph for an architecture."""
    b = _Builder(arch)
    W = arch.channel_width
    width, height = arch.width, arch.height

    # ---- channel wires -------------------------------------------------------
    # CHANX(x, y, t): horizontal wire at channel y (0..height), column x (1..width)
    chanx: Dict[Tuple[int, int, int], int] = {}
    for y in range(0, height + 1):
        for x in range(1, width + 1):
            for t in range(W):
                chanx[(x, y, t)] = b.add_node(RRNodeType.CHANX, x, y, t)
    # CHANY(x, y, t): vertical wire at channel x (0..width), row y (1..height)
    chany: Dict[Tuple[int, int, int], int] = {}
    for x in range(0, width + 1):
        for y in range(1, height + 1):
            for t in range(W):
                chany[(x, y, t)] = b.add_node(RRNodeType.CHANY, x, y, t)

    # ---- switch blocks (disjoint / subset topology) ---------------------------
    for i in range(0, width + 1):
        for j in range(0, height + 1):
            for t in range(W):
                incident = []
                if i >= 1:
                    incident.append(chanx[(i, j, t)])          # wire ending at SB from the left
                if i + 1 <= width:
                    incident.append(chanx[(i + 1, j, t)])      # wire leaving SB to the right
                if j >= 1:
                    incident.append(chany[(i, j, t)])          # wire from below
                if j + 1 <= height:
                    incident.append(chany[(i, j + 1, t)])      # wire to above
                for a_idx in range(len(incident)):
                    for b_idx in range(a_idx + 1, len(incident)):
                        b.add_bidir(incident[a_idx], incident[b_idx])

    # ---- logic blocks ----------------------------------------------------------
    clb_source: Dict[Tuple[int, int], int] = {}
    clb_sink: Dict[Tuple[int, int], int] = {}
    clb_opin: Dict[Tuple[int, int], int] = {}
    out_tracks = _track_subset(W, arch.fc_out)
    in_tracks = _track_subset(W, arch.fc_in)

    def adjacent_channels(x: int, y: int) -> List[int]:
        """Wire nodes of the four channels around a logic block, all tracks."""
        nodes = []
        for t in range(W):
            nodes.append(chanx[(x, y, t)])       # channel above
            nodes.append(chanx[(x, y - 1, t)])   # channel below
            nodes.append(chany[(x, y, t)])       # channel to the right
            nodes.append(chany[(x - 1, y, t)])   # channel to the left
        return nodes

    def adjacent_tracks(x: int, y: int, tracks: List[int]) -> List[int]:
        nodes = []
        for t in tracks:
            nodes.append(chanx[(x, y, t)])
            nodes.append(chanx[(x, y - 1, t)])
            nodes.append(chany[(x, y, t)])
            nodes.append(chany[(x - 1, y, t)])
        return nodes

    for x in range(1, width + 1):
        for y in range(1, height + 1):
            src = b.add_node(RRNodeType.SOURCE, x, y)
            opin = b.add_node(RRNodeType.OPIN, x, y)
            sink = b.add_node(RRNodeType.SINK, x, y, capacity=arch.lut_inputs)
            b.add_edge(src, opin)
            clb_source[(x, y)] = src
            clb_opin[(x, y)] = opin
            clb_sink[(x, y)] = sink
            for wire in adjacent_tracks(x, y, out_tracks):
                b.add_edge(opin, wire)
            for pin in range(arch.lut_inputs):
                ipin = b.add_node(RRNodeType.IPIN, x, y)
                b.add_edge(ipin, sink)
                for wire in adjacent_tracks(x, y, in_tracks):
                    b.add_edge(wire, ipin)

    # ---- IO pads ----------------------------------------------------------------
    io_source: Dict[Tuple[int, int, int], int] = {}
    io_sink: Dict[Tuple[int, int, int], int] = {}

    def io_channel_nodes(x: int, y: int) -> List[int]:
        """Wire nodes of the single channel adjacent to a perimeter IO location."""
        nodes = []
        for t in range(W):
            if y == 0:
                nodes.append(chanx[(x, 0, t)])
            elif y == height + 1:
                nodes.append(chanx[(x, height, t)])
            elif x == 0:
                nodes.append(chany[(0, y, t)])
            else:  # x == width + 1
                nodes.append(chany[(width, y, t)])
        return nodes

    for site in arch.io_sites():
        x, y, sub = site.x, site.y, site.subtile
        src = b.add_node(RRNodeType.SOURCE, x, y, track=sub)
        opin = b.add_node(RRNodeType.OPIN, x, y, track=sub)
        ipin = b.add_node(RRNodeType.IPIN, x, y, track=sub)
        sink = b.add_node(RRNodeType.SINK, x, y, track=sub)
        b.add_edge(src, opin)
        b.add_edge(ipin, sink)
        for wire in io_channel_nodes(x, y):
            b.add_edge(opin, wire)
            b.add_edge(wire, ipin)
        io_source[(x, y, sub)] = src
        io_sink[(x, y, sub)] = sink

    return b.finish(
        dict(
            clb_source=clb_source,
            clb_sink=clb_sink,
            clb_opin=clb_opin,
            io_source=io_source,
            io_sink=io_sink,
        )
    )
