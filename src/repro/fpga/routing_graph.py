"""Routing-resource graph of the island-style FPGA.

The routing-resource (RR) graph is the data structure the PathFinder router
(TROUTE in the paper's tool names) works on: a directed graph whose nodes are
sources, sinks, block pins and unit-length channel wires, and whose edges are
the programmable switches of the FPGA.

The construction mirrors VPR's graph for the 4-LUT "sanitized" architecture:

* every logic block exposes one SOURCE -> OPIN and ``lut_inputs`` IPIN -> SINK
  paths,
* fully populated connection blocks connect every pin to every track of
  its adjacent channels,
* disjoint (subset) switch blocks connect wires of the same track index where
  a horizontal and a vertical channel meet.

Node attributes are stored in parallel NumPy arrays and adjacency in CSR form
so that the router's inner loop stays cheap.  :func:`build_rr_graph` computes
both in closed form from the grid indices, and the arrays are read-only once
built.

Numbering and edge-order contract
---------------------------------
Node ids, and the order of each node's out-edges, are part of the graph's
meaning: the astar router breaks cost ties in edge order, so routes, the
golden digests and every cache key depend on them.  ``build_rr_graph`` must
reproduce them exactly (``tests/oracles.py`` keeps the per-edge append
builder they were defined by, and ``tests/test_fpga.py`` compares the two):

* **Nodes**, in id order: CHANX wires in ``(y, x, t)`` order (``y`` in
  ``0..height``, ``x`` in ``1..width``); then CHANY wires in ``(x, y, t)``
  order (``x`` in ``0..width``, ``y`` in ``1..height``); then per logic block,
  in x-major order, SOURCE, OPIN, SINK and ``lut_inputs`` IPINs; then 4 nodes
  per IO site in :meth:`FPGAArchitecture.io_sites` order: SOURCE, OPIN, IPIN,
  SINK.  ``node_track`` is the track index of a wire, the subtile of an IO
  node and -1 for a logic-block node; a logic-block SINK has capacity
  ``lut_inputs``, every other node 1.
* **Dtypes**: ``node_type`` int8; ``node_x``, ``node_y``, ``node_track`` and
  ``node_capacity`` int16; ``edge_ptr`` and ``search_end`` int64;
  ``edge_dst`` int32.
* **Out-edges** of each node, in insertion order of three phases:

  1. switch blocks, by position ``(i, j, t)`` (``i`` outermost), then by
     pair of the block's present wires (left CHANX, right CHANX, lower
     CHANY, upper CHANY; pairs in lexicographic slot order), each pair
     adding ``a -> b`` then ``b -> a``;
  2. logic blocks in x-major order: SOURCE -> OPIN; OPIN -> every track
     (per track: CHANX above, CHANX below, CHANY right, CHANY left); then
     per IPIN: IPIN -> SINK, and each of those wires (same order) -> IPIN;
  3. IO sites in ``io_sites()`` order: SOURCE -> OPIN, IPIN -> SINK, then per
     track of the adjacent channel OPIN -> wire and wire -> IPIN.

* **Pin edges last**: the phases above put every edge that enters an IPIN
  or a SINK after all of its source node's other edges (a wire's
  switch-block edges come first, its wire -> IPIN edges after them; a
  SOURCE or OPIN enters no pin; an IPIN's one edge enters its SINK).
  ``search_end[n]`` is where node ``n``'s pin edges start, so
  ``edge_dst[edge_ptr[n]:search_end[n]]`` are the edges the router's
  search expands over and ``edge_dst[search_end[n]:edge_ptr[n + 1]]`` the
  pins it completes a connection through.

* **Lookups**: ``clb_source`` / ``clb_opin`` / ``clb_sink`` keyed by
  ``(x, y)`` in x-major order; ``io_source`` / ``io_sink`` keyed by
  ``(x, y, subtile)`` in ``io_sites()`` order.

* **Width prefix**: the graph at channel width ``W`` is the graph at any
  ``W_max >= W`` restricted to the wires of tracks ``< W``, with node and
  edge order kept (an order-preserving relabel of the node ids).  A wire
  of track ``t`` switches only to track ``t``, and a pin's connection-block
  edges are track-major, so only OPIN rows lose edges, and the ones they
  keep are a prefix: OPIN ``n`` of the ``W_max`` graph keeps its first
  ``(search_end[n] - edge_ptr[n]) // W_max * W`` edges, and every other
  kept node keeps all of its edges.  The min-CW search routes its narrower
  probes on one ``W_max`` graph with that per-width ``search_end``
  (:mod:`repro.par.metrics`); ``tests/test_fpga.py`` checks the property.
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


#: Congestion-free cost of occupying one RR node, by node type: the router's
#: cost model.
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


@dataclass(eq=False)
class RRGraph:
    """Routing-resource graph with CSR adjacency.

    The eight arrays are made read-only on construction: nothing may change a
    graph after it is built, so a device can be shared by every route on it.
    Graphs compare by identity.
    """

    arch: FPGAArchitecture
    node_type: np.ndarray        # int8 per node
    node_x: np.ndarray           # int16
    node_y: np.ndarray           # int16
    node_track: np.ndarray       # int16 (track index; -1 for pins)
    node_capacity: np.ndarray    # int16
    edge_ptr: np.ndarray         # CSR row pointers (num_nodes + 1)
    edge_dst: np.ndarray         # CSR column indices
    search_end: np.ndarray       # per node: end of its non-pin edges (int64)
    #: lookup tables filled in by the builder
    clb_source: Dict[Tuple[int, int], int]
    clb_sink: Dict[Tuple[int, int], int]
    clb_opin: Dict[Tuple[int, int], int]
    io_source: Dict[Tuple[int, int, int], int]
    io_sink: Dict[Tuple[int, int, int], int]

    def __post_init__(self) -> None:
        for arr in (
            self.node_type, self.node_x, self.node_y, self.node_track,
            self.node_capacity, self.edge_ptr, self.edge_dst, self.search_end,
        ):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        """Number of RR nodes."""
        return len(self.node_type)

    @property
    def num_edges(self) -> int:
        """Number of switches (directed edges)."""
        return len(self.edge_dst)

    @cached_property
    def node_delay_ns(self) -> np.ndarray:
        """Per-node intrinsic delay (:func:`rr_delay_ns` by node type), read-only.

        The one flat delay vector: the STA engine's routed-delay extraction
        reads it.
        """
        delay = np.empty(self.num_nodes, dtype=np.float64)
        for t, d in rr_delay_ns(self.arch).items():
            delay[self.node_type == t] = d
        delay.setflags(write=False)
        return delay

    def wire_mask(self) -> np.ndarray:
        """Boolean mask of the channel-wire (CHANX/CHANY) nodes."""
        return (self.node_type == RRNodeType.CHANX) | (self.node_type == RRNodeType.CHANY)


#: Switch-block slot pairs, in the order the disjoint switch block connects
#: them.  Slots 0/1 are the CHANX wires left/right of the block, slots 2/3 the
#: CHANY wires below/above it.
_SB_PAIR_A = np.array([0, 0, 0, 1, 1, 2])
_SB_PAIR_B = np.array([1, 2, 3, 2, 3, 3])
#: Edge pairs are generated and placed in chunks of this many switch-block
#: positions / logic blocks, which bounds the builder's transient memory.
_SB_CHUNK = 8192
_CLB_CHUNK = 64


def _grid(*axes: np.ndarray) -> List[np.ndarray]:
    """Flattened index grids over ``axes``, the first axis outermost."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def build_rr_graph(arch: FPGAArchitecture) -> RRGraph:
    """Build the routing-resource graph for an architecture.

    Every node id and every edge is a closed-form function of the grid
    indices, so the graph is built with array operations.  The edges of each
    construction phase (switch blocks, logic blocks, IO pads) are generated
    as ``(src, dst)`` pairs in the insertion order of the module docstring,
    one chunk at a time.  A first pass over the chunks counts each node's
    out-degree, which gives ``edge_ptr`` (and, from the degrees after the
    switch-block phase, ``search_end``); a second pass places each chunk at
    ``edge_ptr[src]`` plus the edges already placed for ``src``, with a stable
    sort inside the chunk keeping the insertion order.
    """
    W = arch.channel_width
    width, height = arch.width, arch.height
    lut_inputs = arch.lut_inputs
    n_chanx = (height + 1) * width * W
    n_chany = (width + 1) * height * W
    n_clb = width * height
    per_clb = 3 + lut_inputs
    clb_base = n_chanx + n_chany
    io_base = clb_base + n_clb * per_clb
    sites = np.array(
        [(s.x, s.y, s.subtile) for s in arch.io_sites()], dtype=np.int32
    ).reshape(-1, 3)
    n_io = len(sites)
    num_nodes = io_base + 4 * n_io

    def chanx(x, y, t):
        return (y * width + (x - 1)) * W + t

    def chany(x, y, t):
        return n_chanx + (x * height + (y - 1)) * W + t

    # ---- node attributes -------------------------------------------------------
    node_type = np.empty(num_nodes, dtype=np.int8)
    node_x = np.empty(num_nodes, dtype=np.int16)
    node_y = np.empty(num_nodes, dtype=np.int16)
    node_track = np.full(num_nodes, -1, dtype=np.int16)
    node_capacity = np.ones(num_nodes, dtype=np.int16)

    wires = slice(0, n_chanx)
    node_type[wires] = RRNodeType.CHANX
    node_y[wires], node_x[wires], node_track[wires] = _grid(
        np.arange(height + 1), np.arange(1, width + 1), np.arange(W)
    )
    wires = slice(n_chanx, clb_base)
    node_type[wires] = RRNodeType.CHANY
    node_x[wires], node_y[wires], node_track[wires] = _grid(
        np.arange(width + 1), np.arange(1, height + 1), np.arange(W)
    )

    clb_x, clb_y = _grid(np.arange(1, width + 1), np.arange(1, height + 1))
    clb = slice(clb_base, io_base)
    node_type[clb].reshape(n_clb, per_clb)[:] = [
        RRNodeType.SOURCE, RRNodeType.OPIN, RRNodeType.SINK
    ] + [RRNodeType.IPIN] * lut_inputs
    node_x[clb] = np.repeat(clb_x, per_clb)
    node_y[clb] = np.repeat(clb_y, per_clb)
    node_capacity[clb].reshape(n_clb, per_clb)[:, 2] = lut_inputs

    io = slice(io_base, num_nodes)
    node_type[io].reshape(n_io, 4)[:] = [
        RRNodeType.SOURCE, RRNodeType.OPIN, RRNodeType.IPIN, RRNodeType.SINK
    ]
    node_x[io] = np.repeat(sites[:, 0], 4)
    node_y[io] = np.repeat(sites[:, 1], 4)
    node_track[io] = np.repeat(sites[:, 2], 4)

    # ---- edge phases, each yielding (src, dst) chunks in insertion order -------
    def switch_blocks():
        n_pos = (width + 1) * (height + 1) * W
        for lo in range(0, n_pos, _SB_CHUNK):
            p = np.arange(lo, min(lo + _SB_CHUNK, n_pos), dtype=np.int32)
            t = p % W
            j = p // W % (height + 1)
            i = p // (W * (height + 1))
            slot = np.stack(
                [chanx(i, j, t), chanx(i + 1, j, t), chany(i, j, t), chany(i, j + 1, t)],
                axis=1,
            )
            valid = np.stack([i >= 1, i < width, j >= 1, j < height], axis=1)
            a, b = slot[:, _SB_PAIR_A], slot[:, _SB_PAIR_B]
            keep = np.repeat((valid[:, _SB_PAIR_A] & valid[:, _SB_PAIR_B]).ravel(), 2)
            yield np.stack([a, b], axis=2).ravel()[keep], np.stack([b, a], axis=2).ravel()[keep]

    tracks = np.arange(W, dtype=np.int32)

    def adjacent_tracks(x, y):
        """Wires of the four channels around each block, track-major: (n, 4 * W)."""
        x, y, t = x[:, None], y[:, None], tracks[None, :]
        around = [chanx(x, y, t), chanx(x, y - 1, t), chany(x, y, t), chany(x - 1, y, t)]
        return np.stack(around, axis=2).reshape(len(x), 4 * W)

    def logic_blocks():
        for lo in range(0, n_clb, _CLB_CHUNK):
            c = np.arange(lo, min(lo + _CLB_CHUNK, n_clb), dtype=np.int32)
            n = len(c)
            x, y = c // height + 1, c % height + 1
            base = clb_base + c * per_clb
            source, opin, sink = base[:, None], base[:, None] + 1, base[:, None] + 2
            ipin = base[:, None] + 3 + np.arange(lut_inputs, dtype=np.int32)
            out_wires = adjacent_tracks(x, y)
            in_wires = np.broadcast_to(out_wires[:, None, :], (n, lut_inputs, 4 * W))
            # Per input pin: ipin -> sink, then every reachable wire -> ipin.
            pin_src = np.concatenate([ipin[:, :, None], in_wires], axis=2)
            pin_dst = np.concatenate(
                [np.broadcast_to(sink[:, :, None], (n, lut_inputs, 1)),
                 np.broadcast_to(ipin[:, :, None], (n, lut_inputs, 4 * W))],
                axis=2,
            )
            src = np.concatenate(
                [source, np.broadcast_to(opin, out_wires.shape), pin_src.reshape(n, -1)], axis=1
            )
            dst = np.concatenate([opin, out_wires, pin_dst.reshape(n, -1)], axis=1)
            yield src.ravel(), dst.ravel()

    def io_pads():
        x, y = sites[:, :1], sites[:, 1:2]
        t = tracks[None, :]
        base = io_base + 4 * np.arange(n_io, dtype=np.int32)[:, None]
        source, opin, ipin, sink = base, base + 1, base + 2, base + 3
        # The single channel next to each perimeter pad.
        horizontal = (y == 0) | (y == height + 1)
        wire = np.where(
            horizontal,
            chanx(x, np.minimum(y, height), t),
            chany(np.minimum(x, width), y, t),
        )
        # Per pad: source -> opin, ipin -> sink, then opin -> wire, wire -> ipin per track.
        pair_src = np.stack([np.broadcast_to(opin, wire.shape), wire], axis=2)
        pair_dst = np.stack([wire, np.broadcast_to(ipin, wire.shape)], axis=2)
        src = np.concatenate([source, ipin, pair_src.reshape(n_io, 2 * W)], axis=1)
        dst = np.concatenate([opin, sink, pair_dst.reshape(n_io, 2 * W)], axis=1)
        yield src.ravel(), dst.ravel()

    phases = (switch_blocks, logic_blocks, io_pads)

    # ---- CSR assembly -------------------------------------------------------------
    degree = np.zeros(num_nodes, dtype=np.int64)
    for phase in phases:
        for src, _ in phase():
            degree += np.bincount(src, minlength=num_nodes)
        if phase is switch_blocks:
            # Pin edges last: a wire's search edges are its switch-block
            # edges, a SOURCE's or OPIN's are all of them, a pin's none.
            search_degree = degree.copy()
    edge_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=edge_ptr[1:])
    enters_no_pin = (node_type == RRNodeType.SOURCE) | (node_type == RRNodeType.OPIN)
    search_end = edge_ptr[:-1] + np.where(enters_no_pin, degree, search_degree)
    edge_dst = np.empty(int(edge_ptr[-1]), dtype=np.int32)
    fill = edge_ptr[:-1].copy()
    for phase in phases:
        for src, dst in phase():
            order = np.argsort(src, kind="stable")
            src = src[order]
            first = np.flatnonzero(np.concatenate(([True], src[1:] != src[:-1])))
            count = np.diff(np.append(first, len(src)))
            rank = np.arange(len(src)) - np.repeat(first, count)
            edge_dst[fill[src] + rank] = dst[order]
            fill[src[first]] += count

    # ---- lookup tables --------------------------------------------------------------
    clb_keys = list(zip(clb_x.tolist(), clb_y.tolist()))
    clb_ids = clb_base + per_clb * np.arange(n_clb)
    io_keys = [tuple(site) for site in sites.tolist()]
    io_ids = io_base + 4 * np.arange(n_io)
    return RRGraph(
        arch=arch,
        node_type=node_type,
        node_x=node_x,
        node_y=node_y,
        node_track=node_track,
        node_capacity=node_capacity,
        edge_ptr=edge_ptr,
        edge_dst=edge_dst,
        search_end=search_end,
        clb_source=dict(zip(clb_keys, clb_ids.tolist())),
        clb_sink=dict(zip(clb_keys, (clb_ids + 2).tolist())),
        clb_opin=dict(zip(clb_keys, (clb_ids + 1).tolist())),
        io_source=dict(zip(io_keys, io_ids.tolist())),
        io_sink=dict(zip(io_keys, (io_ids + 3).tolist())),
    )
