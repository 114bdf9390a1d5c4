"""Flat route forest: every net's route tree in one set of int32 arrays.

Every :class:`~repro.par.routing.RoutingResult` carries one, whether or
not the route converged: it is the only stored route representation, and
the timing, cache, service-digest and bitstream layers read nothing else
(``RoutingResult.routes`` is a per-net view derived from it).  It is built
from the routers' per-sink ``(target, path, attach)`` connections, so it
records exactly the tree each route grew.  The union of all route trees is stored
as a flat parent-pointer forest (CSR-style, mirroring the router's search
view), so

* routed-delay extraction is a handful of NumPy gathers -- one
  depth-levelized scan ``acc[i] = acc[parent[i]] + delay_ns[node[i]]``
  (:meth:`RouteForest.connection_sums`) accumulates delay (and, given more
  value columns, wire / pin element counts) for every tree node of every
  net at once, and per-connection delays fall out as ``acc[conn_sink_pos]``;
* route trees serialize into :class:`repro.par.cache.PaRCache` values
  (plain int lists), so reconfiguration experiments re-hydrate routes on a
  cache hit instead of re-routing.

Invariants (what every consumer may rely on, and ``validate()`` /
``tests/test_forest.py`` check):

* **Bit-identity with the dict walk.**  The per-level scan performs *the
  same float additions in the same order* as the per-connection dict walk
  (each node's accumulated delay is one binary add
  ``acc[parent] + delay[node]``), so routed delays -- and therefore
  critical-path reports -- are bit-identical to the test oracle
  ``routed_edge_delays_reference`` in ``tests/oracles.py``.
* **Structural soundness.**  ``parent[i]`` is either ``-1`` (child of the
  net's SOURCE) or a position *in the same net's slice*; ``depth`` is
  exactly ``parent``-chain length, so sorting by depth levelizes the scan;
  every connection's ``conn_sink_pos`` points at a position whose RR node
  is the connection's sink.
* **Serialization round-trips.**  ``to_payload``/``from_payload`` (plain
  int lists, JSON-safe) reproduce an equal forest; corrupt payloads fail
  ``validate()`` rather than yielding wrong delays -- the property the
  cache's hydration fallback relies on.

Layout
------

Positions ``0..P-1`` hold every route-tree node except the net SOURCEs
(which contribute zero delay and live in ``net_source``):

* ``node[i]`` -- RR node id at forest position ``i``;
* ``parent[i]`` -- forest position of the node ``i`` is reached from
  (``-1`` when the parent is the net's SOURCE);
* ``depth[i]`` -- hops from the net's SOURCE (``>= 1``);
* ``net_node_ptr[n]:net_node_ptr[n+1]`` -- the position slice of net ``n``;
* ``net_ptr[n]:net_ptr[n+1]`` -- the connection slice of net ``n``;
* ``conn_net[c]`` / ``conn_sink[c]`` -- the ``(net id, sink RR node)``
  identity of connection ``c``;
* ``conn_sink_pos[c]`` -- forest position of the connection's sink node;
* ``conn_ptr[c]:conn_ptr[c+1]`` -- the positions connection ``c`` added to
  its tree, in attach-to-sink order (empty for a duplicate sink).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FOREST_ARRAYS", "RouteForest", "build_route_forest"]

#: The int32 array fields of :class:`RouteForest`, in field order.
FOREST_ARRAYS = (
    "node",
    "parent",
    "depth",
    "net_id",
    "net_source",
    "net_node_ptr",
    "net_ptr",
    "conn_net",
    "conn_sink",
    "conn_sink_pos",
    "conn_ptr",
)


@dataclass
class RouteForest:
    """All route trees of one routing result, flattened (see module doc)."""

    num_rr_nodes: int
    node: np.ndarray          #: int32[P] RR node per forest position
    parent: np.ndarray        #: int32[P] parent position, -1 = net source
    depth: np.ndarray         #: int32[P] hops from the net source (>= 1)
    net_id: np.ndarray        #: int32[N] net ids, ascending
    net_source: np.ndarray    #: int32[N] SOURCE RR node per net
    net_node_ptr: np.ndarray  #: int32[N+1] position slice per net
    net_ptr: np.ndarray       #: int32[N+1] connection slice per net
    conn_net: np.ndarray      #: int32[C] net id per connection
    conn_sink: np.ndarray     #: int32[C] sink RR node per connection
    conn_sink_pos: np.ndarray  #: int32[C] forest position of the sink node
    conn_ptr: np.ndarray      #: int32[C+1] positions added per connection
    #: lazy (order, bounds, parent_safe, is_root) cache of the depth scan
    _levels: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def num_positions(self) -> int:
        """Total tree nodes across every net (the length of ``node``)."""
        return len(self.node)

    @property
    def num_nets(self) -> int:
        """Number of nets with a slice in the forest."""
        return len(self.net_id)

    @property
    def num_connections(self) -> int:
        """Total (net, sink) connections across every net."""
        return len(self.conn_net)

    # -- vectorized consumers ------------------------------------------------

    def connection_keys(self) -> np.ndarray:
        """Per-connection int64 key ``net_id * num_rr_nodes + sink_rr``."""
        return self.conn_net.astype(np.int64) * self.num_rr_nodes + self.conn_sink

    def wirelength(self, wire_mask: np.ndarray) -> int:
        """Total wire nodes used, summed over all trees (dups across nets count)."""
        return int(np.count_nonzero(wire_mask[self.node]))

    def net_wirelengths(self, wire_mask: np.ndarray) -> np.ndarray:
        """Wire nodes used per net, in ``net_id`` order (0 for a sink-less net)."""
        seen = np.zeros(self.num_positions + 1, dtype=np.int64)
        np.cumsum(wire_mask[self.node], out=seen[1:])
        return seen[self.net_node_ptr[1:]] - seen[self.net_node_ptr[:-1]]

    def _depth_levels(self):
        """Positions grouped by depth (parents always in earlier groups).

        Cached per forest: ``(order, bounds, parent_safe, is_root)`` where
        ``parent_safe`` / ``is_root`` are pre-gathered in ``order`` so the
        accumulation loop of :meth:`connection_sums` runs three vector
        operations per level.
        """
        if self._levels is None:
            # Order within a level is irrelevant (parents sit at strictly
            # lower depths), so sort the narrowest dtype that fits: radix
            # on uint16 is ~12x faster than a stable int32 sort here.
            depth = self.depth
            if depth.size and int(depth.max()) < (1 << 16):
                depth = depth.astype(np.uint16)
            order = np.argsort(depth, kind="stable").astype(np.int64)
            bounds: List[Tuple[int, int]] = []
            if order.size:
                d = self.depth[order]
                starts = np.flatnonzero(np.diff(d, prepend=d[0] - 1))
                ends = np.append(starts[1:], order.size)
                bounds = [(int(s), int(e)) for s, e in zip(starts, ends)]
            p_ord = self.parent[order].astype(np.int64)
            self._levels = (order, bounds, np.maximum(p_ord, 0), p_ord < 0)
        return self._levels

    def connection_sums(self, node_values: np.ndarray) -> np.ndarray:
        """Source-to-sink sum of ``node_values`` per connection.

        ``node_values`` is indexed by RR node, 1-D or ``(num_rr_nodes, k)``
        for ``k`` quantities summed in one scan; the result has one row per
        connection (zeros for a connection with no sink position).  The
        root-to-node accumulation ``acc[i] = acc[parent[i]] + vals[i]`` runs
        one vector operation per tree depth level, performing exactly one
        binary float add per element -- the same association as the
        per-connection dict walk, which keeps routed delays bit-identical
        to it.
        """
        vals = node_values[self.node]
        acc = np.zeros_like(vals)
        order, bounds, parent_safe, is_root = self._depth_levels()
        vals_ord = vals[order]
        for lo, hi in bounds:
            pa = acc[parent_safe[lo:hi]]
            pa[is_root[lo:hi]] = 0.0
            acc[order[lo:hi]] = pa + vals_ord[lo:hi]
        out = np.zeros((self.num_connections,) + vals.shape[1:], dtype=acc.dtype)
        ok = self.conn_sink_pos >= 0
        out[ok] = acc[self.conn_sink_pos[ok]]
        return out

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable dict (plain int lists, no pickled code)."""
        payload: Dict[str, object] = {"num_rr_nodes": self.num_rr_nodes}
        for name in FOREST_ARRAYS:
            payload[name] = getattr(self, name).tolist()
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RouteForest":
        """Inverse of :meth:`to_payload`; raises ``ValueError`` on corruption."""
        try:
            arrays = {k: np.asarray(payload[k], dtype=np.int32) for k in FOREST_ARRAYS}
            forest = cls(num_rr_nodes=int(payload["num_rr_nodes"]), **arrays)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"corrupt route-forest payload: {exc}") from exc
        forest.validate()
        return forest

    def validate(self) -> None:
        """Structural consistency checks (used on cache re-hydration)."""
        P, N, C = self.num_positions, self.num_nets, self.num_connections
        if len(self.parent) != P or len(self.depth) != P:
            raise ValueError("route forest: position arrays disagree on length")
        if len(self.net_source) != N or len(self.net_node_ptr) != N + 1:
            raise ValueError("route forest: net arrays disagree on length")
        if len(self.net_ptr) != N + 1 or len(self.conn_ptr) != C + 1:
            raise ValueError("route forest: pointer arrays disagree on length")
        if len(self.conn_sink) != C or len(self.conn_sink_pos) != C:
            raise ValueError("route forest: connection arrays disagree on length")
        if P:
            if int(self.net_node_ptr[-1]) != P or int(self.conn_ptr[-1]) > P:
                raise ValueError("route forest: pointer arrays out of range")
            if int(self.parent.max()) >= P or int(self.parent.min()) < -1:
                raise ValueError("route forest: parent positions out of range")
            if C and (
                int(self.conn_sink_pos.max()) >= P
                or int(self.conn_sink_pos.min()) < -1
            ):
                raise ValueError("route forest: sink positions out of range")
            if int(self.node.max()) >= self.num_rr_nodes or int(self.node.min()) < 0:
                raise ValueError("route forest: RR node ids out of range")
            if int(self.depth.min()) < 1:
                raise ValueError("route forest: tree depths out of range")
            if int(self.net_node_ptr.min()) < 0 or int(self.conn_ptr.min()) < 0:
                raise ValueError("route forest: pointer arrays out of range")
            if (np.diff(self.net_node_ptr) < 0).any() or (np.diff(self.conn_ptr) < 0).any():
                raise ValueError("route forest: pointer arrays not monotonic")
        if N and int(self.net_ptr[-1]) != C:
            raise ValueError("route forest: connection pointers out of range")
        if N and (int(self.net_ptr.min()) < 0 or (np.diff(self.net_ptr) < 0).any()):
            raise ValueError("route forest: connection pointers out of range")


class _NetFragment:
    """One net's flattened tree in *local* positions (see assembly below).

    Built once per (net, route-tree) pair as plain lists, then frozen into
    small NumPy arrays by :meth:`freeze` so the repeated whole-forest
    assembly is a handful of ``np.concatenate`` calls instead of
    re-consuming Python lists every PathFinder iteration.
    """

    __slots__ = (
        "source",
        "node",
        "parent",
        "depth",
        "conn_sink",
        "conn_sink_pos",
        "conn_end",
    )

    def __init__(self, source: int) -> None:
        self.source = source
        self.node: List[int] = []
        self.parent: List[int] = []     #: local parent position, -1 = source
        self.depth: List[int] = []
        self.conn_sink: List[int] = []
        self.conn_sink_pos: List[int] = []  #: local position of the sink node
        self.conn_end: List[int] = []   #: local conn_ptr end per connection

    def freeze(self) -> "_NetFragment":
        """Convert the append lists to arrays; returns self for chaining."""
        self.node = np.asarray(self.node, dtype=np.int32)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.depth = np.asarray(self.depth, dtype=np.int32)
        self.conn_sink = np.asarray(self.conn_sink, dtype=np.int32)
        self.conn_sink_pos = np.asarray(self.conn_sink_pos, dtype=np.int64)
        self.conn_end = np.asarray(self.conn_end, dtype=np.int64)
        return self


def _append_conn(
    f: _NetFragment, pos_of: Dict[int, int], target: int, path, attach: int
) -> None:
    """Append one ``(target, path, attach)`` connection to a live fragment.

    The astar router calls this during backtrace-merge, so fragments are
    *emitted while routing* instead of rebuilt per re-routed net at forest
    build / re-time; ``pos_of`` is the net's node -> local-position map
    (``{source: -1}`` on a fresh tree).  Must not be called after
    :meth:`_NetFragment.freeze`.
    """
    node_l = f.node
    depth_l = f.depth
    f.conn_sink.append(target)
    if not path:
        # Duplicate sink: the target node is already in the tree.
        f.conn_sink_pos.append(pos_of[target])
        f.conn_end.append(len(node_l))
        return
    ap = pos_of[attach]
    rp = path[::-1]  # attach-to-sink order (router backtraces sink-first)
    base = len(node_l)
    node_l += rp
    f.parent.append(ap)
    f.parent += range(base, base + len(rp) - 1)
    d0 = depth_l[ap] + 1 if ap >= 0 else 1
    depth_l += range(d0, d0 + len(rp))
    pos_of.update(zip(rp, range(base, base + len(rp))))
    f.conn_sink_pos.append(base + len(rp) - 1)
    f.conn_end.append(len(node_l))


def build_route_forest(fragments: Sequence[Tuple[int, _NetFragment]], rr) -> RouteForest:
    """Assemble ``(net_id, frozen fragment)`` pairs into one :class:`RouteForest`.

    ``fragments`` must be in ascending net-id order; each fragment holds
    its net's tree in local positions exactly as the router grew it (see
    :func:`_append_conn`), so the assembled forest records that tree.
    """
    # -- vectorized assembly: local fragment positions -> global arrays ---
    i32 = np.int32
    if not fragments:
        empty = np.zeros(0, dtype=i32)
        zero_ptr = np.zeros(1, dtype=i32)
        return RouteForest(
            num_rr_nodes=rr.num_nodes,
            node=empty,
            parent=empty.copy(),
            depth=empty.copy(),
            net_id=empty.copy(),
            net_source=empty.copy(),
            net_node_ptr=zero_ptr,
            net_ptr=zero_ptr.copy(),
            conn_net=empty.copy(),
            conn_sink=empty.copy(),
            conn_sink_pos=empty.copy(),
            conn_ptr=zero_ptr.copy(),
        )
    node_parts = []
    parent_parts = []
    depth_parts = []
    sink_parts = []
    spos_parts = []
    cend_parts = []
    plens = []
    clens = []
    sources = []
    net_ids = []
    for nid, f in fragments:
        net_ids.append(nid)
        node_parts.append(f.node)
        parent_parts.append(f.parent)
        depth_parts.append(f.depth)
        sink_parts.append(f.conn_sink)
        spos_parts.append(f.conn_sink_pos)
        cend_parts.append(f.conn_end)
        plens.append(len(f.node))
        clens.append(len(f.conn_sink))
        sources.append(f.source)
    plens_a = np.asarray(plens, dtype=np.int64)
    clens_a = np.asarray(clens, dtype=np.int64)
    net_node_ptr = np.zeros(len(net_ids) + 1, dtype=np.int64)
    np.cumsum(plens_a, out=net_node_ptr[1:])
    pos_off = net_node_ptr[:-1]
    off_per_pos = np.repeat(pos_off, plens_a)
    off_per_conn = np.repeat(pos_off, clens_a)
    parent_local = np.concatenate(parent_parts)
    spos_local = np.concatenate(spos_parts)
    net_ptr = np.zeros(len(net_ids) + 1, dtype=np.int64)
    np.cumsum(clens_a, out=net_ptr[1:])
    conn_ptr = np.empty(int(net_ptr[-1]) + 1, dtype=np.int64)
    conn_ptr[0] = 0
    conn_ptr[1:] = np.concatenate(cend_parts) + off_per_conn
    net_ids_a = np.asarray(net_ids, dtype=i32)
    return RouteForest(
        num_rr_nodes=rr.num_nodes,
        node=np.concatenate(node_parts),
        parent=np.where(parent_local < 0, -1, parent_local + off_per_pos).astype(i32),
        depth=np.concatenate(depth_parts),
        net_id=net_ids_a,
        net_source=np.asarray(sources, dtype=i32),
        net_node_ptr=net_node_ptr.astype(i32),
        net_ptr=net_ptr.astype(i32),
        conn_net=np.repeat(net_ids_a, clens_a),
        conn_sink=np.concatenate(sink_parts),
        conn_sink_pos=np.where(spos_local < 0, -1, spos_local + off_per_conn).astype(i32),
        conn_ptr=conn_ptr.astype(i32),
    )
