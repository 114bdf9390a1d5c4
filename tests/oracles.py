"""Test oracles: the original implementations the shipped kernels are checked against.

The library ships one kernel per hot path.  The slower original each one
replaced lives here, outside the package, as the reference its tests and
``benchmarks/bench_hotpaths.py`` compare against (the bench inserts this
directory on ``sys.path``):

* :func:`route_reference` -- the PathFinder router with a per-edge
  ``node_cost()`` call and an unpruned wavefront; the wirelength baseline
  of ``route()`` and the router whose grown trees the STA tests time;
* :func:`minimum_channel_width_unpruned` -- the min-CW binary search
  with every probe run to its full iteration budget; the probes of
  :func:`~repro.par.metrics.minimum_channel_width` stop early under the
  routing-failure predictor and must find the same width with the same
  per-width outcomes;
* :func:`probe_reference` -- one min-CW probe on a device built at its
  own width; the probes of
  :func:`~repro.par.metrics.minimum_channel_width`, which route on one
  wider graph with a per-width ``search_end``, must give the same records
  and expand the same number of nodes;
* :func:`place_reference` -- the ``random.Random`` annealer that recomputes
  every affected net's HPWL; the banded quality baseline of ``place()``;
* :func:`candidates_timing_placement` -- the candidate-anneal timing
  placer that ``timing_driven_placement`` must match or beat, with the
  placement-estimate criticalities it re-weights by
  (:func:`net_criticality_from_placement`);
* :func:`simulate_patterns_reference` -- the per-node interpreter the
  compiled simulation engine must equal bit for bit;
* :func:`specialize_reference` -- the per-update SCG specialization
  (whole-circuit simulation, then ``restrict`` per tunable node) the
  compiled PPC behind ``MappedNetwork.specialize`` must equal entry for
  entry;
* :func:`param_bit_values_reference` -- the word-to-bit expansion that
  rescans every parameter name per word; the one-pass
  :func:`~repro.synth.constprop.param_bit_values` must return the same
  bits and raise the same ``KeyError``;
* :func:`routed_edge_delays_reference` -- the per-net walk over each
  route's ``(target, path, attach)`` connections that the route-forest
  scan :func:`~repro.timing.delays.routed_edge_delays` must equal bit for
  bit;
* :func:`build_rr_graph_reference` -- the per-edge append builder the
  closed-form :func:`~repro.fpga.routing_graph.build_rr_graph` must equal
  array for array, including each node's edge order
  (:func:`rr_graph_differences` names any array or lookup that differs).

Every oracle is the code it replaced, moved unchanged, so the trajectories
(and the gates in ``benchmarks/check_quality.py``) stay the same.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.device import Device, build_device
from repro.fpga.routing_graph import RR_BASE_COST, RRGraph, RRNodeType
from repro.netlist.boolean import restrict, wire_source
from repro.netlist.circuit import Circuit, Op
from repro.netlist.library import eval_gate
from repro.netlist.simulate import _pattern_mask, simulate_patterns
from repro.par.forest import FOREST_ARRAYS, _append_conn, _NetFragment, build_route_forest
from repro.par.netlist import PhysicalNetlist
from repro.par.placement import (
    Placement,
    PlacementResult,
    _cool,
    _initial_temperature,
    _moves_per_temperature,
    _net_hpwl,
    _next_range_limit,
    _placement_telemetry,
    place,
    random_placement,
)
from repro.par.routing import (
    NetRoute,
    RoutingResult,
    _assemble_result,
    route,
    terminal_rr_nodes,
)
from repro.techmap.mapping import MappedNetwork, NodeKind, SpecializedNetwork
from repro.timing.delays import (
    estimated_edge_delays,
    structural_edge_delays,
)
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.sta import scan_edge_criticality
from repro.util.resilience import Deadline

__all__ = [
    "route_reference",
    "minimum_channel_width_unpruned",
    "probe_reference",
    "place_reference",
    "candidates_timing_placement",
    "net_criticality_from_placement",
    "simulate_patterns_reference",
    "param_bit_values_reference",
    "routed_edge_delays_reference",
    "build_rr_graph_reference",
    "rr_graph_differences",
    "routing_differences",
]


# -- routing -------------------------------------------------------------------


def _fragment_from_conns(source: int, conns) -> _NetFragment:
    """Fragment from a route's ``(target, path, attach)`` connection list."""
    f = _NetFragment(source)
    pos_of: Dict[int, int] = {source: -1}
    for target, path, attach in conns:
        _append_conn(f, pos_of, target, path, attach)
    return f.freeze()


def route_reference(
    netlist: PhysicalNetlist,
    placement: Placement,
    device: Device,
    max_iterations: int = 25,
    pres_fac_init: float = 0.6,
    pres_fac_mult: float = 1.8,
    hist_fac: float = 0.4,
    astar_fac: float = 1.1,
    deadline: Optional[Deadline] = None,
) -> RoutingResult:
    """Original router: per-edge ``node_cost()`` calls, unpruned wavefront.

    The wirelength baseline of ``route()`` (``test_par.py``'s
    router-quality tests, the ``astar_wirelength_ratio`` and
    ``timing_wl_band_ratio`` gates of ``check_quality.py``), and the router
    whose grown trees ``test_forest.py`` and ``test_timing.py`` time
    through the STA engine.
    """
    rr = device.rr_graph
    num_nodes = rr.num_nodes

    base_cost = np.empty(num_nodes, dtype=np.float64)
    for t, c in RR_BASE_COST.items():
        base_cost[rr.node_type == t] = c
    capacity = rr.node_capacity.astype(np.int32)
    occupancy = np.zeros(num_nodes, dtype=np.int32)
    history = np.zeros(num_nodes, dtype=np.float64)

    node_x = rr.node_x.astype(np.int32)
    node_y = rr.node_y.astype(np.int32)
    edge_ptr = rr.edge_ptr
    edge_dst = rr.edge_dst

    src_of, sink_of = terminal_rr_nodes(netlist, placement, rr)

    routes: Dict[int, NetRoute] = {}
    net_terms: Dict[int, Tuple[int, List[int]]] = {}
    for net in netlist.nets:
        net_terms[net.id] = (src_of[net.driver], [sink_of[s] for s in net.sinks])

    visited_gen = np.zeros(num_nodes, dtype=np.int64)
    cost_so_far = np.zeros(num_nodes, dtype=np.float64)
    prev_node = np.full(num_nodes, -1, dtype=np.int64)
    generation = 0

    def node_cost(n: int, pres_fac: float) -> float:
        over = occupancy[n] + 1 - capacity[n]
        pres = 1.0 + pres_fac * over if over > 0 else 1.0
        return (base_cost[n] + history[n]) * pres

    def route_net(net_id: int, pres_fac: float) -> NetRoute:
        nonlocal generation
        if deadline is not None:
            deadline.check(f"reference net {net_id}")
        source, sinks = net_terms[net_id]
        tree: List[int] = [source]
        tree_set: Set[int] = {source}
        sx, sy = int(node_x[source]), int(node_y[source])
        order = sorted(
            sinks,
            key=lambda t: -(abs(int(node_x[t]) - sx) + abs(int(node_y[t]) - sy)),
        )
        conns: List[Tuple[int, List[int], int]] = []
        for target in order:
            if target in tree_set:
                occupancy[target] += 1
                conns.append((target, [], target))
                continue
            generation += 1
            gen = generation
            tx, ty = int(node_x[target]), int(node_y[target])
            heap: List[Tuple[float, float, int]] = []
            for n in tree:
                h = (abs(int(node_x[n]) - tx) + abs(int(node_y[n]) - ty)) * astar_fac
                visited_gen[n] = gen
                cost_so_far[n] = 0.0
                prev_node[n] = -1
                heapq.heappush(heap, (h, 0.0, n))
            found = False
            while heap:
                _, g, n = heapq.heappop(heap)
                if g > cost_so_far[n] + 1e-12:
                    continue  # stale heap entry
                if n == target:
                    found = True
                    break
                for m in edge_dst[edge_ptr[n] : edge_ptr[n + 1]]:
                    m = int(m)
                    ntype = rr.node_type[m]
                    if ntype == RRNodeType.SINK and m != target:
                        continue
                    new_cost = g + node_cost(m, pres_fac)
                    if visited_gen[m] != gen or new_cost < cost_so_far[m] - 1e-12:
                        visited_gen[m] = gen
                        cost_so_far[m] = new_cost
                        prev_node[m] = n
                        h = (abs(int(node_x[m]) - tx) + abs(int(node_y[m]) - ty)) * astar_fac
                        heapq.heappush(heap, (new_cost + h, new_cost, m))
            if not found:
                raise RuntimeError(
                    f"net {net_id} could not reach its sink; the device is too small "
                    "or the channel width is insufficient even with congestion allowed"
                )
            path = []
            n = target
            while n != -1 and n not in tree_set:
                path.append(n)
                n = int(prev_node[n])
            # ``n`` is the attach node; the merge loop below rebinds it.
            conns.append((target, path, n))
            for n in path:
                tree_set.add(n)
                tree.append(n)
                occupancy[n] += 1
        return NetRoute(net_id, tree, connections=conns)

    def rip_up(net_route: NetRoute) -> None:
        for n in net_route.nodes:
            if n != net_terms[net_route.net_id][0]:
                occupancy[n] -= 1

    pres_fac = pres_fac_init
    iteration = 0
    success = False
    net_ids = [net.id for net in netlist.nets]
    tl_overuse: List[int] = []
    tl_rerouted: List[int] = []
    tl_wall_ms: List[float] = []

    for iteration in range(1, max_iterations + 1):
        it_t0 = time.perf_counter()
        if iteration == 1:
            targets = net_ids
        else:
            over = occupancy > capacity
            targets = [
                nid
                for nid in net_ids
                if any(over[n] for n in routes[nid].nodes)
            ]
        for nid in targets:
            if nid in routes:
                rip_up(routes[nid])
            routes[nid] = route_net(nid, pres_fac)

        over_nodes = int(np.count_nonzero(occupancy > capacity))
        tl_overuse.append(over_nodes)
        tl_rerouted.append(len(targets))
        tl_wall_ms.append((time.perf_counter() - it_t0) * 1000.0)
        if over_nodes == 0:
            success = True
            break
        history += hist_fac * np.maximum(occupancy - capacity, 0)
        pres_fac *= pres_fac_mult

    telemetry = {
            "overuse_per_iteration": tl_overuse,
        "rerouted_nets_per_iteration": tl_rerouted,
        "iteration_wall_ms": tl_wall_ms,
    }
    fragments = [
        (nid, _fragment_from_conns(r.nodes[0], r.connections))
        for nid, r in sorted(routes.items())
    ]
    return _assemble_result(
        rr, occupancy, capacity, success, iteration,
        build_route_forest(fragments, rr), telemetry=telemetry,
    )


def minimum_channel_width_unpruned(
    netlist: PhysicalNetlist,
    placement: Placement,
    base_arch: FPGAArchitecture,
    low: int = 2,
    high: int = 32,
    max_router_iterations: int = 12,
) -> Tuple[int, Dict[int, bool]]:
    """Min-CW bisection without the routing-failure predictor.

    Same search order as :func:`~repro.par.metrics.minimum_channel_width`
    (widen ``high`` until it routes, then bisect down from ``low``), but
    every probe routes for the full ``max_router_iterations``.  Returns
    ``(min_channel_width, {width: routed})``.
    """
    attempts: Dict[int, bool] = {}

    def evaluate(width: int) -> bool:
        if width not in attempts:
            device = build_device(base_arch.with_channel_width(width))
            try:
                result = route(netlist, placement, device,
                               max_iterations=max_router_iterations)
                attempts[width] = result.success
            except RuntimeError:
                attempts[width] = False
        return attempts[width]

    hi = high
    while not evaluate(hi):
        hi *= 2
        if hi > 512:
            raise RuntimeError("design does not route even with an extremely wide channel")
    if evaluate(low):
        return low, attempts
    lo = low
    while lo + 1 < hi:
        mid = lo + (hi - lo) // 2
        if evaluate(mid):
            hi = mid
        else:
            lo = mid
    return hi, attempts


def probe_reference(
    netlist: PhysicalNetlist,
    placement: Placement,
    base_arch: FPGAArchitecture,
    width: int,
    max_iterations: int = 12,
) -> Tuple[bool, int, Optional[int], bool, Optional[int]]:
    """Route at one channel width on a device built at that width.

    The routing-failure predictor is on, as in the min-CW search.  Returns
    ``(ok, wirelength, iterations, aborted, nodes_expanded)``; the last
    three are ``None``, ``False`` and ``None`` when the router raised
    ``RuntimeError`` (an unreachable sink).
    """
    device = build_device(base_arch.with_channel_width(width))
    try:
        result = route(
            netlist, placement, device, max_iterations=max_iterations, abort_hopeless=True
        )
    except RuntimeError:
        return False, 0, None, False, None
    return (
        result.success, result.wirelength, result.iterations, result.aborted,
        result.telemetry["nodes_expanded"],
    )


# -- placement -----------------------------------------------------------------


class _AnnealingState:
    """Book-keeping for full-recompute HPWL evaluation (reference kernel)."""

    def __init__(self, netlist: PhysicalNetlist, placement: Placement) -> None:
        self.netlist = netlist
        self.placement = placement
        self.nets_of_block: Dict[int, List[int]] = {b.id: [] for b in netlist.blocks}
        for net in netlist.nets:
            for b in {net.driver, *net.sinks}:
                self.nets_of_block[b].append(net.id)
        self.net_cost: List[int] = [0] * len(netlist.nets)
        for net in netlist.nets:
            self.net_cost[net.id] = self._compute_net_cost(net.id)
        self.total_cost = sum(self.net_cost)

    def _compute_net_cost(self, net_id: int) -> int:
        net = self.netlist.nets[net_id]
        blocks = [net.driver] + net.sinks
        xs = [self.placement.block_site[b].x for b in blocks]
        ys = [self.placement.block_site[b].y for b in blocks]
        return _net_hpwl(xs, ys)

    def delta_for_nets(self, net_ids: List[int]) -> Tuple[int, Dict[int, int]]:
        """HPWL delta of the tentative move over ``net_ids``, plus new costs."""
        new_costs = {nid: self._compute_net_cost(nid) for nid in net_ids}
        delta = sum(new_costs[nid] - self.net_cost[nid] for nid in net_ids)
        return delta, new_costs

    def commit(self, new_costs: Dict[int, int]) -> None:
        """Adopt the per-net costs of an accepted move."""
        for nid, cost in new_costs.items():
            self.total_cost += cost - self.net_cost[nid]
            self.net_cost[nid] = cost


def place_reference(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    inner_num: float = 1.0,
) -> PlacementResult:
    """Original annealing loop: recompute affected nets' HPWL from pin lists.

    The quality baseline of ``place()`` (the ``batched`` annealer, which
    follows a different random stream, so it is banded, not bit-checked):
    ``test_par.py``'s mean-HPWL band and the ``placement`` section's
    ``quality_ok`` gate in ``check_quality.py``.  It shares the schedule
    helpers of :mod:`repro.par.placement`.
    """
    rng = random.Random(seed)
    placement = random_placement(netlist, arch, seed=seed)
    state = _AnnealingState(netlist, placement)
    initial_cost = state.total_cost

    logic_blocks = [b.id for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b.id for b in netlist.blocks if b.kind == "io"]
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())

    site_occupant: Dict[Tuple, Optional[int]] = {}
    for s in logic_sites + io_sites:
        site_occupant[s.as_tuple()] = None
    for bid, site in placement.block_site.items():
        site_occupant[site.as_tuple()] = bid

    movable_groups = []
    if logic_blocks:
        movable_groups.append(("logic", logic_blocks, logic_sites))
    if io_blocks:
        movable_groups.append(("io", io_blocks, io_sites))
    if not movable_groups:
        return PlacementResult(placement, 0, 0, 0, 0, 0)

    num_blocks = len(logic_blocks) + len(io_blocks)
    moves_per_temp = _moves_per_temperature(num_blocks, effort * inner_num)
    temperature = _initial_temperature(initial_cost, len(netlist.nets))
    device_span = float(max(arch.width, arch.height))
    range_limit = device_span

    moves_attempted = 0
    moves_accepted = 0
    temperature_steps = 0
    tl_temperature: List[float] = []
    tl_cost: List[int] = []
    tl_acceptance: List[float] = []

    def pick_move():
        group = movable_groups[rng.randrange(len(movable_groups))]
        _, blocks, sites = group
        block = blocks[rng.randrange(len(blocks))]
        cur = placement.block_site[block]
        for _ in range(8):
            target = sites[rng.randrange(len(sites))]
            if target.kind != cur.kind:
                continue
            if abs(target.x - cur.x) + abs(target.y - cur.y) > range_limit * 2:
                continue
            if target.as_tuple() != cur.as_tuple():
                return block, cur, target
        return None

    while temperature_steps < 200:
        accepted_this_temp = 0
        for _ in range(moves_per_temp):
            move = pick_move()
            if move is None:
                continue
            block, cur, target = move
            moves_attempted += 1
            occupant = site_occupant[target.as_tuple()]

            affected = set(state.nets_of_block[block])
            if occupant is not None:
                affected.update(state.nets_of_block[occupant])

            # tentatively apply
            placement.block_site[block] = target
            if occupant is not None:
                placement.block_site[occupant] = cur
            delta, new_costs = state.delta_for_nets(list(affected))

            accept = delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9))
            if accept:
                state.commit(new_costs)
                site_occupant[target.as_tuple()] = block
                site_occupant[cur.as_tuple()] = occupant
                moves_accepted += 1
                accepted_this_temp += 1
            else:
                placement.block_site[block] = cur
                if occupant is not None:
                    placement.block_site[occupant] = target

        temperature_steps += 1
        acceptance = accepted_this_temp / max(1, moves_per_temp)
        tl_temperature.append(temperature)
        tl_cost.append(state.total_cost)
        tl_acceptance.append(acceptance)
        temperature = _cool(temperature, acceptance)
        range_limit = _next_range_limit(range_limit, acceptance, device_span)
        if temperature < 0.005 * state.total_cost / max(1, len(netlist.nets)) or (
            acceptance < 0.01 and temperature_steps > 5
        ):
            break

    return PlacementResult(
        placement=placement,
        cost=state.total_cost,
        initial_cost=initial_cost,
        moves_attempted=moves_attempted,
        moves_accepted=moves_accepted,
        temperature_steps=temperature_steps,
        telemetry=_placement_telemetry(
            tl_temperature, tl_cost, tl_acceptance, moves_attempted, moves_accepted
        ),
    )


def _fold_edge_crit_to_nets(graph: TimingGraph, crit: np.ndarray) -> List[float]:
    out = [0.0] * len(graph.netlist.nets)
    for i in range(graph.num_edges):
        nid = int(graph.edge_net[i])
        c = float(crit[i])
        if c > out[nid]:
            out[nid] = c
    return out


def net_criticality_from_placement(
    graph: TimingGraph, placement: Placement, arch, exponent: float = 1.0
) -> Tuple[float, List[float]]:
    """Estimated critical path and per-net criticalities of one placement.

    Distance-based delay estimates (no routing); returns ``(critical_path_ns,
    net_crits)``.  :func:`candidates_timing_placement` uses the estimate both
    to re-weight the next annealing pass and to pick the best placement
    candidate; ``test_forest.py`` compares the shipped placer's estimated
    critical path with it.  ``exponent`` sharpens the criticalities.
    """
    delays = estimated_edge_delays(graph, placement, arch)[0]
    dmax, crit = scan_edge_criticality(graph, delays)
    if exponent != 1.0:
        crit = crit**exponent
    return dmax, _fold_edge_crit_to_nets(graph, crit)


def candidates_timing_placement(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    tradeoff: float = 3.0,
    passes: int = 2,
    exponent: float = 2.0,
) -> PlacementResult:
    """Candidate-anneal timing placer: the recipe the incremental-STA placer replaced.

    Anneals an unweighted candidate, a structurally-weighted candidate and
    ``passes`` re-weighted candidates (net-level weights from
    ``place(net_weights=)``, criticalities frozen *between* anneals), then
    picks the best estimated critical path.  ``timing_driven_placement``
    must match or beat it: ``test_forest.py``'s estimated-critical-path
    test and the ``timing`` section's ``placer_cp_ratio`` gate in
    ``check_quality.py``.
    """
    graph = build_timing_graph(netlist, arch.lut_delay_ns)

    def estimate(result: PlacementResult) -> Tuple[float, List[float]]:
        return net_criticality_from_placement(graph, result.placement, arch, exponent=exponent)

    def fold_structural() -> np.ndarray:
        _dmax, crit = scan_edge_criticality(graph, structural_edge_delays(graph, arch))
        if exponent != 1.0:
            crit = crit**exponent
        net_crit = np.zeros(len(netlist.nets))
        if graph.num_edges:
            np.maximum.at(net_crit, graph.edge_net, crit)
        return net_crit

    candidates: List[Tuple[float, PlacementResult]] = []
    base = place(netlist, arch, seed=seed, effort=effort)
    best_cp, best_crit = estimate(base)
    candidates.append((best_cp, base))

    struct_w = [1.0 + tradeoff * c for c in fold_structural()]
    cand = place(
        netlist,
        arch,
        seed=seed,
        effort=effort,
        net_weights=struct_w,
    )
    cp, crit = estimate(cand)
    if cp < best_cp:
        best_cp, best_crit = cp, crit
    candidates.append((cp, cand))

    for i in range(1, passes + 1):
        weights = [1.0 + tradeoff * c for c in best_crit]
        cand = place(
            netlist,
            arch,
            seed=seed + 1000 * i,
            effort=effort,
            net_weights=weights,
        )
        cp, crit = estimate(cand)
        if cp < best_cp:
            best_cp, best_crit = cp, crit
        candidates.append((cp, cand))

    return min(candidates, key=lambda t: t[0])[1]


# -- simulation ----------------------------------------------------------------


def simulate_patterns_reference(
    circuit: Circuit,
    input_patterns: Mapping[int, int],
    num_patterns: int,
    param_patterns: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Original per-node interpreter.

    The golden model of ``simulate_patterns`` (the compiled engine), which
    must return the identical packed vectors: ``test_engine.py``'s
    equivalence tests and the ``simulation`` section's ``identical_outputs``
    flag in ``BENCH_hotpaths.json``.
    """
    mask = _pattern_mask(num_patterns)
    values: List[int] = [0] * len(circuit.ops)
    params = dict(param_patterns or {})
    for nid, op in enumerate(circuit.ops):
        if op == Op.INPUT:
            values[nid] = input_patterns.get(nid, 0) & mask
        elif op == Op.PARAM:
            values[nid] = params.get(nid, 0) & mask
        elif op == Op.CONST0:
            values[nid] = 0
        elif op == Op.CONST1:
            values[nid] = mask
        else:
            args = [values[f] for f in circuit.fanins[nid]]
            values[nid] = eval_gate(op, args, mask)
    return {nid: values[nid] for nid in circuit.node_ids()}


# -- SCG specialization ----------------------------------------------------------


def specialize_reference(
    network: MappedNetwork, param_values: Mapping[int, int]
) -> SpecializedNetwork:
    """Original per-update specialization: simulate, then restrict every node.

    Evaluates every tune variable by simulating the whole source circuit,
    then specializes each TLUT by ``restrict`` + ``shrink_to_support`` +
    ``expand`` and each TCON by ``restrict`` + ``wire_source``.  The
    compiled PPC behind ``MappedNetwork.specialize`` tabulates exactly this
    per-node body and must return equal ``lut_configs`` and
    ``tcon_routes`` (``test_techmap.py::TestCompiledPPC`` and the ``scg``
    section of ``BENCH_hotpaths.json``).
    """
    needed = set()
    for node in network.nodes:
        needed.update(node.tune_vars)
    tune_values: Dict[int, int] = {}
    if needed:
        values = simulate_patterns(network.source, {}, 1, dict(param_values))
        tune_values = {nid: values[nid] & 1 for nid in needed}
    spec = SpecializedNetwork(network, dict(param_values))
    for nid, node in enumerate(network.nodes):
        if node.kind == NodeKind.LUT:
            spec.lut_configs[nid] = node.function
        elif node.kind == NodeKind.TLUT:
            assignment = {
                len(node.inputs) + j: tune_values.get(var, 0)
                for j, var in enumerate(node.tune_vars)
            }
            restricted = restrict(node.function, assignment)
            small, kept = restricted.shrink_to_support()
            # Re-express over exactly the data-input variables.
            spec.lut_configs[nid] = small.expand(len(node.inputs), list(kept))
        elif node.kind == NodeKind.TCON:
            assignment = {
                len(node.inputs) + j: tune_values.get(var, 0)
                for j, var in enumerate(node.tune_vars)
            }
            restricted = restrict(node.function, assignment)
            kind, var, inverted = wire_source(restricted, range(len(node.inputs)))
            if inverted:
                raise ValueError(
                    f"TCON node {nid} specialized to an inverted wire; "
                    "mapper must not emit inverting TCONs"
                )
            spec.tcon_routes[nid] = (kind, var)
    return spec


def param_bit_values_reference(circuit: Circuit, param_words: Mapping[str, int]) -> Dict[int, int]:
    """Original word-to-bit expansion: one scan of every parameter name per word.

    The equivalence baseline of :func:`repro.synth.constprop.param_bit_values`
    (``test_synth.py::TestParamBitValues``).
    """
    values: Dict[int, int] = {}
    by_name = {circuit.names.get(nid, f"param{nid}"): nid for nid in circuit.param_ids()}
    consumed = set()
    for name, word in param_words.items():
        matched = False
        for pname, nid in by_name.items():
            if pname == name:
                values[nid] = 1 if word else 0
                consumed.add(pname)
                matched = True
            elif pname.startswith(name + "[") and pname.endswith("]"):
                bit = int(pname[len(name) + 1 : -1])
                values[nid] = (int(word) >> bit) & 1
                consumed.add(pname)
                matched = True
        if not matched:
            raise KeyError(f"no parameter named {name!r} in circuit {circuit.name!r}")
    return values


# -- routed delays -------------------------------------------------------------


def _walk_connections(conns, delay_ns, is_wire, is_pin, acc):
    """Accumulate (delay, wires, pins) per tree node from a connection list.

    ``conns`` is the router's ordered ``(target, path, attach)`` list: every
    path's nodes hang off ``attach`` (already accumulated), target first.
    """
    for target, path, attach in conns:
        if not path:
            # Duplicate sink: the target node is already in the tree.
            continue
        base = acc.get(attach)
        if base is None:
            continue
        d, w, p = base
        for n in reversed(path):
            d = d + float(delay_ns[n])
            if is_wire[n]:
                w += 1
            elif is_pin[n]:
                p += 1
            acc[n] = (d, w, p)


def routed_edge_delays_reference(
    graph: TimingGraph,
    routes: Mapping[int, NetRoute],
    placement: Placement,
    device: Device,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-net dict walk of the route trees' connection lists.

    Checks :func:`~repro.timing.delays.routed_edge_delays` (the route-forest
    scan) bit for bit: ``test_forest.py``, ``test_timing.py`` and the
    ``retime`` section's ``delays_identical`` gate in ``check_quality.py``,
    which also times it as the flat path's baseline.  Returns
    ``(edge_delay, edge_wires, edge_pins)``; connections whose net has no
    route tree keep the placement estimate.
    """
    rr = device.rr_graph
    delay_ns = rr.node_delay_ns
    ntype = rr.node_type
    is_wire = (ntype == RRNodeType.CHANX) | (ntype == RRNodeType.CHANY)
    is_pin = (ntype == RRNodeType.OPIN) | (ntype == RRNodeType.IPIN)

    edge_delay = estimated_edge_delays(graph, placement, device.arch)[0]
    edge_wires = np.zeros(graph.num_edges, dtype=np.int32)
    edge_pins = np.zeros(graph.num_edges, dtype=np.int32)

    _src_of, sink_of = terminal_rr_nodes(graph.netlist, placement, rr)

    # Per-net accumulated (delay, wires, pins) at every tree node.
    per_net: Dict[int, Dict[int, Tuple[float, int, int]]] = {}
    for nid, net_route in routes.items():
        nodes = net_route.nodes
        if not nodes:
            continue
        acc: Dict[int, Tuple[float, int, int]] = {nodes[0]: (0.0, 0, 0)}
        _walk_connections(net_route.connections, delay_ns, is_wire, is_pin, acc)
        per_net[int(nid)] = acc

    for i in range(graph.num_edges):
        acc = per_net.get(int(graph.edge_net[i]))
        if acc is None:
            continue
        srr = sink_of.get(int(graph.edge_dst[i]))
        if srr is None:
            continue
        hit = acc.get(srr)
        if hit is None:
            continue
        edge_delay[i], edge_wires[i], edge_pins[i] = hit
    return edge_delay, edge_wires, edge_pins


# -- RR graph ------------------------------------------------------------------


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
        # By definition: each node's search edges are its leading edges
        # that enter neither an IPIN nor a SINK.
        pins = (RRNodeType.IPIN, RRNodeType.SINK)
        search_end = ptr[:-1].copy()
        for i, lst in enumerate(self.adj):
            for d in lst:
                if self.types[d] in pins:
                    break
                search_end[i] += 1
        return RRGraph(
            arch=self.arch,
            node_type=np.array(self.types, dtype=np.int8),
            node_x=np.array(self.xs, dtype=np.int16),
            node_y=np.array(self.ys, dtype=np.int16),
            node_track=np.array(self.tracks, dtype=np.int16),
            node_capacity=np.array(self.caps, dtype=np.int16),
            edge_ptr=ptr,
            edge_dst=dst,
            search_end=search_end,
            **lookups,
        )




def build_rr_graph_reference(arch: FPGAArchitecture) -> RRGraph:
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

    def adjacent_channels(x: int, y: int) -> List[int]:
        """Wire nodes of the four channels around a logic block, all tracks."""
        nodes = []
        for t in range(W):
            nodes.append(chanx[(x, y, t)])       # channel above
            nodes.append(chanx[(x, y - 1, t)])   # channel below
            nodes.append(chany[(x, y, t)])       # channel to the right
            nodes.append(chany[(x - 1, y, t)])   # channel to the left
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
            for wire in adjacent_channels(x, y):
                b.add_edge(opin, wire)
            for pin in range(arch.lut_inputs):
                ipin = b.add_node(RRNodeType.IPIN, x, y)
                b.add_edge(ipin, sink)
                for wire in adjacent_channels(x, y):
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


def rr_graph_differences(rr: RRGraph, ref: RRGraph) -> List[str]:
    """Names of the arrays and lookups in which ``rr`` differs from ``ref``.

    Arrays must match by dtype and value, lookups item for item in insertion
    order; an empty list means the two graphs are identical.
    """
    arrays = (
        "node_type", "node_x", "node_y", "node_track", "node_capacity",
        "edge_ptr", "edge_dst", "search_end",
    )
    lookups = ("clb_source", "clb_sink", "clb_opin", "io_source", "io_sink")
    diffs = [
        name for name in arrays
        if getattr(rr, name).dtype != getattr(ref, name).dtype
        or not np.array_equal(getattr(rr, name), getattr(ref, name))
    ]
    diffs += [
        name for name in lookups
        if list(getattr(rr, name).items()) != list(getattr(ref, name).items())
    ]
    return diffs


def routing_differences(result: RoutingResult, ref: RoutingResult) -> List[str]:
    """Names of the fields in which two routing results differ.

    Compares every metric and every forest array by dtype and value (the
    per-net ``routes`` view is derived from the forest); an empty list
    means the same route.
    """
    metrics = (
        "success", "iterations", "wirelength", "overused_nodes",
        "max_channel_occupancy", "aborted",
    )
    diffs = [name for name in metrics if getattr(result, name) != getattr(ref, name)]
    for name in FOREST_ARRAYS:
        mine, value = getattr(result.forest, name), getattr(ref.forest, name)
        if mine.dtype != value.dtype or not np.array_equal(mine, value):
            diffs.append(f"forest.{name}")
    return diffs
