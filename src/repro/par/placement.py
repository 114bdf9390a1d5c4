"""TPLACE: simulated-annealing placement.

Re-implementation of the VPR/TPaR placement step: blocks of the physical
netlist are assigned to compatible sites of the island FPGA and iteratively
improved by simulated annealing on the half-perimeter wirelength (HPWL) of
all nets, with the adaptive temperature schedule and range limiting of VPR.

One annealer lives behind :func:`place`, built like the router: set-up
runs once, then **one** temperature loop (cooling, range limit, exit
tests, telemetry) calls a per-temperature move ``step``.  The step is the
compiled C loop of :mod:`repro.native.annealer` when the native backend is
available, else its Python twin; both run over the same flat arrays and
the same PCG64 stream, so trajectories are bit-identical and results and
caches are backend-independent.

The move step keeps VPR-style incremental net bounding boxes: every net
caches its bbox plus the number of pins on each boundary, a move updates
affected nets in O(1) and only a *boundary shrink* (the last pin leaves a
bbox edge) triggers a rescan of that net's pins.  All randomness is drawn
in blocks from a ``numpy.random.Generator(PCG64)``, and a logic move picks
its target inside the range-limit window in O(1).  The annealer also
accepts the incremental-STA objective (``timing``), the seam the
timing-driven flow uses to pull critical connections shorter, and per-net
weights (``net_weights``, see :func:`place`).

The original annealer, which recomputes every affected net's HPWL from its
full pin list with per-move ``random.Random`` calls, is kept as a test
oracle in ``tests/oracles.py``.  It follows a different random stream, so
the production annealer's quality is banded against it instead of
bit-checked (mean final HPWL across seeds within 2%, see
``tests/test_par.py`` and ``benchmarks/bench_hotpaths.py``).  The schedule
helpers below (``_moves_per_temperature``, ``_cool``, ...) serve both.

The HPWL cost is kept as an exact integer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fpga.architecture import FPGAArchitecture, Site
from ..native.annealer import ISTATE, ISTATE_LEN, annealer_kernel, istate_counters
from ..obs import metrics as obs_metrics
from ..obs.trace import emit_series, traced
from .netlist import PhysicalNetlist

__all__ = [
    "Placement",
    "PlacementResult",
    "TimingCost",
    "place",
    "random_placement",
    "hpwl",
]


class TimingCost:
    """Per-connection timing term for the annealer (VPR-style).

    The timing-driven flow hands the annealer the flat connection arrays of
    the timing graph -- ``conn_src[c]`` / ``conn_dst[c]`` block ids, one
    entry per (net driver, net sink) pair -- plus a ``criticality`` callback
    that re-times a placement-estimate STA over the live block coordinates.
    The annealer then prices every move as

        delta = Q * delta_HPWL + sum_c  w_c * delta_dist_c

    where ``w_c = round(Q * T * criticality_c)``, ``T`` is the fixed timing
    tradeoff (4.0) and ``dist_c`` is the connection's Manhattan source-sink
    distance in unit wires (its placement-estimated delay up to constants).  Both terms are exact
    integers (``Q`` is the weight quantum), so the no-float-drift accounting
    of the plain objective carries over.  Criticalities are refreshed from
    the callback every half temperature step of accepted moves --
    criticality chases the anneal instead of being frozen between candidate
    anneals.
    """

    def __init__(
        self,
        conn_src: Sequence[int],
        conn_dst: Sequence[int],
        criticality: Callable[[List[int], List[int]], Sequence[float]],
    ) -> None:
        self.conn_src = list(conn_src)
        self.conn_dst = list(conn_dst)
        if len(self.conn_src) != len(self.conn_dst):
            raise ValueError("conn_src and conn_dst must have equal length")
        self.criticality = criticality


@dataclass
class Placement:
    """Assignment of netlist blocks to FPGA sites."""

    block_site: Dict[int, Site] = field(default_factory=dict)


@dataclass
class PlacementResult:
    """Placement plus quality metrics."""

    placement: Placement
    cost: int                   #: final total HPWL (exact integer)
    initial_cost: int
    moves_attempted: int
    moves_accepted: int
    temperature_steps: int
    #: final value of the weighted annealing objective when ``net_weights``
    #: were supplied (quantized-integer sum of weight * HPWL); ``None`` for
    #: plain HPWL annealing, where it would equal ``cost``.
    objective_cost: Optional[int] = None
    #: per-run observability snapshot (see OBSERVABILITY.md): the annealing
    #: schedule as parallel flat arrays -- ``temperature`` / ``cost`` /
    #: ``acceptance``, one entry per temperature step (the temperature the
    #: step annealed *at*, the total cost after it, and its acceptance
    #: rate).  Excluded from equality and never serialized into cache
    #: payloads, so ``PLACE_ALGO_VERSION`` is unaffected.
    telemetry: Optional[Dict[str, object]] = field(default=None, compare=False, repr=False)


def _net_hpwl(xs: List[int], ys: List[int]) -> int:
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def hpwl(netlist: PhysicalNetlist, placement: Placement) -> int:
    """Total half-perimeter wirelength of all nets under a placement.

    HPWL over integer grid coordinates is an exact integer; every kernel
    keeps it as one (no float accumulation drift).
    """
    total = 0
    for net in netlist.nets:
        blocks = [net.driver] + net.sinks
        xs = [placement.block_site[b].x for b in blocks]
        ys = [placement.block_site[b].y for b in blocks]
        total += _net_hpwl(xs, ys)
    return total


def random_placement(
    netlist: PhysicalNetlist, arch: FPGAArchitecture, seed: int = 0
) -> Placement:
    """Random feasible initial placement (logic blocks on CLB sites, IOs on pads)."""
    rng = random.Random(seed)
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())
    rng.shuffle(logic_sites)
    rng.shuffle(io_sites)

    logic_blocks = [b for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b for b in netlist.blocks if b.kind == "io"]
    if len(logic_blocks) > len(logic_sites):
        raise ValueError(
            f"design needs {len(logic_blocks)} logic sites but the device has "
            f"only {len(logic_sites)}"
        )
    if len(io_blocks) > len(io_sites):
        raise ValueError(
            f"design needs {len(io_blocks)} IO sites but the device has only {len(io_sites)}"
        )
    placement = Placement()
    for block, site in zip(logic_blocks, logic_sites):
        placement.block_site[block.id] = site
    for block, site in zip(io_blocks, io_sites):
        placement.block_site[block.id] = site
    return placement


def _moves_per_temperature(num_blocks: int, effort: float) -> int:
    return max(10, int(effort * 10 * (num_blocks ** (4.0 / 3.0)) / 10))


def _initial_temperature(initial_cost: float, num_nets: int) -> float:
    return max(1.0, 0.05 * initial_cost / max(1, num_nets) * 20)


def _cool(temperature: float, acceptance: float) -> float:
    """VPR-style adaptive cooling."""
    if acceptance > 0.96:
        return temperature * 0.5
    if acceptance > 0.8:
        return temperature * 0.9
    if acceptance > 0.15:
        return temperature * 0.95
    return temperature * 0.8


def _next_range_limit(range_limit: float, acceptance: float, device_span: float) -> float:
    """VPR range-limit update, clamped to the device size.

    Without the clamp the limit can grow without bound at high acceptance
    (``1.0 - 0.44 + acceptance`` exceeds 1 whenever acceptance > 0.44).
    """
    limit = max(1.0, range_limit * (1.0 - 0.44 + acceptance))
    return min(limit, device_span)


def _placement_telemetry(
    tl_temperature: List[float],
    tl_cost: List[int],
    tl_acceptance: List[float],
    moves_attempted: int,
    moves_accepted: int,
) -> Dict[str, object]:
    """Assemble an anneal's convergence telemetry and publish the counters.

    The three ``tl_*`` lists are parallel flat arrays with one entry per
    temperature step: the temperature the step annealed *at* (before
    cooling), the total cost after it, and its move acceptance rate.  The
    dict lands in :attr:`PlacementResult.telemetry` (:func:`place` adds its
    ``native`` flag); aggregate counters go to the process-wide metrics
    registry and the cost curve to the trace (both no-ops unless enabled).
    """
    obs_metrics.merge(
        {
            "place.calls": 1,
            "place.temperature_steps": len(tl_cost),
            "place.moves_attempted": moves_attempted,
            "place.moves_accepted": moves_accepted,
        }
    )
    emit_series("place.cost", tl_cost)
    return {"temperature": tl_temperature, "cost": tl_cost, "acceptance": tl_acceptance}


_WEIGHT_QUANTUM = 8  #: integer sub-steps per unit of net weight
_TIMING_TRADEOFF = 4.0  #: timing weight per unit of criticality, in HPWL units
_RBUF = 1 << 14  #: draws per refill of the integer and uniform buffers


def _integer_draws(gen: np.random.Generator) -> np.ndarray:
    """``_RBUF`` int64 draws uniform in ``[0, 2**63)``.

    Equal, value for value and in the generator state it leaves, to
    ``gen.integers(0, 2**63, size=_RBUF, dtype=np.int64)``: at that range
    Lemire's bounded method never rejects and returns ``raw >> 1`` of one
    64-bit draw, so the raw draws shifted give the same stream without its
    per-value bookkeeping.
    """
    return (gen.bit_generator.random_raw(_RBUF) >> 1).astype(np.int64)


def _quantize_weights(net_weights: Sequence[float], num_nets: int) -> List[int]:
    """Net weights as positive integers (``_WEIGHT_QUANTUM`` steps per unit).

    Integer weights keep the weighted annealing objective an exact integer
    -- the same no-float-drift guarantee the plain-HPWL objective carries.
    The quantization error is below ``1 / (2 * _WEIGHT_QUANTUM)`` per unit
    weight, well under the noise floor of the annealer.
    """
    if len(net_weights) != num_nets:
        raise ValueError(
            f"net_weights has {len(net_weights)} entries for {num_nets} nets"
        )
    q = [max(1, round(float(w) * _WEIGHT_QUANTUM)) for w in net_weights]
    if min(net_weights) < 0:
        raise ValueError("net weights must be non-negative")
    return q


def _csr_i64(lists: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a list-of-lists into ``(ptr, flat)`` int64 CSR arrays."""
    ptr = np.zeros(len(lists) + 1, dtype=np.int64)
    for i, lst in enumerate(lists):
        ptr[i + 1] = ptr[i] + len(lst)
    flat = np.fromiter(
        (v for lst in lists for v in lst), dtype=np.int64, count=int(ptr[-1])
    )
    return ptr, flat


@traced("par.place")
def place(
    netlist: PhysicalNetlist,
    arch: FPGAArchitecture,
    seed: int = 0,
    effort: float = 1.0,
    net_weights: Optional[Sequence[float]] = None,
    timing: Optional[TimingCost] = None,
) -> PlacementResult:
    """Simulated-annealing placement (TPLACE).

    ``effort`` scales the number of moves per temperature; values below 1
    trade quality for runtime (used by the fast benchmark configurations).

    ``net_weights`` anneals the weighted objective ``sum(weight_i * hpwl_i)``
    instead of plain HPWL.  No flow passes it: it is the hook of the
    candidate-anneal timing placer kept as a test oracle
    (``tests/oracles.py``), and ``tests/test_native.py`` checks the weighted
    native and Python trajectories against each other through it.  Weights
    are quantized to integers (see :func:`_quantize_weights`), so every bbox
    update simply scales its net's cost by an integer and the cost
    accounting stays exact; :attr:`PlacementResult.cost` still reports the
    *unweighted* integer HPWL and the weighted objective lands in
    :attr:`PlacementResult.objective_cost`.

    ``timing`` (exclusive with ``net_weights``) switches the anneal to the
    incremental-STA objective ``Q * HPWL + sum_c w_c * dist_c`` over the
    timing graph's connections (see :class:`TimingCost`): each move also
    re-prices the moved blocks' connections -- O(pins moved), like the bbox
    updates -- and the integer criticality weights ``w_c`` are re-timed
    from the live coordinates every half temperature step of accepted
    moves.

    Randomness: the initial placement comes from :func:`random_placement`
    with the same seed; moves draw 63-bit integers (reduced modulo the
    needed range -- the bias is below ``range / 2**63``, irrelevant to
    annealing) and acceptance draws uniforms, both fetched in blocks of
    ``2**14`` from ``numpy.random.Generator(PCG64(seed))``.  A (netlist,
    arch, seed) triple is fully reproducible on either backend.
    """
    if timing is not None and net_weights is not None:
        raise ValueError("timing and net_weights are mutually exclusive")
    gen = np.random.Generator(np.random.PCG64(seed))
    placement = random_placement(netlist, arch, seed=seed)
    num_nets = len(netlist.nets)
    weighted = net_weights is not None or timing is not None
    if timing is not None:
        # Scale the HPWL term by the weight quantum so the quantized
        # integer timing weights blend at the fixed tradeoff.
        wq = [_WEIGHT_QUANTUM] * num_nets
    elif net_weights is not None:
        wq = _quantize_weights(net_weights, num_nets)
    else:
        wq = [1] * num_nets

    logic_blocks = [b.id for b in netlist.blocks if b.needs_logic_site]
    io_blocks = [b.id for b in netlist.blocks if b.kind == "io"]
    logic_sites = list(arch.clb_sites())
    io_sites = list(arch.io_sites())
    all_sites = logic_sites + io_sites
    site_index = {s.as_tuple(): i for i, s in enumerate(all_sites)}
    site_x = [s.x for s in all_sites]
    site_y = [s.y for s in all_sites]

    num_block_ids = len(netlist.blocks)
    block_gsite = [-1] * num_block_ids
    block_x = [0] * num_block_ids
    block_y = [0] * num_block_ids
    occupant = [-1] * len(all_sites)  # -1 = empty site
    for bid, site in placement.block_site.items():
        gi = site_index[site.as_tuple()]
        block_gsite[bid] = gi
        block_x[bid] = site.x
        block_y[bid] = site.y
        occupant[gi] = bid

    # -- per-net cached bounding boxes -----------------------------------------
    # bb[nid] = (xmin, xmax, ymin, ymax, n_xmin, n_xmax, n_ymin, n_ymax)
    net_pins: List[List[int]] = []
    nets_of_block: List[List[int]] = [[] for _ in range(num_block_ids)]
    bb: List[Tuple[int, int, int, int, int, int, int, int]] = []
    net_cost: List[int] = []
    total_cost = 0

    def _bbox_rescan(nid: int) -> Tuple[int, int, int, int, int, int, int, int]:
        xs = [block_x[b] for b in net_pins[nid]]
        ys = [block_y[b] for b in net_pins[nid]]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        return (
            xmin, xmax, ymin, ymax, xs.count(xmin), xs.count(xmax), ys.count(ymin), ys.count(ymax)
        )

    for net in netlist.nets:
        # Deduplicate pins: a repeated block contributes nothing to the bbox
        # but would corrupt the boundary counts of the O(1) update below
        # (one move must remove exactly one pin from a boundary).
        net_pins.append(list(dict.fromkeys([net.driver] + net.sinks)))
        for b in {net.driver, *net.sinks}:
            nets_of_block[b].append(net.id)
        nb = _bbox_rescan(net.id)
        bb.append(nb)
        cost = wq[net.id] * ((nb[1] - nb[0]) + (nb[3] - nb[2]))
        net_cost.append(cost)
        total_cost += cost
    initial_cost = total_cost
    initial_hpwl = hpwl(netlist, placement) if weighted else initial_cost

    groups: List[Tuple[List[int], List[int], int, int]] = []
    if logic_blocks:
        gidx = list(range(len(logic_sites)))
        groups.append((logic_blocks, gidx, len(logic_blocks), len(gidx)))
    if io_blocks:
        gidx = list(range(len(logic_sites), len(all_sites)))
        groups.append((io_blocks, gidx, len(io_blocks), len(gidx)))
    if not groups:  # an empty design: nothing to place
        return PlacementResult(placement, 0, 0, 0, 0, 0)
    num_groups = len(groups)
    logic_group = bool(logic_blocks)
    width, height = arch.width, arch.height
    moves_per_temp = _moves_per_temperature(len(logic_blocks) + len(io_blocks), effort)
    retime_every = max(1, moves_per_temp // 2)

    # Incremental-STA objective: flat per-connection distance/weight lists.
    # A move re-prices only the moved blocks' connections (O(pins moved),
    # like the bbox updates); the integer criticality weights are re-timed
    # every retime_every accepted moves.
    t_src: List[int] = []
    t_dst: List[int] = []
    conns_of_block: List[List[int]] = [[] for _ in range(num_block_ids)]
    c_dist: List[int] = []
    cwq: List[int] = []
    nconn = timing_cost = 0
    if timing is not None:
        t_src, t_dst = timing.conn_src, timing.conn_dst
        nconn = len(t_src)
        for ci, (s, d) in enumerate(zip(t_src, t_dst)):
            conns_of_block[s].append(ci)
            if d != s:
                conns_of_block[d].append(ci)
            dist = abs(block_x[s] - block_x[d]) + abs(block_y[s] - block_y[d])
            c_dist.append(dist if dist > 0 else 1)

        def retime(xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
            """Integer criticality weights re-timed at block coordinates ``xs``/``ys``."""
            crit = np.asarray(timing.criticality(xs, ys), dtype=np.float64)
            if crit.shape != (nconn,):
                raise ValueError(f"timing criticality returned {crit.shape}, expected ({nconn},)")
            return np.rint(_WEIGHT_QUANTUM * _TIMING_TRADEOFF * crit).astype(np.int64)

        cwq = retime(block_x, block_y).tolist()
        timing_cost = sum(w * d for w, d in zip(cwq, c_dist))

    # Both move steps start from these buffers (the native one shares the
    # arrays, the Python twin reads them as lists) and refill them from
    # ``gen`` at the same points, so both consume one PCG64 stream.
    ibuf_arr = _integer_draws(gen)
    ubuf_arr = gen.random(_RBUF)
    moves_attempted = 0

    nat = annealer_kernel()
    if nat is not None:
        # -- the compiled move step (see repro.native.annealer) -------------
        # The C loop keeps every cost an exact int64, calls back out to
        # refill the draw buffers at the Python twin's exact refill points
        # and to re-time, and runs the Metropolis test through the same
        # libm exp, so trajectories match move for move.
        block_gsite_a = np.asarray(block_gsite, dtype=np.int64)
        block_x_a = np.asarray(block_x, dtype=np.int64)
        block_y_a = np.asarray(block_y, dtype=np.int64)
        pins_ptr, pins_flat = _csr_i64(net_pins)
        nb_ptr, nb_flat = _csr_i64(nets_of_block)
        cb_ptr, cb_flat = _csr_i64(conns_of_block)
        cwq_a = np.asarray(cwq, dtype=np.int64)
        # The C loop reads the second group and the timing arrays only when
        # they exist; empty arrays stand in for them otherwise.
        g1 = groups[1] if num_groups > 1 else ([], [], 1, 1)
        istate = np.zeros(ISTATE_LEN, dtype=np.int64)
        istate[ISTATE["total_cost"]] = total_cost
        istate[ISTATE["timing_cost"]] = timing_cost
        nat_exc: List[BaseException] = []

        def refill(kind: int) -> None:
            # Runs under repro_anneal_run; exceptions cannot cross the C
            # frame, so stash + abort, then re-raise once the call returns.
            try:
                if kind == 0:
                    ibuf_arr[:] = _integer_draws(gen)
                elif kind == 1:
                    ubuf_arr[:] = gen.random(_RBUF)
                else:
                    cwq_a[:] = retime(block_x_a.tolist(), block_y_a.tolist())
            except BaseException as e:  # noqa: BLE001 -- re-raised by step
                nat_exc.append(e)
                istate[ISTATE["abort"]] = 1

        nat.bind(
            {
                "block_gsite": block_gsite_a, "block_x": block_x_a,
                "block_y": block_y_a,
                "occupant": np.asarray(occupant, dtype=np.int64),
                "site_x": np.asarray(site_x, dtype=np.int64),
                "site_y": np.asarray(site_y, dtype=np.int64),
                "pins_ptr": pins_ptr, "pins": pins_flat,
                "nb_ptr": nb_ptr, "nb": nb_flat,
                "bb": np.array(bb, dtype=np.int64).reshape(num_nets * 8),
                "net_cost": np.asarray(net_cost, dtype=np.int64),
                "wq": np.asarray(wq, dtype=np.int64),
                "gblocks0": np.asarray(groups[0][0], dtype=np.int64),
                "gsites0": np.asarray(groups[0][1], dtype=np.int64),
                "gblocks1": np.asarray(g1[0], dtype=np.int64),
                "gsites1": np.asarray(g1[1], dtype=np.int64),
                "ibuf": ibuf_arr, "ubuf": ubuf_arr,
                "t_src": np.asarray(t_src, dtype=np.int64),
                "t_dst": np.asarray(t_dst, dtype=np.int64),
                "cb_ptr": cb_ptr, "cb_conns": cb_flat,
                "c_dist": np.asarray(c_dist, dtype=np.int64),
                "cwq": cwq_a,
                "net_mark": np.zeros(num_nets, dtype=np.int64),
                "upd_nid": np.zeros(num_nets + 1, dtype=np.int64),
                "upd_bb": np.zeros(8 * (num_nets + 1), dtype=np.int64),
                "upd_cost": np.zeros(num_nets + 1, dtype=np.int64),
                "tsc_ci": np.zeros(nconn + 1, dtype=np.int64),
                "tsc_nd": np.zeros(nconn + 1, dtype=np.int64),
                "istate": istate,
            },
            {
                "nblk0": groups[0][2], "nsit0": groups[0][3],
                "nblk1": g1[2], "nsit1": g1[3],
                "num_groups": num_groups,
                "logic_group": int(logic_group),
                "width": width, "height": height, "rbuf": _RBUF,
                "has_timing": int(timing is not None),
                "nconn": nconn, "retime_every": retime_every,
            },
            refill,
        )

        def step(
            moves: int, tmax: float, range2: float, rl: int, span: int
        ) -> Tuple[int, int, int]:
            istate[ISTATE["accepted_this_temp"]] = 0
            nat.run_temperature(moves, tmax, range2, rl, span)
            if nat_exc:
                raise nat_exc[0]
            return (
                int(istate[ISTATE["accepted_this_temp"]]),
                int(istate[ISTATE["total_cost"]]),
                int(istate[ISTATE["timing_cost"]]),
            )

    else:
        # -- the Python twin of the compiled move step ----------------------
        ibuf = ibuf_arr.tolist()
        ubuf = ubuf_arr.tolist()
        ipos = upos = 0
        nets_of_block_set = [set(lst) for lst in nets_of_block]
        accepted_since_retime = 0
        t_scratch: List[Tuple[int, int]] = []
        exp = math.exp

        def _bbox_after_move(
            nid: int, ox: int, oy: int, nx: int, ny: int
        ) -> Tuple[int, int, int, int, int, int, int, int]:
            xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax = bb[nid]
            if nx != ox:
                if (ox == xmin and cxmin == 1 and nx > xmin) or (
                    ox == xmax and cxmax == 1 and nx < xmax
                ):
                    xs = [block_x[b] for b in net_pins[nid]]
                    xmin, xmax = min(xs), max(xs)
                    cxmin, cxmax = xs.count(xmin), xs.count(xmax)
                else:
                    if ox == xmin:
                        cxmin -= 1
                    if ox == xmax:
                        cxmax -= 1
                    if nx < xmin:
                        xmin, cxmin = nx, 1
                    elif nx == xmin:
                        cxmin += 1
                    if nx > xmax:
                        xmax, cxmax = nx, 1
                    elif nx == xmax:
                        cxmax += 1
            if ny != oy:
                if (oy == ymin and cymin == 1 and ny > ymin) or (
                    oy == ymax and cymax == 1 and ny < ymax
                ):
                    ys = [block_y[b] for b in net_pins[nid]]
                    ymin, ymax = min(ys), max(ys)
                    cymin, cymax = ys.count(ymin), ys.count(ymax)
                else:
                    if oy == ymin:
                        cymin -= 1
                    if oy == ymax:
                        cymax -= 1
                    if ny < ymin:
                        ymin, cymin = ny, 1
                    elif ny == ymin:
                        cymin += 1
                    if ny > ymax:
                        ymax, cymax = ny, 1
                    elif ny == ymax:
                        cymax += 1
            return (xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax)

        def step(
            moves: int, tmax: float, range2: float, rl: int, span: int
        ) -> Tuple[int, int, int]:
            nonlocal ibuf, ipos, ubuf, upos, cwq, accepted_since_retime
            nonlocal total_cost, timing_cost, moves_attempted
            accepted = 0
            for _ in range(moves):
                # Up to 10 integer draws per move (group + block + site picks).
                if ipos + 10 > _RBUF:
                    ibuf = _integer_draws(gen).tolist()
                    ipos = 0
                if num_groups == 1:
                    gi = 0
                else:
                    gi = ibuf[ipos] & 1
                    ipos += 1
                blocks, gsites, nblk, nsit = groups[gi]
                block = blocks[ibuf[ipos] % nblk]
                ipos += 1
                cur_g = block_gsite[block]
                cx = block_x[block]
                cy = block_y[block]
                if logic_group and gi == 0:
                    # Logic sites form the (1..width, 1..height) grid in
                    # column-major order, so a target inside the range-limit
                    # window is picked in O(1) as a random offset -- no
                    # rejection loop.
                    tx = cx + ibuf[ipos] % span - rl
                    ipos += 1
                    ty = cy + ibuf[ipos] % span - rl
                    ipos += 1
                    if tx < 1:
                        tx = 1
                    elif tx > width:
                        tx = width
                    if ty < 1:
                        ty = 1
                    elif ty > height:
                        ty = height
                    target_g = (tx - 1) * height + (ty - 1)
                    if target_g == cur_g:
                        continue
                else:
                    target_g = -1
                    for _try in range(8):
                        tg = gsites[ibuf[ipos] % nsit]
                        ipos += 1
                        dx = site_x[tg] - cx
                        if dx < 0:
                            dx = -dx
                        dy = site_y[tg] - cy
                        if dy < 0:
                            dy = -dy
                        if dx + dy > range2:
                            continue
                        if tg != cur_g:
                            target_g = tg
                            break
                    if target_g < 0:
                        continue
                moves_attempted += 1
                occ_block = occupant[target_g]
                nx = site_x[target_g]
                ny = site_y[target_g]

                block_x[block] = nx
                block_y[block] = ny
                if occ_block >= 0:
                    block_x[occ_block] = cx
                    block_y[occ_block] = cy
                    shared = nets_of_block_set[block] & nets_of_block_set[occ_block]
                else:
                    shared = ()

                delta = 0
                updates = []
                for nid in nets_of_block[block]:
                    if nid in shared:
                        nb = _bbox_rescan(nid)  # both endpoints moved
                    else:
                        nb = _bbox_after_move(nid, cx, cy, nx, ny)
                    cost = wq[nid] * ((nb[1] - nb[0]) + (nb[3] - nb[2]))
                    delta += cost - net_cost[nid]
                    updates.append((nid, nb, cost))
                if occ_block >= 0:
                    for nid in nets_of_block[occ_block]:
                        if nid in shared:
                            continue
                        nb = _bbox_after_move(nid, nx, ny, cx, cy)
                        cost = wq[nid] * ((nb[1] - nb[0]) + (nb[3] - nb[2]))
                        delta += cost - net_cost[nid]
                        updates.append((nid, nb, cost))

                if timing is not None:
                    # Re-price the moved blocks' connections against the
                    # tentative coordinates.
                    del t_scratch[:]
                    for mover in (block,) if occ_block < 0 else (block, occ_block):
                        for ci in conns_of_block[mover]:
                            s = t_src[ci]
                            d = t_dst[ci]
                            if mover != block and (s == block or d == block):
                                continue  # shared connection, re-priced with block
                            dx = block_x[s] - block_x[d]
                            if dx < 0:
                                dx = -dx
                            dy = block_y[s] - block_y[d]
                            if dy < 0:
                                dy = -dy
                            nd = dx + dy
                            if nd == 0:
                                nd = 1
                            delta += cwq[ci] * (nd - c_dist[ci])
                            t_scratch.append((ci, nd))

                if delta <= 0:
                    accept = True
                else:
                    if upos >= _RBUF:
                        ubuf = gen.random(_RBUF).tolist()
                        upos = 0
                    accept = ubuf[upos] < exp(-delta / tmax)
                    upos += 1
                if accept:
                    for nid, nb, cost in updates:
                        bb[nid] = nb
                        total_cost += cost - net_cost[nid]
                        net_cost[nid] = cost
                    occupant[target_g] = block
                    occupant[cur_g] = occ_block
                    block_gsite[block] = target_g
                    if occ_block >= 0:
                        block_gsite[occ_block] = cur_g
                    accepted += 1
                    if timing is not None:
                        for ci, nd in t_scratch:
                            timing_cost += cwq[ci] * (nd - c_dist[ci])
                            c_dist[ci] = nd
                        accepted_since_retime += 1
                        if accepted_since_retime >= retime_every:
                            # Re-time against the live coordinates: fresh
                            # integer weights, total re-priced (distances
                            # are maintained incrementally and stay exact).
                            accepted_since_retime = 0
                            cwq = retime(block_x, block_y).tolist()
                            timing_cost = sum(w * d for w, d in zip(cwq, c_dist))
                else:
                    block_x[block] = cx
                    block_y[block] = cy
                    if occ_block >= 0:
                        block_x[occ_block] = nx
                        block_y[occ_block] = ny
            return accepted, total_cost, timing_cost

    # -- the annealing schedule: one loop over either move step -------------
    # The timing term is part of the annealed cost, so it sets the
    # temperature scale too.
    temperature = _initial_temperature(initial_cost + timing_cost, num_nets)
    device_span = float(max(width, height))
    range_limit = device_span
    moves_accepted = 0
    temperature_steps = 0
    tl_temperature: List[float] = []
    tl_cost: List[int] = []
    tl_acceptance: List[float] = []
    while temperature_steps < 200:
        # Window half-span for the O(1) logic-site pick.
        rl = max(1, int(range_limit))
        accepted, total_cost, timing_cost = step(
            moves_per_temp, max(temperature, 1e-9), range_limit * 2, rl, 2 * rl + 1
        )
        moves_accepted += accepted
        temperature_steps += 1
        acceptance = accepted / max(1, moves_per_temp)
        tl_temperature.append(temperature)
        tl_cost.append(total_cost + timing_cost)
        tl_acceptance.append(acceptance)
        temperature = _cool(temperature, acceptance)
        range_limit = _next_range_limit(range_limit, acceptance, device_span)
        if temperature < 0.005 * (total_cost + timing_cost) / max(1, num_nets) or (
            acceptance < 0.01 and temperature_steps > 5
        ):
            break

    telemetry: Dict[str, object] = {"native": nat is not None}
    if nat is not None:
        moves_attempted = int(istate[ISTATE["attempted"]])
        block_gsite = block_gsite_a.tolist()
        # Full counter out-param snapshot from the C kernel (see
        # repro.native.annealer.istate_counters).
        telemetry["istate"] = istate_counters(istate)
    telemetry.update(
        _placement_telemetry(
            tl_temperature, tl_cost, tl_acceptance, moves_attempted, moves_accepted
        )
    )
    for bid, gi in enumerate(block_gsite):
        if gi >= 0:
            placement.block_site[bid] = all_sites[gi]
    # Report the unweighted exact-int HPWL (the metric every consumer
    # compares across objectives); a weighted or timing objective rides
    # along separately.
    return PlacementResult(
        placement=placement,
        cost=hpwl(netlist, placement) if weighted else total_cost,
        initial_cost=initial_hpwl,
        moves_attempted=moves_attempted,
        moves_accepted=moves_accepted,
        temperature_steps=temperature_steps,
        objective_cost=total_cost + timing_cost if weighted else None,
        telemetry=telemetry,
    )
