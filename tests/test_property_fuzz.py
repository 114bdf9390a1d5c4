"""Bounded property-based tests over randomly generated netlists.

Two invariants the rest of the suite checks only on hand-built examples are
checked here across a small random family of designs:

* **route legality** -- a converged route overuses no routing resource,
  its forest is structurally sound, and every net's tree reaches each of
  its sinks through RR-graph edges from the net's source;
* **cache round-trip** -- serializing a routed result through the on-disk
  payload format and re-hydrating it reproduces the fresh computation
  bit-for-bit (wirelength, iterations, every route-forest array);
* **SCG specialization** -- on random small parameterized gate circuits,
  the TCONMAP network specialized for random parameter settings computes
  what the source circuit computes with those parameters fixed, on every
  input pattern, and the compiled PPC equals ``specialize_reference``.

The suite is deliberately tiny: ``max_examples`` is capped and the profile
is derandomized, so tier-1 wall time stays flat and failures replay
deterministically in CI (``REPRO_FULL=1`` widens the SCG sweep).  Skips
cleanly when Hypothesis is not installed.
"""

import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fpga.architecture import auto_size  # noqa: E402
from repro.fpga.device import build_device  # noqa: E402
from repro.par import PaRCache, PhysicalNetlist, cached_route  # noqa: E402
from repro.par.forest import FOREST_ARRAYS  # noqa: E402
from repro.par.placement import place  # noqa: E402
from repro.fpga.routing_graph import RRNodeType  # noqa: E402
from repro.par.routing import route, terminal_rr_nodes  # noqa: E402

pytestmark = pytest.mark.fuzz

BOUNDED = settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_netlist(n_blocks, driver_picks, fanout_picks):
    """A small random DAG netlist driven by the given Hypothesis draws.

    Block ``i`` is driven by some earlier block (``driver_picks[i]`` modulo
    the candidates), giving a connected acyclic design; a subset of blocks
    additionally fans out to the output IO so sink counts vary.
    """
    nl = PhysicalNetlist("fuzz")
    src = nl.add_block("pi", "io")
    blocks = [src]
    for i in range(n_blocks):
        blk = nl.add_block(f"l{i}", "clb")
        driver = blocks[driver_picks[i] % len(blocks)]
        nl.add_net(f"n{i}", driver, [blk])
        blocks.append(blk)
    out = nl.add_block("po", "io")
    sinks = [b for i, b in enumerate(blocks[1:]) if fanout_picks[i]] or [blocks[-1]]
    nl.add_net("out", blocks[-1], [s for s in sinks if s != blocks[-1]] + [out])
    nl.validate()
    return nl


netlists = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=63), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


def _placed(params, channel_width=8):
    n, drivers, fanouts = params
    nl = random_netlist(n, drivers, fanouts)
    arch = auto_size(
        nl.num_logic_blocks() + nl.num_ff_blocks(),
        nl.num_io_blocks(),
        channel_width=channel_width,
    )
    placement = place(nl, arch, seed=0, effort=0.3).placement
    return nl, placement, build_device(arch)


@BOUNDED
@given(params=netlists)
def test_astar_routes_are_legal(params):
    nl, placement, device = _placed(params)
    result = route(nl, placement, device)
    forest = result.forest
    forest.validate()
    rr = device.rr_graph
    src_of, sink_of = terminal_rr_nodes(nl, placement, rr)
    if result.success:
        # Each wire and pin carries at most its capacity in distinct nets.
        assert result.overused_nodes == 0
        users = np.zeros(rr.num_nodes, dtype=np.int64)
        for n in range(forest.num_nets):
            nodes = np.unique(forest.node[forest.net_node_ptr[n]:forest.net_node_ptr[n + 1]])
            users[nodes[rr.node_type[nodes] != RRNodeType.SINK]] += 1
        assert (users <= rr.node_capacity).all()
    nets = {net.id: net for net in nl.nets}
    assert sorted(nets) == forest.net_id.tolist()
    for n, nid in enumerate(forest.net_id.tolist()):
        source = int(forest.net_source[n])
        assert source == src_of[nets[nid].driver]
        conns = range(forest.net_ptr[n], forest.net_ptr[n + 1])
        assert {int(forest.conn_sink[c]) for c in conns} == {
            sink_of[b] for b in nets[nid].sinks
        }
        # Every sink's parent chain is a path of RR edges back to the source.
        for c in conns:
            pos = int(forest.conn_sink_pos[c])
            assert int(forest.node[pos]) == int(forest.conn_sink[c])
            while pos != -1:
                parent = int(forest.parent[pos])
                above = source if parent == -1 else int(forest.node[parent])
                out = rr.edge_dst[rr.edge_ptr[above]:rr.edge_ptr[above + 1]]
                assert int(forest.node[pos]) in out.tolist()
                pos = parent


@BOUNDED
@given(params=netlists)
def test_cache_round_trip_equals_fresh_compute(params, tmp_path_factory):
    nl, placement, device = _placed(params)
    cache = PaRCache(tmp_path_factory.mktemp("fuzz-cache"))
    fresh = cached_route(nl, placement, device, cache=cache)
    rehydrated = cached_route(nl, placement, device, cache=cache)
    assert rehydrated.success == fresh.success
    assert rehydrated.wirelength == fresh.wirelength
    assert rehydrated.forest.num_rr_nodes == fresh.forest.num_rr_nodes
    for name in FOREST_ARRAYS:
        mine, want = getattr(rehydrated.forest, name), getattr(fresh.forest, name)
        assert mine.dtype == want.dtype and np.array_equal(mine, want), name
    assert rehydrated.routes == fresh.routes
    if fresh.success:
        # A cacheable (converged) route must be served from disk the
        # second time, not recomputed.
        assert cache.stats()["hits"] == 1
        assert rehydrated.iterations == fresh.iterations
        rehydrated.forest.validate()


# ---------------------------------------------------------------------------
# Frame-image delta algebra on fuzzed designs
# ---------------------------------------------------------------------------

from repro.reconfig.context import routing_bitstream  # noqa: E402
from repro.reconfig.frames import (  # noqa: E402
    apply_delta,
    diff_images,
    union_frames,
)


@BOUNDED
@given(params=netlists)
def test_frame_delta_round_trip_on_fuzzed_designs(params):
    """``apply_delta(a, diff_images(a, b)) == b`` for real rendered images.

    The reconfiguration scheduler and the service's bitstream digests both
    lean on this algebra; here it is checked on frame images grown from
    fuzzer netlists (two placements of the same design = two contexts),
    not hand-picked dicts.
    """
    nl, placement, device = _placed(params)
    base = routing_bitstream(route(nl, placement, device).forest, device).frame_image()
    other = place(nl, device.arch, seed=1, effort=0.3).placement
    target = routing_bitstream(route(nl, other, device).forest, device).frame_image()

    # The delta is an exact patch, in both directions.
    assert apply_delta(base, diff_images(base, target)) == target
    assert apply_delta(target, diff_images(target, base)) == base
    # Canonical images never store all-zero frames, so patched images
    # stay canonical: no zero values survive an apply.
    assert all(apply_delta(base, diff_images(base, target)).values())
    # Self-delta is empty; the diff never writes more than the full path.
    assert diff_images(base, base).writes == ()
    assert apply_delta(base, diff_images(base, base)) == base
    assert diff_images(base, target).num_frames <= union_frames(base, target)


# ---------------------------------------------------------------------------
# SCG specialization on fuzzed parameterized designs
# ---------------------------------------------------------------------------

from oracles import specialize_reference  # noqa: E402
from repro.netlist.circuit import Circuit, Op  # noqa: E402
from repro.netlist.simulate import simulate_patterns  # noqa: E402
from repro.techmap import map_parameterized  # noqa: E402

SCG_OPS = (Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR, Op.XNOR, Op.NOT, Op.MUX)
SCG_SETTINGS = 3  #: parameter settings checked per fuzzed design
SCG_BOUNDED = settings(
    BOUNDED,
    max_examples=200 if os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")
    else 12,
)


def random_param_circuit(num_inputs, num_params, gates):
    """A gate DAG over ``x*`` inputs and ``p*`` parameters from Hypothesis draws.

    Each gate takes its fanins from earlier nodes (picks modulo the node
    count); the last two gates drive the outputs.
    """
    c = Circuit("scgfuzz")
    nodes = [c.add_input(f"x{i}") for i in range(num_inputs)]
    nodes += [c.add_param(f"p{i}") for i in range(num_params)]
    for op, picks in gates:
        arity = {Op.NOT: 1, Op.MUX: 3}.get(op, 2)
        nodes.append(c.gate(op, *(nodes[k % len(nodes)] for k in picks[:arity])))
    for k, nid in enumerate(nodes[-2:]):
        c.add_output(f"y{k}", nid)
    return c


param_designs = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.tuples(
            st.sampled_from(SCG_OPS),
            st.lists(st.integers(min_value=0, max_value=63), min_size=3, max_size=3),
        ),
        min_size=2,
        max_size=14,
    ),
    # Per setting and parameter: 0, 1, or None (left out, reads 0).
    st.lists(
        st.lists(st.sampled_from((0, 1, None)), min_size=4, max_size=4),
        min_size=SCG_SETTINGS,
        max_size=SCG_SETTINGS,
    ),
)


@SCG_BOUNDED
@given(design=param_designs)
def test_specialized_network_equals_source_with_fixed_params(design):
    num_inputs, num_params, gates, draws = design
    circuit = random_param_circuit(num_inputs, num_params, gates)
    network = map_parameterized(circuit)
    source_pid = {circuit.names[p]: p for p in circuit.param_ids()}
    mapped_pid = {network.source.names[p]: p for p in network.source.param_ids()}
    num_patterns = 1 << num_inputs
    packed = {
        x: sum(1 << p for p in range(num_patterns) if (p >> i) & 1)
        for i, x in enumerate(circuit.input_ids())
    }
    mask = (1 << num_patterns) - 1
    for draw in draws:
        fixed = {f"p{i}": v for i, v in enumerate(draw[:num_params]) if v is not None}
        golden = simulate_patterns(
            circuit, packed, num_patterns,
            {source_pid[name]: mask if v else 0 for name, v in fixed.items()},
        )
        param_values = {mapped_pid[name]: v for name, v in fixed.items() if name in mapped_pid}
        spec = network.specialize(param_values)
        ref = specialize_reference(network, param_values)
        assert spec.lut_configs == ref.lut_configs
        assert spec.tcon_routes == ref.tcon_routes
        for p in range(num_patterns):
            got = spec.evaluate({f"x{i}": (p >> i) & 1 for i in range(num_inputs)})
            for name, nid in circuit.outputs.items():
                assert got[name] == (golden[nid] >> p) & 1, (name, p, fixed)
