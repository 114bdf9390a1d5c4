"""Native (compiled-C) backend: build cache, graceful fallback, bit-identity.

The contract under test (see ``src/repro/native/``):

* the build cache content-addresses compiled kernels (source + flags +
  compiler version) and memoizes loads per process;
* every failure mode -- ``REPRO_NATIVE=0``, no compiler on PATH, a failed
  compile, the ``native.compile`` fault point -- degrades to the Python
  kernels with the flow fully functional;
* the compiled astar net loop and annealer move loop are
  **bit-identical twins** of their Python kernels: same routes, same
  placements, same exact-int costs and counters, across the bench seeds,
  in wirelength, weighted, and timing modes.  This is what keeps
  ``ROUTE_ALGO_VERSION`` / ``PLACE_ALGO_VERSION`` and the on-disk cache
  backend-independent.
"""

import ctypes
import dataclasses
import os
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.native import build as native_build
from repro.native import status as native_status
from repro.native.annealer import annealer_kernel
from repro.native.astar import astar_kernel
from repro.netlist.hdl import Design
from repro.par.netlist import PhysicalNetlist, from_mapped_network
from repro.par.flow import timing_driven_placement
from repro.par.placement import TimingCost, hpwl, place
from repro.par.routing import route, routing_to_payload
from repro.synth.optimize import optimize
from repro.techmap import map_conventional
from repro.util import FaultPlan, fault_plan

HAS_CC = native_build.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")

BENCH_SEEDS = [0, 1, 2, 3, 4]  # the bench_hotpaths.py PLACE_SEEDS


@contextmanager
def python_twins():
    """Force the pure-Python kernels (``REPRO_NATIVE=0``) inside the block."""
    prev = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if prev is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = prev


@pytest.fixture(autouse=True)
def _native_on(monkeypatch):
    """Run this module with the backend enabled regardless of ambient env."""
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    with fault_plan(None):
        yield


def adder_network(width=4):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_conventional(opt)


def chain_netlist(n_blocks=6):
    nl = PhysicalNetlist("chain")
    src = nl.add_block("pi", "io")
    prev = src
    for i in range(n_blocks):
        blk = nl.add_block(f"l{i}", "clb")
        nl.add_net(f"n{i}", prev, [blk])
        prev = blk
    out = nl.add_block("po", "io")
    nl.add_net("out", prev, [out])
    nl.validate()
    return nl


@pytest.fixture(scope="module")
def workload():
    """One placed adder design, shared across the identity tests."""
    net = adder_network(4)
    nl = from_mapped_network(net)
    arch = auto_size(nl.num_logic_blocks(), nl.num_io_blocks(), channel_width=6)
    device = build_device(arch)
    placement = place(nl, arch, seed=0, effort=0.4).placement
    return nl, arch, device, placement


TINY_SRC = """
#include <stdint.h>
int64_t repro_tiny(int64_t x) { return x + 1; }
"""

TINY_SRC_V2 = """
#include <stdint.h>
int64_t repro_tiny(int64_t x) { return x + 2; }
"""

BROKEN_SRC = "this is not C\n"


@needs_cc
class TestBuildCache:
    def test_compile_memo_and_disk_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native_build.reset()
        lib = native_build.load_kernel("tiny", TINY_SRC)
        assert lib is not None
        fn = lib.repro_tiny
        fn.argtypes = [ctypes.c_int64]
        fn.restype = ctypes.c_int64
        assert fn(41) == 42
        objects = list(tmp_path.glob("tiny-*.so"))
        assert len(objects) == 1
        # Same process: memoized, same CDLL object back.
        assert native_build.load_kernel("tiny", TINY_SRC) is lib
        # Fresh process simulated by reset(): the .so is reused, not rebuilt.
        before = objects[0].stat().st_mtime_ns
        native_build.reset()
        lib2 = native_build.load_kernel("tiny", TINY_SRC)
        assert lib2 is not None
        assert objects[0].stat().st_mtime_ns == before
        native_build.reset()

    def test_source_change_misses_to_new_object(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native_build.reset()
        assert native_build.load_kernel("tiny", TINY_SRC) is not None
        assert native_build.load_kernel("tiny", TINY_SRC_V2) is not None
        assert len(list(tmp_path.glob("tiny-*.so"))) == 2
        native_build.reset()

    def test_stale_object_is_rebuilt(self, tmp_path, monkeypatch):
        # Plant a corrupted cache entry at the exact content-addressed path
        # *before* any load, simulating a truncated write by a previous
        # process.  (Corrupting a .so that is already dlopen-ed in this
        # process would invalidate the live mapping instead.)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native_build.reset()
        cc = native_build.find_compiler()
        digest = native_build.source_digest(
            TINY_SRC, native_build._compiler_version(cc)
        )
        stale = tmp_path / f"tiny-{digest[:16]}.so"
        stale.write_bytes(b"truncated garbage")
        lib = native_build.load_kernel("tiny", TINY_SRC)
        assert lib is not None
        fn = lib.repro_tiny
        fn.argtypes = [ctypes.c_int64]
        fn.restype = ctypes.c_int64
        assert fn(1) == 2
        native_build.reset()

    def test_failed_build_warns_once_then_stays_python(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native_build.reset()
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert native_build.load_kernel("broken", BROKEN_SRC) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert native_build.load_kernel("broken", BROKEN_SRC) is None
        native_build.reset()


class TestFallback:
    def test_env_gate_disables_backend(self):
        with python_twins():
            assert not native_build.native_enabled()
            assert astar_kernel() is None
            assert annealer_kernel() is None
            st = native_status()
            assert st["enabled"] is False
            assert st["astar"] is False and st["annealer"] is False

    def test_native_compile_fault_point(self):
        with fault_plan(FaultPlan.from_spec("native.compile=fail:2")):
            assert astar_kernel() is None
            assert annealer_kernel() is None
        # The plan is exhausted/uninstalled: loads succeed again (given a
        # compiler; otherwise they stay None, which is also correct).
        if HAS_CC:
            assert astar_kernel() is not None

    def test_no_compiler_on_path(self, monkeypatch):
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        assert astar_kernel() is None
        assert annealer_kernel() is None
        assert native_status()["compiler"] is None

    def test_flow_works_without_compiler(self, monkeypatch):
        """Placement + routing end-to-end with the compiler lookup failing."""
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        nl = chain_netlist(6)
        arch = auto_size(
            nl.num_logic_blocks() + nl.num_ff_blocks(),
            nl.num_io_blocks(),
            channel_width=6,
        )
        device = build_device(arch)
        result = place(nl, arch, seed=1, effort=0.4)
        assert result.cost == hpwl(nl, result.placement)
        routed = route(nl, result.placement, device)
        assert routed.success

    def test_fault_injected_flow_still_routes(self):
        with fault_plan(FaultPlan.from_spec("native.compile=fail:100")):
            nl = chain_netlist(5)
            arch = auto_size(
                nl.num_logic_blocks() + nl.num_ff_blocks(),
                nl.num_io_blocks(),
                channel_width=6,
            )
            device = build_device(arch)
            placement = place(nl, arch, seed=0, effort=0.4)
            routed = route(nl, placement.placement, device)
            assert routed.success


def _routes_equal(a, b):
    if set(a.routes) != set(b.routes):
        return False
    return all(a.routes[k].nodes == r.nodes for k, r in b.routes.items())


@needs_cc
class TestAstarBitIdentity:
    def test_routes_identical_across_seeds(self, workload):
        nl, arch, device, _ = workload
        for seed in BENCH_SEEDS:
            placement = place(nl, arch, seed=seed, effort=0.3).placement
            nat = route(nl, placement, device)
            assert nat.success
            with python_twins():
                py = route(nl, placement, device)
            assert nat.wirelength == py.wirelength, seed
            assert nat.iterations == py.iterations, seed
            assert _routes_equal(nat, py), seed

    def test_forest_payload_identical(self, workload):
        """The fragment arrays emitted during native backtrace match the
        Python path's bit for bit (same cache payload)."""
        nl, _arch, device, placement = workload
        nat = route(nl, placement, device)
        with python_twins():
            py = route(nl, placement, device)
        assert routing_to_payload(nat) == routing_to_payload(py)

    def test_timing_objective_identical(self, workload):
        nl, _arch, device, placement = workload
        nat = route(nl, placement, device, objective="timing")
        with python_twins():
            py = route(nl, placement, device, objective="timing")
        assert nat.success == py.success
        assert nat.wirelength == py.wirelength
        assert _routes_equal(nat, py)


@needs_cc
def test_bind_graph_rejects_a_wrong_dtype(workload):
    """The kernel reads node_x as int16: a graph that breaks the dtype
    contract is refused before its pointer is bound."""
    rr = workload[2].rr_graph
    wide = dataclasses.replace(rr, node_x=rr.node_x.astype(np.int64))
    with pytest.raises(TypeError, match="int16"):
        astar_kernel().bind_graph(wide, 1.1, 1.0, 3)


@needs_cc
class TestAnnealerBitIdentity:
    def _identical(self, a, b):
        assert a.cost == b.cost
        assert a.initial_cost == b.initial_cost
        assert a.moves_attempted == b.moves_attempted
        assert a.moves_accepted == b.moves_accepted
        assert a.temperature_steps == b.temperature_steps
        assert a.objective_cost == b.objective_cost
        sites_a = {k: v.as_tuple() for k, v in a.placement.block_site.items()}
        sites_b = {k: v.as_tuple() for k, v in b.placement.block_site.items()}
        assert sites_a == sites_b
        # the schedule itself: every temperature step annealed at the same
        # temperature, reached the same cost and accepted the same share
        for key in ("temperature", "cost", "acceptance"):
            assert a.telemetry[key] == b.telemetry[key], key

    def test_plain_trajectories_identical_across_seeds(self, workload):
        nl, arch, _device, _ = workload
        for seed in BENCH_SEEDS:
            nat = place(nl, arch, seed=seed, effort=0.3)
            with python_twins():
                py = place(nl, arch, seed=seed, effort=0.3)
            self._identical(nat, py)

    def test_weighted_trajectories_identical(self, workload):
        nl, arch, _device, _ = workload
        weights = [1.0 + 2.0 * (i % 3) for i in range(len(nl.nets))]
        for seed in BENCH_SEEDS[:2]:
            nat = place(nl, arch, seed=seed, effort=0.3, net_weights=weights)
            with python_twins():
                py = place(nl, arch, seed=seed, effort=0.3, net_weights=weights)
            self._identical(nat, py)

    def test_timing_trajectories_identical(self, workload):
        """The retime callback fires mid-loop from C; trajectories (and the
        exact-int timing costs) must still match the Python twin."""
        nl, arch, _device, _ = workload
        for seed in BENCH_SEEDS[:2]:
            nat = timing_driven_placement(nl, arch, seed=seed, effort=0.3)
            with python_twins():
                py = timing_driven_placement(nl, arch, seed=seed, effort=0.3)
            self._identical(nat, py)

    def test_callback_exception_propagates(self, workload):
        """An exception inside the retime callback must abort the C loop and
        re-raise in Python, not crash or hang.  The callback's first call
        (set-up) succeeds, so the raise comes from inside the C loop."""
        nl, arch, _device, _ = workload
        tc, calls = flaky_timing_cost(nl, boom)
        with pytest.raises(RuntimeError, match="boom from retime"):
            place(nl, arch, seed=0, effort=0.3, timing=tc)
        assert calls == [(list, list)] * 2


def boom():
    raise RuntimeError("boom from retime")


def flaky_timing_cost(nl, later):
    """A timing objective whose criticality callback is well formed on its
    first call (the set-up re-time) and returns ``later()`` from then on,
    i.e. inside the move loop.  Returns the cost and the types of the
    coordinates each call received."""
    conn_src = [n.driver for n in nl.nets for _ in n.sinks]
    conn_dst = [s for n in nl.nets for s in n.sinks]
    calls = []

    def criticality(block_x, block_y):
        calls.append((type(block_x), type(block_y)))
        return [0.5] * len(conn_src) if len(calls) == 1 else later()

    return TimingCost(conn_src, conn_dst, criticality), calls


class TestRetimeCallback:
    """A misbehaving retime callback fails the anneal the same way on
    either backend (the Python twin needs no compiler)."""

    @pytest.fixture(params=[pytest.param("native", marks=needs_cc), "python"])
    def backend(self, request):
        if request.param == "python":
            with python_twins():
                yield request.param
        else:
            yield request.param

    def test_wrong_shape_raises(self, workload, backend):
        nl, arch, _device, _ = workload
        tc, calls = flaky_timing_cost(nl, lambda: [0.5])
        nconn = len(tc.conn_src)
        match = rf"timing criticality returned \(1,\), expected \({nconn},\)"
        with pytest.raises(ValueError, match=match):
            place(nl, arch, seed=0, effort=0.3, timing=tc)
        assert calls == [(list, list)] * 2

    def test_callback_exception_propagates_on_python_twin(self, workload):
        nl, arch, _device, _ = workload
        tc, calls = flaky_timing_cost(nl, boom)
        with python_twins(), pytest.raises(RuntimeError, match="boom from retime"):
            place(nl, arch, seed=0, effort=0.3, timing=tc)
        assert calls == [(list, list)] * 2
