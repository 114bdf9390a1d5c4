"""Golden digests: a trajectory change without an algo-version bump fails here.

The PaR cache keys placements and routes on ``PLACE_ALGO_VERSION`` /
``ROUTE_ALGO_VERSION`` (ARCHITECTURE.md invariant 1), so any change that
moves a placement site, a route tree or the routed critical path must bump
the matching version, or warm caches serve stale artifacts.  This module
pins the exact results of a few small seeded designs -- placement sites,
the route forest and its STA critical path -- against digests committed
per version pair, on both the native and the pure-Python backends.  One more digest
covers a default :func:`~repro.par.flow.place_and_route` call end to end
(placement sites, route forest, critical path), so flipping a flow-level
default -- not just a kernel -- also needs a version bump.  Another pins
the serial :func:`~repro.par.metrics.minimum_channel_width` search on a
fixed placement: its probe sequence, each probe's router iterations and
the width it finds (``mincw_adder16``'s search includes a probe the
routing-failure predictor stops, so its iteration count pins the predictor).

After an intentional trajectory change, bump the version(s) in
``repro/par/cache.py`` and regenerate the table with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.netlist.hdl import Design
from repro.par import metrics as par_metrics
from repro.par.cache import PLACE_ALGO_VERSION, ROUTE_ALGO_VERSION
from repro.par.flow import place_and_route
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.routing import route
from repro.synth.optimize import optimize
from repro.techmap import map_conventional, map_parameterized
from repro.timing import analyze

#: ``(ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION) -> design -> digest``.
GOLDEN = {
    (7, 3): {
        "adder4": "0a7caa1448815724037dbf92214814885a27afa22727b2ee7bd03ef3ccfbfb06",
        "adder10_param": "d1a3e26c860d5d828920f49596fdfea9afc0c2f30fc7147a728bc74cca5ce517",
        "adder16": "6b7f1a2321343eca7dd086daa8e3ab2dd9109c9c85d278329a653cab6c01ca91",
        "flow_adder10_param": "550492f45b88b07962d27277a1a5b88be76cde9680dc07d760b358368547cb09",
        "mincw_adder10_param": "a9b761f1d182999c9190cb6d7741b7619e2bb44cb89a35cd9c293cf15c594660",
        "mincw_adder16": "d976259e1550164450e99d0548639fa88ded6afbfa5018aab5eb77e5cad9545f",
    },
}


def _adder_network(width, param):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.param_bus("b", width) if param else d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return map_parameterized(opt) if param else map_conventional(opt)


def _auto_arch(nl, channel_width):
    return auto_size(
        nl.num_logic_blocks() + nl.num_ff_blocks(), nl.num_io_blocks(),
        channel_width=channel_width,
    )


#: name -> (adder width, parameterized?).  All place with seed 2 on a
#: channel width of 3, narrow enough that PathFinder negotiates over several
#: iterations, so the digests move with the cost schedule, the bbox
#: margin and the history factor, not only with the search order.
DESIGNS = {
    "adder4": (4, False),
    "adder10_param": (10, True),
    "adder16": (16, False),
}


#: Flow-level digest name -> design run through a default place_and_route.
FLOWS = {"flow_adder10_param": "adder10_param"}

#: Min-CW digest name -> design whose seeded placement is width-searched.
#: ``mincw_adder16``'s W=2 probe is stopped by the routing-failure predictor.
MIN_CW = {"mincw_adder10_param": "adder10_param", "mincw_adder16": "adder16"}


def _hash_placement(h, placement) -> None:
    for bid in sorted(placement.block_site):
        h.update(repr((bid, placement.block_site[bid].as_tuple())).encode())


def _hash_route(h, result, cp: float) -> None:
    forest = result.forest
    for arr in (forest.node, forest.parent, forest.net_node_ptr):
        h.update(np.ascontiguousarray(arr, dtype="<i4").tobytes())
    h.update(float(cp).hex().encode())


def design_digest(name: str) -> str:
    """SHA-256 over the placement, its route and the routed critical path."""
    nl = from_mapped_network(_adder_network(*DESIGNS[name]))
    arch = _auto_arch(nl, channel_width=3)
    device = build_device(arch)
    placement = place(nl, arch, seed=2, effort=0.4).placement
    h = hashlib.sha256()
    _hash_placement(h, placement)
    result = route(nl, placement, device)
    assert result.success, name
    _hash_route(h, result, analyze(nl, result, device, placement=placement).critical_path_ns)
    return h.hexdigest()


def flow_digest(name: str) -> str:
    """SHA-256 over a default place_and_route: sites, route forest, critical path.

    Only the design, the seed and the (auto-sized) channel width are given;
    every kernel, effort and objective is the flow's default.
    """
    par = place_and_route(_adder_network(*DESIGNS[FLOWS[name]]), channel_width=3, seed=2)
    assert par.routing.success, name
    h = hashlib.sha256()
    _hash_placement(h, par.placement.placement)
    _hash_route(h, par.routing, par.sta.critical_path_ns)
    return h.hexdigest()


def mincw_digest(name: str) -> str:
    """SHA-256 over a default minimum_channel_width search on a fixed placement.

    Hashes the probe sequence the bisection took -- every probed width with
    its outcome and router iteration count -- plus the found width and its
    wirelength, so a change to the search order or the probe budget fails
    here even when the found width survives it.
    """
    nl = from_mapped_network(_adder_network(*DESIGNS[MIN_CW[name]]))
    arch = _auto_arch(nl, channel_width=3)
    placement = place(nl, arch, seed=2, effort=0.4).placement
    iterations = {}
    probe_route = par_metrics.route

    def recording_route(netlist, placement, device, **kwargs):
        result = probe_route(netlist, placement, device, **kwargs)
        iterations[device.arch.channel_width] = result.iterations
        return result

    with mock.patch.object(par_metrics, "route", recording_route):
        result = par_metrics.minimum_channel_width(nl, placement, arch)
    h = hashlib.sha256()
    for width, ok in sorted(result.attempts.items()):
        h.update(repr((width, ok, iterations[width])).encode())
    h.update(repr((result.min_channel_width, result.wirelength_at_min)).encode())
    return h.hexdigest()


def digest(name: str) -> str:
    if name in FLOWS:
        return flow_digest(name)
    if name in MIN_CW:
        return mincw_digest(name)
    return design_digest(name)


@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("name", [*DESIGNS, *FLOWS, *MIN_CW])
def test_golden_digest(name, backend, monkeypatch):
    monkeypatch.delenv("REPRO_PAR_CACHE", raising=False)  # compute, never hydrate
    if backend == "python":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    versions = (ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION)
    expected = GOLDEN.get(versions, {}).get(name)
    actual = digest(name)
    assert actual == expected, (
        f"{name}: placement/route/STA digest changed under (ROUTE_ALGO_VERSION, "
        f"PLACE_ALGO_VERSION) = {versions}; if the trajectory change is "
        f"intended, bump the version and regenerate "
        f"(python tests/test_golden_digests.py)"
    )


if __name__ == "__main__":
    key = (ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION)
    print(f"    {key}: {{")
    for name in [*DESIGNS, *FLOWS, *MIN_CW]:
        print(f'        "{name}": "{digest(name)}",')
    print("    },")
