"""Golden digests: a trajectory change without an algo-version bump fails here.

The PaR cache keys placements and routes on ``PLACE_ALGO_VERSION`` /
``ROUTE_ALGO_VERSION`` (ARCHITECTURE.md invariant 1), so any change that
moves a placement site, a route tree or the routed critical path must bump
the matching version, or warm caches serve stale artifacts.  This module
pins the exact results of a few small seeded designs -- placement sites,
the default (``astar``) route forest, the timing-driven route forest and
the STA critical path of each -- against digests committed per version
pair, on both the native and the pure-Python astar backend.

After an intentional trajectory change, bump the version(s) in
``repro/par/cache.py`` and regenerate the table with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib

import numpy as np
import pytest

from repro.fpga.architecture import auto_size
from repro.fpga.device import build_device
from repro.netlist.hdl import Design
from repro.par.cache import PLACE_ALGO_VERSION, ROUTE_ALGO_VERSION
from repro.par.netlist import from_mapped_network
from repro.par.placement import place
from repro.par.routing import route
from repro.synth.optimize import optimize
from repro.techmap import map_conventional, map_parameterized
from repro.timing import analyze

#: ``(ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION) -> design -> digest``.
GOLDEN = {
    (4, 2): {
        "adder4": "ec724f58ec0e6b7680f0a55a3a157e7fd556f982c6dad26e469b7687c18d991f",
        "adder10_param": "ca9a16f1a29233b2185d0b51dbaed6a7bd07768e5499a12c76882f7c71934ec7",
        "adder16": "589564caf1005bdd5504b8dfa8bf39024d6cc0c4bcf18755f6f5305cdf750897",
    },
}


def _adder(width, param):
    d = Design("adder")
    a = d.input_bus("a", width)
    b = d.param_bus("b", width) if param else d.input_bus("b", width)
    s, co = d.adder(a, b)
    d.output_bus("s", s)
    d.output_bit("cout", co)
    opt, _ = optimize(d.circuit)
    return from_mapped_network(map_parameterized(opt) if param else map_conventional(opt))


def _auto_arch(nl, channel_width):
    return auto_size(
        nl.num_logic_blocks() + nl.num_ff_blocks(), nl.num_io_blocks(),
        channel_width=channel_width,
    )


#: name -> (adder width, parameterized?).  All place with seed 2 on a
#: channel width of 3, narrow enough that PathFinder negotiates over several
#: iterations and the timing objective reroutes critical connections, so
#: the digests move with the cost schedule, the bbox margin, the history
#: factor and the criticality blend, not only with the search order.
DESIGNS = {
    "adder4": (4, False),
    "adder10_param": (10, True),
    "adder16": (16, False),
}


def design_digest(name: str) -> str:
    """SHA-256 over the placement, both routes and both critical paths."""
    nl = _adder(*DESIGNS[name])
    arch = _auto_arch(nl, channel_width=3)
    device = build_device(arch)
    placement = place(nl, arch, seed=2, effort=0.4).placement
    h = hashlib.sha256()
    for bid in sorted(placement.block_site):
        h.update(repr((bid, placement.block_site[bid].as_tuple())).encode())
    for objective in ("wirelength", "timing"):
        result = route(nl, placement, device, kernel="astar", objective=objective)
        assert result.success, (name, objective)
        forest = result.forest
        for arr in (forest.node, forest.parent, forest.net_node_ptr):
            h.update(np.ascontiguousarray(arr, dtype="<i4").tobytes())
        cp = analyze(nl, result, device, placement=placement).critical_path_ns
        h.update(float(cp).hex().encode())
    return h.hexdigest()


@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("name", DESIGNS)
def test_golden_digest(name, backend, monkeypatch):
    if backend == "python":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    versions = (ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION)
    expected = GOLDEN.get(versions, {}).get(name)
    actual = design_digest(name)
    assert actual == expected, (
        f"{name}: placement/route/STA digest changed under (ROUTE_ALGO_VERSION, "
        f"PLACE_ALGO_VERSION) = {versions}; if the trajectory change is "
        f"intended, bump the version and regenerate "
        f"(python tests/test_golden_digests.py)"
    )


if __name__ == "__main__":
    key = (ROUTE_ALGO_VERSION, PLACE_ALGO_VERSION)
    print(f"    {key}: {{")
    for design in DESIGNS:
        print(f'        "{design}": "{design_digest(design)}",')
    print("    },")
