"""Native (compiled-C) backend for the PAR hot loops.

Small, dependency-free C kernels compiled with the system compiler at
first use (no Cython/numba/mypyc in the container) and bound with
:mod:`ctypes` over the flat arrays the Python kernels already use:

* :mod:`repro.native.astar` -- the astar router's per-net PathFinder
  loop, one call per routed net (``par/routing.py``);
* :mod:`repro.native.annealer` -- the batched annealer accept/reject
  move loop (``par/placement.py``).

Both are **bit-identical twins** of their Python kernels (same routes,
same placements, same exact-int costs), so ``ROUTE_ALGO_VERSION`` /
``PLACE_ALGO_VERSION`` and every cached artifact stay valid whichever
backend computed them.  ``REPRO_NATIVE=0``, a missing compiler, a failed
build, or the ``native.compile`` fault point all fall back to the Python
kernels transparently -- the native backend is an accelerator, never a
dependency.
"""

from __future__ import annotations

from typing import Dict

from .build import build_status, find_compiler, load_kernel, native_enabled, reset

__all__ = [
    "build_status",
    "find_compiler",
    "load_kernel",
    "native_enabled",
    "reset",
    "status",
]


def status() -> Dict[str, object]:
    """Build-cache status plus per-kernel availability (for benchmarks)."""
    from .annealer import annealer_kernel
    from .astar import astar_kernel

    astar_ok = astar_kernel() is not None
    anneal_ok = annealer_kernel() is not None
    info = build_status()
    info["astar"] = astar_ok
    info["annealer"] = anneal_ok
    return info
