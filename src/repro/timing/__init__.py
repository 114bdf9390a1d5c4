"""Static timing analysis over placed-and-routed physical netlists.

The subsystem has three layers:

* :mod:`repro.timing.graph` -- the levelized timing graph: one timing node
  per physical block, one timing edge per routed connection (net driver ->
  net sink), all stored as flat NumPy arrays grouped by topological level so
  the arrival/required scans run as a handful of vector operations per
  level.
* :mod:`repro.timing.delays` -- connection-delay extraction: exact per-sink
  delays (and wire/pin element counts) scanned out of the routing result's
  route forest against the architecture's per-resource delay model
  (:attr:`repro.fpga.routing_graph.RRGraph.node_delay_ns`) and scattered
  onto the timing edges through the one forest-to-edge
  :class:`~repro.timing.delays.ConnectionJoin`, with placement-distance
  and structural estimates as pre-route fallbacks.
* :mod:`repro.timing.sta` -- the engine: arrival / required / slack /
  per-connection criticality, full critical-path extraction with a
  per-element (LUT / wire / switch / pin) breakdown, and the
  :class:`~repro.timing.sta.CriticalityTracker` that feeds criticalities
  back into the timing-driven router objective each PathFinder iteration.

:func:`analyze` is the one-call entry point used by the PAR flow; the
flow folds its result into a :class:`~repro.par.timing.TimingReport` with
:func:`repro.par.timing.report_from_analysis`.

The package imports :mod:`repro.par` for type annotations only (under
``TYPE_CHECKING``); the one runtime use, the router's block -> RR terminal
mapping, is imported lazily.  So ``import repro.timing`` works as the first
import of a fresh interpreter, and :mod:`repro.par` may import this package.
"""

from .delays import (
    estimated_edge_delays,
    estimated_edge_delays_from_coords,
    routed_edge_delays,
    structural_edge_delays,
)
from .graph import TimingGraph, build_timing_graph
from .sta import (
    CriticalityTracker,
    CriticalPathElement,
    TimingAnalysis,
    analyze,
    scan_edge_criticality,
)

__all__ = [
    "TimingGraph",
    "build_timing_graph",
    "routed_edge_delays",
    "estimated_edge_delays",
    "estimated_edge_delays_from_coords",
    "structural_edge_delays",
    "TimingAnalysis",
    "CriticalPathElement",
    "CriticalityTracker",
    "analyze",
    "scan_edge_criticality",
]
