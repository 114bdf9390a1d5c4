"""Post-PaR timing report: the Table I summary of one STA analysis.

:func:`report_from_analysis` folds a :class:`~repro.timing.sta.TimingAnalysis`
(from :func:`repro.timing.analyze`, which times every routed connection
exactly along its route-tree path) into the :class:`TimingReport` the PAR
flow returns.  ``logic_depth`` stays bit-compatible with the mapped
network's LUT depth (the quantity of the paper's Table I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..fpga.device import Device
from ..techmap.mapping import MappedNetwork
from ..timing.sta import TimingAnalysis
from .routing import RoutingResult

__all__ = ["TimingReport", "report_from_analysis"]


@dataclass
class TimingReport:
    """Critical-path summary."""

    logic_depth: int               #: LUT levels on the longest path
    critical_path_ns: float        #: delay along the routed critical path
    mean_net_wirelength: float     #: average wires per routed net
    max_net_wirelength: int


def report_from_analysis(
    analysis: TimingAnalysis,
    network: MappedNetwork,
    routing: Optional[RoutingResult],
    device: Device,
) -> TimingReport:
    """Fold a full STA analysis into the legacy :class:`TimingReport`.

    ``logic_depth`` comes from the mapped network's own levelization (the
    seed implementation's exact recursion), keeping the Table I depth column
    bit-compatible even for parameterized networks whose multi-input TCONs
    are resolved to a single representative wire in the physical netlist.
    """
    mean_wl, max_wl = 0.0, 0
    if routing is not None:
        net_wires = routing.forest.net_wirelengths(device.rr_graph.wire_mask())
        if net_wires.size:
            mean_wl = int(net_wires.sum()) / net_wires.size
            max_wl = int(net_wires.max())
    return TimingReport(
        logic_depth=network.depth(),
        critical_path_ns=analysis.critical_path_ns,
        mean_net_wirelength=mean_wl,
        max_net_wirelength=max_wl,
    )
