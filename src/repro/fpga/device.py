"""Device bundle: architecture + routing-resource graph + configuration layout."""

from __future__ import annotations

from dataclasses import dataclass

from .architecture import FPGAArchitecture
from .bitstream import ConfigurationLayout
from .routing_graph import RRGraph, build_rr_graph

__all__ = ["Device", "build_device"]


@dataclass
class Device:
    """A ready-to-use FPGA device model."""

    arch: FPGAArchitecture
    rr_graph: RRGraph
    config_layout: ConfigurationLayout


def build_device(arch: FPGAArchitecture) -> Device:
    """Build the routing graph and configuration layout for an architecture."""
    return Device(
        arch=arch,
        rr_graph=build_rr_graph(arch),
        config_layout=ConfigurationLayout(arch),
    )
