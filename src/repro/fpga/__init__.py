"""VPR-style island FPGA model: architecture, routing graph, configuration memory."""

from .architecture import FPGAArchitecture, Site, auto_size
from .bitstream import Bitstream, ConfigurationLayout, FrameSpan
from .device import Device, build_device
from .routing_graph import RRGraph, RRNodeType, build_rr_graph

__all__ = [
    "FPGAArchitecture",
    "Site",
    "auto_size",
    "Bitstream",
    "ConfigurationLayout",
    "FrameSpan",
    "Device",
    "build_device",
    "RRGraph",
    "RRNodeType",
    "build_rr_graph",
]
