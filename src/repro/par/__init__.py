"""TPaR-style physical CAD: placement (TPLACE), routing (TROUTE), metrics, timing."""

from .cache import PaRCache
from .flow import PaRResult, cached_route, place_and_route
from .forest import RouteForest, build_route_forest
from .metrics import (
    ChannelWidthError,
    MinChannelWidthResult,
    minimum_channel_width,
)
from .netlist import Block, Net, PhysicalNetlist, from_mapped_network
from .placement import Placement, PlacementResult, hpwl, place, random_placement
from .routing import NetRoute, RoutingResult, route, route_resilient
from .timing import TimingReport

__all__ = [
    "PaRCache",
    "ChannelWidthError",
    "route_resilient",
    "PaRResult",
    "place_and_route",
    "cached_route",
    "RouteForest",
    "build_route_forest",
    "MinChannelWidthResult",
    "minimum_channel_width",
    "Block",
    "Net",
    "PhysicalNetlist",
    "from_mapped_network",
    "Placement",
    "PlacementResult",
    "hpwl",
    "place",
    "random_placement",
    "NetRoute",
    "RoutingResult",
    "route",
    "TimingReport",
]
