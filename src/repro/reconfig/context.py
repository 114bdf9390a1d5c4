"""Application contexts: named configurations sharing one grid.

A :class:`Context` is one application's complete configuration of the shared
device -- an FIR/retina stage, a FloPoCo variant, a fuzz-grown netlist --
reduced to its canonical frame image (see :mod:`repro.reconfig.frames`)
plus a *criticality* used by the scheduler's admission policy.  A
:class:`ContextLibrary` holds many contexts over one
:class:`~repro.fpga.bitstream.ConfigurationLayout`; all of them target the
same grid, which is what makes frame-level diffs between any two of them
meaningful.

:func:`render_context_bitstream` builds the full-design bitstream of a
placed-and-routed result: every placed logic block programs its LUT truth
table at its site, and every channel wire a net routes through sets one
deterministic switch bit in the routing budget of the tile it crosses.
The rendering is a *model* (the repo has no real device database), but it
is deterministic in the PaR result, so contexts that share placement and
routing share frames and contexts that differ only in a few truth tables
produce small diffs -- exactly the structure micro-reconfiguration
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from ..fpga.bitstream import Bitstream, ConfigurationLayout
from ..fpga.device import Device
from ..par.flow import PaRResult
from ..par.forest import RouteForest
from .frames import diff_images

__all__ = ["Context", "ContextLibrary", "render_context_bitstream", "routing_bitstream"]

#: Knuth multiplicative hash constant; spreads RR node ids over the
#: routing-bit positions of a tile deterministically (no PYTHONHASHSEED).
_MIX = 0x9E3779B1


def _geometry(layout: ConfigurationLayout) -> tuple:
    """What fixes where a tile's bits land in the frame space."""
    return (
        layout.arch.width,
        layout.arch.height,
        layout.lut_bits,
        layout.tile_bits,
        layout.frames_per_column,
        layout.frame_bits,
    )


@dataclass(frozen=True)
class Context:
    """One application context: a named frame image plus scheduling metadata."""

    name: str
    #: canonical frame image (``frame id -> nonzero frame bits``)
    image: Dict[int, int]
    #: admission priority: a resident context is only evicted for a
    #: candidate of equal or higher criticality, so hot (frequently
    #: requested or timing-critical) contexts keep their residency -- and
    #: with it the timing-optimized placement their frames encode.
    criticality: float = 0.0
    #: free-form provenance (critical path, wirelength, popularity weight)
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def num_frames(self) -> int:
        """Number of nonzero frames this context configures."""
        return len(self.image)


class ContextLibrary:
    """Named contexts over one shared configuration layout."""

    def __init__(self, layout: ConfigurationLayout) -> None:
        """Create an empty library for ``layout`` (one grid, one frame space)."""
        self.layout = layout
        self._contexts: Dict[str, Context] = {}
        #: how the library was produced: :func:`repro.core.flows.
        #: build_context_library` stores the PaR-cache counters (hits,
        #: misses, hit_rate) of the build here; empty for hand-built
        #: libraries.
        self.build_stats: Dict[str, float] = {}

    def add(self, context: Context) -> Context:
        """Register ``context`` (names are unique; re-adding replaces)."""
        self._contexts[context.name] = context
        return context

    def add_bitstream(
        self,
        name: str,
        bitstream: Bitstream,
        criticality: float = 0.0,
        metadata: Optional[Mapping[str, float]] = None,
    ) -> Context:
        """Render ``bitstream`` into its frame image and register it.

        Raises ``ValueError`` when the bitstream's layout places tiles
        differently from the library's: equal frame counts and sizes are
        not enough, since a different channel width changes the tile size.
        """
        if bitstream.layout is not self.layout and (
            _geometry(bitstream.layout) != _geometry(self.layout)
        ):
            raise ValueError(
                f"context {name!r} targets a different configuration layout "
                f"than the library's grid"
            )
        return self.add(
            Context(
                name=name,
                image=bitstream.frame_image(),
                criticality=criticality,
                metadata=dict(metadata or {}),
            )
        )

    def __getitem__(self, name: str) -> Context:
        return self._contexts[name]

    def __contains__(self, name: str) -> bool:
        return name in self._contexts

    def __len__(self) -> int:
        return len(self._contexts)

    def __iter__(self) -> Iterator[Context]:
        return iter(self._contexts.values())

    def names(self) -> list:
        """Context names in registration order (the popularity order of
        :func:`repro.reconfig.trace.synthetic_trace`)."""
        return list(self._contexts)

    def total_frames(self) -> int:
        """Sum of every context's nonzero frame count (library footprint)."""
        return sum(c.num_frames for c in self)

    def mean_delta_frames(self) -> float:
        """Mean frames changed between *consecutive* contexts in name order.

        A cheap structure probe: compares each context against the previous
        one, which is what a round-robin schedule would pay per switch.
        """
        names = self.names()
        if len(names) < 2:
            return 0.0
        total = 0
        for a, b in zip(names, names[1:]):
            total += diff_images(self[a].image, self[b].image).num_frames
        return total / (len(names) - 1)


def routing_bitstream(forest: RouteForest, device: Device) -> Bitstream:
    """Routing configuration of one route forest (no LUT bits).

    Every CHANX/CHANY RR node a route tree uses sets one switch bit --
    position ``(node * _MIX) % routing_bits`` -- in the routing budget of
    the logic tile at the node's coordinates (border channels outside the
    logic region carry no modelled configuration).
    """
    layout = device.config_layout
    rr = device.rr_graph
    bitstream = Bitstream(layout)
    routing_bits: Dict[tuple, int] = {}
    for rr_node in forest.node[rr.wire_mask()[forest.node]].tolist():
        x, y = int(rr.node_x[rr_node]), int(rr.node_y[rr_node])
        if not layout.arch.contains_clb(x, y):
            continue
        bit = (rr_node * _MIX) % layout.routing_bits
        routing_bits[(x, y)] = routing_bits.get((x, y), 0) | (1 << bit)
    for (x, y), bits in routing_bits.items():
        bitstream.set_routing_config(x, y, bits)
    return bitstream


def render_context_bitstream(par: PaRResult) -> Bitstream:
    """Full-design bitstream of a placed-and-routed context.

    Every placed logic block with a mapped LUT/TLUT programs its truth
    table bits (masked to the physical LUT width) at its placement site, on
    top of the routing configuration of :func:`routing_bitstream`.

    Deterministic in the PaR result: re-rendering the same result is
    bit-identical, and two contexts that share routes share routing bits.
    """
    bitstream = routing_bitstream(par.routing.forest, par.device)
    lut_mask = (1 << bitstream.layout.lut_bits) - 1
    placement = par.placement.placement
    for block in par.netlist.blocks:
        if block.mapped_node is None or not block.needs_logic_site:
            continue
        node = par.network.nodes[block.mapped_node]
        if node.function is None:
            continue
        site = placement.block_site[block.id]
        bitstream.set_lut_config(site.x, site.y, node.function.bits & lut_mask)
    return bitstream
