"""Parameterized configuration: Template Configuration, PPC and the SCG.

The generic stage of the DCS tool flow (Figure 3 of the paper) produces two
artifacts:

* the **Template Configuration (TC)** -- the static configuration bits of the
  design: LUTs whose truth tables never change with the parameters;
* the **Partial Parameterized Configuration (PPC)** -- for every tunable bit
  of configuration memory, a Boolean function of the parameter inputs.

At run time the **Specialized Configuration Generator (SCG)** -- software on
an embedded processor in the real system -- evaluates the PPC's Boolean
functions for the current parameter values and produces the specialized
bits, which are written into the FPGA through HWICAP/MiCAP
(micro-reconfiguration).

Here both artifacts are one object, the
:class:`~repro.techmap.mapping.CompiledPPC` the SCG builds
(:func:`~repro.techmap.mapping.compile_ppc`): the TC is its ``static`` LUTs
and the PPC is its ``tables``.  Each tunable node of the mapped network
depends on the parameters only through its few tune variables, so its
Boolean functions are stored as a table of specialized configurations
indexed by those variables' values, and the tune variables themselves as
generated straight-line code over their parameter cone.  A run-time update
is then what the paper's SCG does: evaluate the PPC (one generated call and
one table lookup per tunable node), no Boolean algebra.  The SCG then
renders the looked-up bits into a bitstream through a placement-fixed plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..fpga.bitstream import Bitstream
from ..techmap.mapping import MappedNetwork, NodeKind, SpecializedNetwork, compile_ppc
from ..par.flow import PaRResult

__all__ = [
    "SpecializedConfigurationGenerator",
    "SpecializationOutcome",
]


@dataclass
class SpecializationOutcome:
    """One run of the SCG: the specialized network, its bits and its frames."""

    specialized: SpecializedNetwork
    bitstream: Bitstream
    frames_touched: Set[int]

    @property
    def num_frames(self) -> int:
        """Number of configuration frames this update rewrites."""
        return len(self.frames_touched)


class SpecializedConfigurationGenerator:
    """The SCG: evaluates the PPC for concrete parameter values.

    Parameters
    ----------
    network:
        A parameterized mapped network (output of TCONMAP).
    par_result:
        Its place-and-route result.  Specializations are rendered into
        :class:`~repro.fpga.bitstream.Bitstream` objects, and the set of
        touched configuration frames is computed from the actual LUT
        placements, which feeds the reconfiguration-time model.
    """

    def __init__(self, network: MappedNetwork, par_result: PaRResult) -> None:
        self.network = network
        self.par = par_result
        self.ppc = compile_ppc(network)
        self._layout = par_result.device.config_layout
        node_site: Dict[int, Tuple[int, int]] = {}
        for block in par_result.netlist.blocks:
            if block.mapped_node is None or not block.needs_logic_site:
                continue
            site = par_result.placement.placement.block_site[block.id]
            node_site[block.mapped_node] = (site.x, site.y)
        #: ``(tlut, x, y)`` per placed TLUT, fixed by the PaR result.
        self._tlut_sites: List[Tuple[int, int, int]] = [
            (nid, *node_site[nid]) for nid in self.ppc.tlut_nodes if nid in node_site
        ]
        #: ``(tcon, site, shift)`` per rendered TCON, fixed by the PaR result.
        self._tcon_plan = self._plan_tcons(node_site)
        self._previous: Optional[Bitstream] = None

    def _plan_tcons(
        self, node_site: Dict[int, Tuple[int, int]]
    ) -> List[Tuple[int, Tuple[int, int], int]]:
        """Site and bit shift of every TCON's selection, computed once.

        A TCON's switches live next to the LUT(s) it feeds, so its bits go to
        the tile of its first placed LUT/TLUT consumer (lowest node id).  A
        TCON with no such consumer takes the tile of its lowest-id TCON
        consumer that has one, so TCON chains land on the first LUT/TLUT
        downstream; TCONs that only reach primary outputs get no tile.  TCONs
        sharing a tile take successive 2-bit slots in node-id order; the shift
        saturates at the tile's routing budget.  None of this depends on the
        parameters, so :meth:`specialize` only fills in the selections.
        """
        consumer_site: Dict[int, Tuple[int, int]] = {}
        for nid, node in enumerate(self.network.nodes):
            site = node_site.get(nid)
            if site is None or node.kind not in (NodeKind.LUT, NodeKind.TLUT):
                continue
            for inp in node.inputs:
                consumer_site.setdefault(inp, site)
        # Consumers have higher ids than their inputs, so a descending pass
        # sees each TCON's final tile before its inputs inherit it, and the
        # lowest-id consumer writes last.
        chain_site: Dict[int, Tuple[int, int]] = {}
        for nid in reversed(self.ppc.tcon_nodes):
            site = consumer_site.get(nid) or chain_site.get(nid)
            if site is None:
                continue
            for inp in self.network.nodes[nid].inputs:
                chain_site[inp] = site
        width_limit = max(0, self._layout.routing_bits - 4)
        slots: Dict[Tuple[int, int], int] = {}
        plan = []
        for nid in self.ppc.tcon_nodes:
            site = consumer_site.get(nid) or chain_site.get(nid)
            if site is None:
                continue
            slot = slots.get(site, 0)
            slots[site] = slot + 1
            plan.append((nid, site, min(2 * slot, width_limit)))
        return plan

    # -- specialization -----------------------------------------------------------

    def specialize(self, param_words: Mapping[str, int]) -> SpecializationOutcome:
        """Evaluate the PPC for the given parameter values (word-level, by bus name)."""
        spec = self.network.specialize_words(dict(param_words))
        bitstream = Bitstream(self._layout)
        lut_configs = spec.lut_configs
        for nid, x, y in self._tlut_sites:
            bitstream.set_lut_config(x, y, lut_configs[nid].bits)
        routing = bitstream.routing_configs
        for nid, site, shift in self._tcon_plan:
            kind, var = spec.tcon_routes[nid]
            sel = 0 if kind != "var" else (var + 1)
            bitstream.set_routing_config(site[0], site[1], routing.get(site, 0) | (sel << shift))
        if self._previous is None:
            frames = self._layout.frames_for_tiles(bitstream.configured_tiles())
        else:
            frames = bitstream.diff_frames(self._previous)
        self._previous = bitstream
        return SpecializationOutcome(specialized=spec, bitstream=bitstream, frames_touched=frames)

    # -- summary --------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Sizes of the TC and the PPC, and how many TCONs go unrendered.

        ``boolean_functions`` counts every configuration bit of a TLUT (2^k
        bits for a k-input LUT) and the selection of every TCON as one
        Boolean function of the parameters; ``ppc_bits`` is the storage of
        the tunable nodes' truth tables.  ``unrendered_tcons`` counts the
        TCONs no bitstream carries (those with no LUT/TLUT downstream).
        """
        ppc = self.ppc
        nodes = self.network.nodes
        return {
            "static_luts": len(ppc.static),
            "tluts": len(ppc.tlut_nodes),
            "tcons": len(ppc.tcon_nodes),
            "boolean_functions": len(ppc.tlut_nodes) * (1 << self.network.k)
            + len(ppc.tcon_nodes),
            "ppc_bits": sum(1 << nodes[nid].function.num_vars for nid in ppc.tables),
            "unrendered_tcons": len(ppc.tcon_nodes) - len(self._tcon_plan),
        }
