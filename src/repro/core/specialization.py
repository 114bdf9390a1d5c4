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

Here the PPC is compiled once, when the SCG is built
(:func:`~repro.techmap.mapping.compile_ppc`).  Each tunable node of the
mapped network depends on the parameters only through its few tune
variables, so its Boolean functions are stored as a table of specialized
configurations indexed by those variables' values, and the tune variables
themselves as generated straight-line code over their parameter cone.  A
run-time update is then what the paper's SCG does: evaluate the PPC (one
generated call and one table lookup per tunable node), no Boolean algebra.
The SCG then renders the looked-up bits into a bitstream through a
placement-fixed plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..fpga.bitstream import Bitstream, ConfigurationLayout
from ..techmap.mapping import MappedNetwork, NodeKind, SpecializedNetwork, compile_ppc
from ..par.flow import PaRResult

__all__ = [
    "TemplateConfiguration",
    "PartialParameterizedConfiguration",
    "SpecializedConfigurationGenerator",
    "SpecializationOutcome",
]


@dataclass
class TemplateConfiguration:
    """Static part of the configuration: LUTs that never change."""

    lut_configs: Dict[int, int] = field(default_factory=dict)  #: mapped node -> truth bits

    @property
    def num_static_luts(self) -> int:
        """Number of LUTs in the template."""
        return len(self.lut_configs)


@dataclass
class PartialParameterizedConfiguration:
    """Boolean functions of the parameters, one set per tunable element."""

    network: MappedNetwork
    tlut_nodes: List[int] = field(default_factory=list)
    tcon_nodes: List[int] = field(default_factory=list)

    @property
    def num_tluts(self) -> int:
        """Number of tunable LUTs in the PPC."""
        return len(self.tlut_nodes)

    @property
    def num_tcons(self) -> int:
        """Number of tunable connections in the PPC."""
        return len(self.tcon_nodes)

    @property
    def num_boolean_functions(self) -> int:
        """Number of single-output Boolean functions the SCG must evaluate.

        Every configuration bit of a TLUT (2^k bits for a k-input LUT) and the
        selection of every TCON is one Boolean function of the parameters.
        """
        k = self.network.k
        return self.num_tluts * (1 << k) + self.num_tcons

    @property
    def memory_footprint_bits(self) -> int:
        """Rough PPC storage estimate (truth tables of the tunable functions)."""
        total = 0
        for nid in self.tlut_nodes + self.tcon_nodes:
            node = self.network.nodes[nid]
            total += 1 << node.function.num_vars
        return total


@dataclass
class SpecializationOutcome:
    """One run of the SCG: specialized bits plus cost bookkeeping."""

    specialized: SpecializedNetwork
    bitstream: Optional[Bitstream]
    frames_touched: Set[int]
    evaluation_seconds: float

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
        Optional place-and-route result; when provided, specializations are
        rendered into :class:`~repro.fpga.bitstream.Bitstream` objects and the
        set of touched configuration frames is computed from the actual LUT
        placements, which feeds the reconfiguration-time model.
    """

    def __init__(
        self,
        network: MappedNetwork,
        par_result: Optional[PaRResult] = None,
    ) -> None:
        self.network = network
        self.par = par_result
        compile_ppc(network)
        self.template = TemplateConfiguration()
        self.ppc = PartialParameterizedConfiguration(network)
        for nid, node in enumerate(network.nodes):
            if node.kind == NodeKind.LUT:
                self.template.lut_configs[nid] = node.function.bits
            elif node.kind == NodeKind.TLUT:
                self.ppc.tlut_nodes.append(nid)
            elif node.kind == NodeKind.TCON:
                self.ppc.tcon_nodes.append(nid)
        self._node_site: Dict[int, Tuple[int, int]] = {}
        #: ``(tcon, site, shift)`` per rendered TCON, fixed by the PaR result.
        self._tcon_plan: List[Tuple[int, Tuple[int, int], int]] = []
        self._layout: Optional[ConfigurationLayout] = None
        if par_result is not None:
            self._layout = par_result.device.config_layout
            for block in par_result.netlist.blocks:
                if block.mapped_node is None or not block.needs_logic_site:
                    continue
                site = par_result.placement.placement.block_site[block.id]
                self._node_site[block.mapped_node] = (site.x, site.y)
            self._tcon_plan = self._plan_tcons()
        self._previous: Optional[Bitstream] = None

    def _plan_tcons(self) -> List[Tuple[int, Tuple[int, int], int]]:
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
            site = self._node_site.get(nid)
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
        t0 = time.perf_counter()
        spec = self.network.specialize_words(dict(param_words))
        elapsed = time.perf_counter() - t0

        bitstream = None
        frames: Set[int] = set()
        if self._layout is not None:
            bitstream = Bitstream(self._layout)
            for nid in self.ppc.tlut_nodes:
                site = self._node_site.get(nid)
                if site is None:
                    continue
                bitstream.set_lut_config(site[0], site[1], spec.lut_configs[nid].bits)
            routing = bitstream.routing_configs
            for nid, site, shift in self._tcon_plan:
                kind, var = spec.tcon_routes[nid]
                sel = 0 if kind != "var" else (var + 1)
                bitstream.set_routing_config(
                    site[0], site[1], routing.get(site, 0) | (sel << shift)
                )
            if self._previous is not None:
                frames = bitstream.diff_frames(self._previous)
            else:
                tiles = bitstream.configured_tiles()
                frames = self._layout.frames_for_tiles(tiles)
            self._previous = bitstream
        return SpecializationOutcome(
            specialized=spec,
            bitstream=bitstream,
            frames_touched=frames,
            evaluation_seconds=elapsed,
        )

    # -- summary --------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """PPC sizes, plus ``unrendered_tcons``: TCONs no bitstream carries
        (those with no LUT/TLUT downstream; all of them without a PaR result)."""
        return {
            "static_luts": self.template.num_static_luts,
            "tluts": self.ppc.num_tluts,
            "tcons": self.ppc.num_tcons,
            "boolean_functions": self.ppc.num_boolean_functions,
            "ppc_bits": self.ppc.memory_footprint_bits,
            "unrendered_tcons": self.ppc.num_tcons - len(self._tcon_plan),
        }
