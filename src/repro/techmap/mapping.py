"""Mapped-netlist data structures shared by the technology mappers.

A :class:`MappedNetwork` is the output of technology mapping: a netlist whose
nodes are 4-input LUTs, *Tunable* LUTs (TLUTs), *Tunable Connections* (TCONs)
and leaves (regular inputs, parameter inputs, constants).

* A **LUT** implements a fixed Boolean function of up to K data inputs.
* A **TLUT** implements a Boolean function of up to K data inputs whose
  *configuration* (truth table) additionally depends on the parameter
  inputs.  Physically it is one LUT whose configuration bits are rewritten
  by micro-reconfiguration whenever the parameters change.
* A **TCON** is a connection that, for every fixed parameter assignment,
  degenerates to a plain (non-inverting) wire from one of its data inputs or
  to a constant.  It consumes no LUT; it is realized on the FPGA's physical
  routing switches, which is exactly the contribution of the paper.

The extra "tuning" variables of TLUTs and TCONs are recorded per node as
references to *source-circuit* node ids (parameter inputs or parameter-only
internal nodes).  Specialization -- the job of the SCG in the paper's flow --
is performed by :meth:`MappedNetwork.specialize`, a lookup over the
network's :class:`CompiledPPC` (see :func:`compile_ppc`), and
:meth:`SpecializedNetwork.evaluate` is the one evaluator of a mapped network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..netlist.boolean import TruthTable, restrict, wire_source
from ..netlist.circuit import Circuit
from ..netlist.engine import gate_statements

__all__ = [
    "MappedNode",
    "MappedNetwork",
    "SpecializedNetwork",
    "MappingStats",
    "CompiledPPC",
    "compile_ppc",
]


class NodeKind:
    """Node kinds of a mapped network."""

    INPUT = "input"
    PARAM = "param"
    CONST0 = "const0"
    CONST1 = "const1"
    LUT = "lut"
    TLUT = "tlut"
    TCON = "tcon"

    LEAVES = (INPUT, PARAM, CONST0, CONST1)
    LOGIC = (LUT, TLUT, TCON)


@dataclass
class MappedNode:
    """One node of a mapped network."""

    kind: str
    #: mapped-network ids of the data inputs (LSB-first variable order)
    inputs: Tuple[int, ...] = ()
    #: Boolean function over (data inputs ++ tune variables); ``None`` for leaves
    function: Optional[TruthTable] = None
    #: source-circuit node ids of the tuning variables (params / param-only nodes)
    tune_vars: Tuple[int, ...] = ()
    #: source-circuit node id this mapped node implements (for traceability)
    source: Optional[int] = None
    name: Optional[str] = None


@dataclass
class MappingStats:
    """Resource summary of a mapped network (the quantities of Table I)."""

    num_luts: int
    num_tluts: int
    num_tcons: int
    depth: int
    num_inputs: int
    num_params: int
    num_outputs: int

    @property
    def num_static_luts(self) -> int:
        """LUTs whose configuration never changes (part of the Template Configuration)."""
        return self.num_luts - self.num_tluts

    def as_dict(self) -> Dict[str, int]:
        """The summary as a flat ``name -> count`` dict."""
        return {
            "luts": self.num_luts,
            "tluts": self.num_tluts,
            "static_luts": self.num_static_luts,
            "tcons": self.num_tcons,
            "depth": self.depth,
            "inputs": self.num_inputs,
            "params": self.num_params,
            "outputs": self.num_outputs,
        }


@dataclass
class SpecializedNetwork:
    """A mapped network specialized for concrete parameter values.

    This is the output of the Specialized Configuration Generator: per-TLUT
    truth tables with the parameters substituted, and per-TCON selected
    sources.  ``lut_configs[node_id]`` is the specialized truth table,
    ``tcon_routes[node_id]`` is ``("var", input_position)`` /
    ``("const0"|"const1", None)``.
    """

    network: "MappedNetwork"
    param_values: Dict[int, int]
    lut_configs: Dict[int, TruthTable] = field(default_factory=dict)
    tcon_routes: Dict[int, Tuple[str, Optional[int]]] = field(default_factory=dict)

    def evaluate(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate the specialized network on named 0/1 input values."""
        nodes = self.network.nodes
        values: List[int] = [0] * len(nodes)
        for nid, node in enumerate(nodes):
            if node.kind == NodeKind.INPUT:
                values[nid] = 1 if input_values.get(node.name, 0) else 0
            elif node.kind == NodeKind.PARAM:
                # Only present in conventionally mapped networks, where the
                # settings register drives the logic through ordinary pins.
                values[nid] = 1 if self.param_values.get(node.source, 0) else 0
            elif node.kind == NodeKind.CONST0:
                values[nid] = 0
            elif node.kind == NodeKind.CONST1:
                values[nid] = 1
            elif node.kind in (NodeKind.LUT, NodeKind.TLUT):
                config = self.lut_configs[nid]
                values[nid] = config.evaluate([values[i] for i in node.inputs])
            else:  # TCON
                kind, var = self.tcon_routes[nid]
                if kind == "const0":
                    values[nid] = 0
                elif kind == "const1":
                    values[nid] = 1
                else:
                    values[nid] = values[node.inputs[var]]
        return {name: values[nid] for name, nid in self.network.outputs.items()}


class MappedNetwork:
    """A technology-mapped netlist of LUTs, TLUTs and TCONs."""

    def __init__(self, source: Circuit, k: int = 4) -> None:
        self.source = source
        self.k = k
        self.nodes: List[MappedNode] = []
        self.outputs: Dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node: MappedNode) -> int:
        """Append ``node`` (its inputs must already exist) and return its id."""
        for inp in node.inputs:
            if not 0 <= inp < len(self.nodes):
                raise ValueError(f"mapped node input {inp} does not exist")
        if node.kind in (NodeKind.LUT, NodeKind.TLUT) and node.function is None:
            raise ValueError("LUT/TLUT nodes need a function")
        self.nodes.append(node)
        return len(self.nodes) - 1

    def add_output(self, name: str, node_id: int) -> None:
        """Mark ``node_id`` as the primary output ``name``."""
        if name in self.outputs:
            raise ValueError(f"duplicate output {name!r}")
        self.outputs[name] = node_id

    # -- statistics ----------------------------------------------------------

    def num_luts(self) -> int:
        """Total LUT count (static LUTs + TLUTs), the headline metric of Table I."""
        return sum(1 for n in self.nodes if n.kind in (NodeKind.LUT, NodeKind.TLUT))

    def num_tluts(self) -> int:
        """Number of tunable LUTs."""
        return sum(1 for n in self.nodes if n.kind == NodeKind.TLUT)

    def num_tcons(self) -> int:
        """Number of tunable connections."""
        return sum(1 for n in self.nodes if n.kind == NodeKind.TCON)

    def input_node_ids(self) -> List[int]:
        """Ids of the regular input leaves, ascending."""
        return [i for i, n in enumerate(self.nodes) if n.kind == NodeKind.INPUT]

    def param_node_ids(self) -> List[int]:
        """Ids of the parameter leaves (conventional flow only), ascending."""
        return [i for i, n in enumerate(self.nodes) if n.kind == NodeKind.PARAM]

    def levels(self) -> List[int]:
        """Per-node logic level; LUT/TLUT nodes count one level, TCONs count zero."""
        level = [0] * len(self.nodes)
        for nid, node in enumerate(self.nodes):
            if node.kind in NodeKind.LEAVES:
                level[nid] = 0
            else:
                base = max((level[i] for i in node.inputs), default=0)
                level[nid] = base + (1 if node.kind in (NodeKind.LUT, NodeKind.TLUT) else 0)
        return level

    def depth(self) -> int:
        """Logic depth in LUT levels over the primary outputs."""
        if not self.outputs:
            return 0
        level = self.levels()
        return max(level[n] for n in self.outputs.values())

    def stats(self) -> MappingStats:
        """Resource summary (the Table I quantities)."""
        return MappingStats(
            num_luts=self.num_luts(),
            num_tluts=self.num_tluts(),
            num_tcons=self.num_tcons(),
            depth=self.depth(),
            num_inputs=len(self.input_node_ids()),
            num_params=len(self.param_node_ids()),
            num_outputs=len(self.outputs),
        )

    def validate(self) -> None:
        """Check structural invariants of the mapped network."""
        for nid, node in enumerate(self.nodes):
            if node.kind not in NodeKind.LEAVES + NodeKind.LOGIC:
                raise ValueError(f"node {nid}: unknown kind {node.kind!r}")
            for inp in node.inputs:
                if not 0 <= inp < nid:
                    raise ValueError(f"node {nid}: input {inp} is not an earlier node")
            if node.kind in (NodeKind.LUT, NodeKind.TLUT):
                if len(node.inputs) > self.k:
                    raise ValueError(
                        f"node {nid}: {len(node.inputs)} data inputs exceed K={self.k}"
                    )
                expected_vars = len(node.inputs) + len(node.tune_vars)
                if node.function.num_vars != expected_vars:
                    raise ValueError(
                        f"node {nid}: function arity {node.function.num_vars} != "
                        f"{expected_vars} (inputs + tune vars)"
                    )
                if node.kind == NodeKind.LUT and node.tune_vars:
                    raise ValueError(f"node {nid}: static LUT must not have tune vars")
                if node.kind == NodeKind.TLUT and not node.tune_vars:
                    raise ValueError(f"node {nid}: TLUT must have tune vars")
            if node.kind == NodeKind.TCON:
                if node.function is None or not node.tune_vars:
                    raise ValueError(f"node {nid}: TCON needs a function and tune vars")
        for name, nid in self.outputs.items():
            if not 0 <= nid < len(self.nodes):
                raise ValueError(f"output {name!r} refers to missing node {nid}")

    # -- specialization (the SCG step) ---------------------------------------

    def specialize(self, param_values: Mapping[int, int]) -> SpecializedNetwork:
        """Generate the specialized configuration for a concrete parameter assignment.

        ``param_values`` maps source-circuit *parameter node ids* to 0/1;
        parameters left out are 0.  The result carries, for every TLUT, the
        specialized truth table over its data inputs and, for every TCON, the
        selected data source -- i.e. the bits the SCG would write into the
        FPGA's configuration memory.  Raises ``ValueError`` when a TCON
        specializes to an inverted wire or to no wire at all.
        """
        return compile_ppc(self).specialize(param_values)

    # -- word-level conveniences ----------------------------------------------

    def specialize_words(self, param_words: Mapping[str, int]) -> SpecializedNetwork:
        """Specialize using word-level parameter values keyed by bus name."""
        from ..synth.constprop import param_bit_values

        return self.specialize(param_bit_values(self.source, param_words))

    def evaluate_words(
        self,
        input_words: Mapping[str, Sequence[int]],
        param_words: Mapping[str, int],
    ) -> Dict[str, List[int]]:
        """Evaluate word-level stimulus (bus name -> word list) on the mapped network.

        Buses follow the ``name[i]`` port convention of the HDL builder.  The
        network is specialized once for ``param_words`` and then evaluated per
        pattern; output buses are reassembled into unsigned integers.
        """
        spec = self.specialize_words(param_words)
        num_patterns = max((len(v) for v in input_words.values()), default=0)

        def split(port: str) -> Tuple[str, int]:
            if "[" in port and port.endswith("]"):
                return port[: port.index("[")], int(port[port.index("[") + 1 : -1])
            return port, 0

        # Group the network's input port names by bus.
        input_ports: Dict[str, List[Tuple[int, str]]] = {}
        for node in self.nodes:
            if node.kind == NodeKind.INPUT and node.name:
                bus, idx = split(node.name)
                input_ports.setdefault(bus, []).append((idx, node.name))

        results: Dict[str, List[int]] = {}
        for p in range(num_patterns):
            bit_inputs: Dict[str, int] = {}
            for bus, words in input_words.items():
                word = int(words[p]) if p < len(words) else 0
                for idx, port_name in input_ports.get(bus, []):
                    bit_inputs[port_name] = (word >> idx) & 1
            out_bits = spec.evaluate(bit_inputs)
            for port, value in out_bits.items():
                bus, idx = split(port)
                results.setdefault(bus, [0] * num_patterns)
                if value:
                    results[bus][p] |= 1 << idx
        return results

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (
            f"MappedNetwork(luts={s.num_luts}, tluts={s.num_tluts}, "
            f"tcons={s.num_tcons}, depth={s.depth})"
        )


# ---------------------------------------------------------------------------
# The compiled PPC
# ---------------------------------------------------------------------------

#: One entry of a tunable node's table: a TLUT's specialized truth table, a
#: TCON's ``(kind, var)`` route, or the ``ValueError`` a TCON raises when it
#: does not specialize to a plain wire under that tune assignment.
PPCEntry = Union[TruthTable, Tuple[str, Optional[int]], ValueError]


def _fix_tune_bits(node: MappedNode, index: int) -> TruthTable:
    """``node.function`` with tune variable ``j`` fixed to bit ``j`` of ``index``."""
    num_inputs = len(node.inputs)
    return restrict(
        node.function, {num_inputs + j: (index >> j) & 1 for j in range(len(node.tune_vars))}
    )


def _tlut_entry(node: MappedNode, index: int) -> TruthTable:
    """A TLUT's truth table over its data inputs at tune assignment ``index``."""
    small, kept = _fix_tune_bits(node, index).shrink_to_support()
    return small.expand(len(node.inputs), list(kept))


def _tcon_entry(nid: int, node: MappedNode, index: int) -> PPCEntry:
    """A TCON's selected source at tune assignment ``index``."""
    try:
        kind, var, inverted = wire_source(_fix_tune_bits(node, index), range(len(node.inputs)))
    except ValueError as exc:
        return exc.with_traceback(None)
    if inverted:
        return ValueError(
            f"TCON node {nid} specialized to an inverted wire; "
            "mapper must not emit inverting TCONs"
        )
    return (kind, var)


class CompiledPPC:
    """The parameterized configuration of a network, compiled for lookup.

    Every tunable node depends on the parameters only through its tune
    variables, so its specialized configuration is a function of the
    ``t = len(tune_vars)`` tune bits alone.  Compilation tabulates that
    function: node ``n`` gets a table of ``2**t`` entries, entry
    ``sum(tv_j << j)`` being the node's configuration with tune variable
    ``j`` fixed to ``tv_j`` (:data:`PPCEntry`).  A table is never larger
    than the node's own truth table, which has ``2**(inputs + t)`` rows.
    These are the paper's two generic-stage artifacts: :attr:`static` is
    the Template Configuration and :attr:`tables` the PPC.

    The tune variables are evaluated by one generated straight-line
    function over their fan-in cone in the source circuit only -- the
    parameters and parameter-only gates, with regular inputs at 0 -- in
    the statement form of :mod:`repro.netlist.engine`.  The same function
    indexes every table and returns the specialized ``lut_configs`` (the
    static LUTs copied in) and ``tcon_routes`` dicts, so a specialization
    is one call.
    """

    def __init__(self, network: MappedNetwork) -> None:
        self.network = network
        self.num_nodes = len(network.nodes)
        #: The Template Configuration: static LUT node id -> truth table.
        self.static: Dict[int, TruthTable] = {}
        #: The PPC proper: tunable node id -> its table, ascending node ids.
        self.tables: Dict[int, Tuple[PPCEntry, ...]] = {}
        tluts: List[int] = []
        tcons: List[int] = []
        for nid, node in enumerate(network.nodes):
            if node.kind == NodeKind.LUT:
                self.static[nid] = node.function
            elif node.kind == NodeKind.TLUT:
                tluts.append(nid)
                self.tables[nid] = tuple(
                    _tlut_entry(node, i) for i in range(1 << len(node.tune_vars))
                )
            elif node.kind == NodeKind.TCON:
                tcons.append(nid)
                self.tables[nid] = tuple(
                    _tcon_entry(nid, node, i) for i in range(1 << len(node.tune_vars))
                )
        #: The tunable LUTs and tunable connections, ascending node ids.
        self.tlut_nodes: Tuple[int, ...] = tuple(tluts)
        self.tcon_nodes: Tuple[int, ...] = tuple(tcons)
        #: TCONs some tune assignment leaves without a plain wire, ascending.
        self.fallible_tcons: Tuple[int, ...] = tuple(
            nid
            for nid, table in self.tables.items()
            if any(isinstance(entry, ValueError) for entry in table)
        )
        self.num_entries = sum(len(table) for table in self.tables.values())
        self._lookup = self._codegen()

    def _codegen(self):
        """Generate ``_lookup(params) -> (lut_configs, tcon_routes)``."""
        nodes = self.network.nodes
        tune_vars: Set[int] = {v for nid in self.tables for v in nodes[nid].tune_vars}
        fanins = self.network.source.fanins
        cone: Set[int] = set()
        stack = list(tune_vars)
        while stack:
            nid = stack.pop()
            if nid not in cone:
                cone.add(nid)
                stack.extend(fanins[nid])

        def lookup(nid: int) -> str:
            index = " | ".join(
                f"v{var} << {j}" if j else f"v{var}"
                for j, var in enumerate(nodes[nid].tune_vars)
            )
            return f"{nid}: T{nid}[{index or 0}]"

        luts = [lookup(n) for n in self.tlut_nodes]
        tcons = [lookup(n) for n in self.tcon_nodes]
        lines = ["def _lookup(params):", " inputs = {}", " mask = 1"]
        lines += gate_statements(self.network.source, sorted(cone))
        lines.append(" return {**STATIC, %s}, {%s}" % (", ".join(luts), ", ".join(tcons)))
        namespace: Dict[str, object] = {f"T{nid}": table for nid, table in self.tables.items()}
        namespace["STATIC"] = self.static
        exec("\n".join(lines), namespace)  # noqa: S102 - generated from node ids only
        return namespace["_lookup"]

    def specialize(self, param_values: Mapping[int, int]) -> SpecializedNetwork:
        """Look up every tunable node's configuration for ``param_values``."""
        lut_configs, tcon_routes = self._lookup(param_values)
        for nid in self.fallible_tcons:
            route = tcon_routes[nid]
            if isinstance(route, ValueError):
                raise ValueError(*route.args)
        return SpecializedNetwork(self.network, dict(param_values), lut_configs, tcon_routes)


def compile_ppc(network: MappedNetwork) -> CompiledPPC:
    """Compile ``network``'s PPC (or return the cached one if still valid).

    Mapped networks only grow by :meth:`MappedNetwork.add_node`, so the
    cached form stays valid as long as the node count is unchanged.
    """
    cached = network.__dict__.get("_compiled_ppc")
    if cached is not None and cached.num_nodes == len(network.nodes):
        return cached
    ppc = CompiledPPC(network)
    network.__dict__["_compiled_ppc"] = ppc
    return ppc
