"""Cut enumeration and netlist preparation for technology mapping.

Both mappers (conventional LUT mapping and TCONMAP) are cut-based: for every
gate they enumerate *cuts* -- sets of nodes that completely separate the gate
from the primary inputs -- and then choose one cut per mapped gate such that
the selected cut functions become LUT configurations.

The difference between the two mappers is entirely in the *cost model* of a
cut: the conventional mapper counts every leaf against the K-input limit of
the physical LUT, while TCONMAP lets parameter inputs and parameter-only
nodes ride along for free because they end up in the LUT's reconfigurable
truth table rather than on its physical input pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..netlist.circuit import Circuit, Op

__all__ = ["Cut", "CutEnumerator", "decompose_to_binary", "param_only_nodes"]


def decompose_to_binary(circuit: Circuit) -> Circuit:
    """Rewrite variadic AND/OR/XOR (and negated forms) into balanced binary trees.

    Cut-based mapping needs bounded-arity gates; the synthesis front-end is
    free to create wide reduction gates, so mapping always starts with this
    normalization.  MUX gates (3 fanins) are left untouched.
    """
    new = Circuit(name=circuit.name, strash=True)
    node_map: Dict[int, int] = {}

    def balanced(op: str, operands: List[int]) -> int:
        while len(operands) > 1:
            nxt = []
            for i in range(0, len(operands) - 1, 2):
                nxt.append(new.gate(op, operands[i], operands[i + 1]))
            if len(operands) % 2:
                nxt.append(operands[-1])
            operands = nxt
        return operands[0]

    for nid, op in enumerate(circuit.ops):
        name = circuit.names.get(nid)
        fins = tuple(node_map[f] for f in circuit.fanins[nid])
        if op == Op.INPUT:
            node_map[nid] = new.add_input(name or f"in{nid}")
        elif op == Op.PARAM:
            node_map[nid] = new.add_param(name or f"param{nid}")
        elif op == Op.CONST0:
            node_map[nid] = new.const(0)
        elif op == Op.CONST1:
            node_map[nid] = new.const(1)
        elif op in (Op.AND, Op.OR, Op.XOR) and len(fins) > 2:
            node_map[nid] = balanced(op, list(fins))
        elif op in (Op.NAND, Op.NOR, Op.XNOR) and len(fins) > 2:
            base = {Op.NAND: Op.AND, Op.NOR: Op.OR, Op.XNOR: Op.XOR}[op]
            node_map[nid] = new.g_not(balanced(base, list(fins)))
        else:
            node_map[nid] = new.gate(op, *fins, name=name) if fins else new._new_node(op, (), name)
    for out_name, out_nid in circuit.outputs.items():
        new.add_output(out_name, node_map[out_nid])
    return new


def param_only_nodes(circuit: Circuit) -> Set[int]:
    """Nodes whose value depends on parameters only (no regular-input dependence).

    In the parameterized flow these nodes need no hardware at all: the SCG
    evaluates them in software during specialization, exactly like the
    Boolean functions stored in the Partial Parameterized Configuration.
    """
    param_dep = [False] * len(circuit)
    input_dep = [False] * len(circuit)
    for nid, op in enumerate(circuit.ops):
        if op == Op.PARAM:
            param_dep[nid] = True
        elif op == Op.INPUT:
            input_dep[nid] = True
        elif op not in Op.LEAVES:
            fins = circuit.fanins[nid]
            param_dep[nid] = any(param_dep[f] for f in fins)
            input_dep[nid] = any(input_dep[f] for f in fins)
    return {
        nid
        for nid in circuit.node_ids()
        if param_dep[nid] and not input_dep[nid]
    }


@dataclass(frozen=True)
class Cut:
    """A cut of a node: its leaves split into data leaves and tune leaves.

    ``data_leaves`` occupy physical LUT input pins; ``tune_leaves`` (parameter
    inputs or parameter-only nodes) are absorbed into the reconfigurable
    truth table (TCONMAP mode only -- the conventional mapper never produces
    tune leaves).
    """

    data_leaves: Tuple[int, ...]
    tune_leaves: Tuple[int, ...]
    depth: int

    @property
    def num_data(self) -> int:
        return len(self.data_leaves)

    @property
    def num_total(self) -> int:
        return len(self.data_leaves) + len(self.tune_leaves)

    def all_leaves(self) -> Tuple[int, ...]:
        return self.data_leaves + self.tune_leaves


class CutEnumerator:
    """Priority-cut enumeration over a prepared (binary-arity) circuit.

    Parameters
    ----------
    circuit:
        Circuit to enumerate (must already be decomposed to arity <= 3).
    k:
        Physical LUT input count (data-leaf limit per cut).
    parameterized:
        TCONMAP mode: parameter inputs and parameter-only nodes become *tune
        leaves* that do not count against ``k``.
    max_cuts:
        Priority-cut limit per node.
    max_tune:
        Limit on tune leaves per cut (bounds the truth-table width of TLUTs).
    barriers:
        Node ids that cuts must not cross (they are treated as leaves).  The
        TCONMAP wrapper passes the detected TCON nodes here so LUT cuts stop
        at tunable-connection boundaries.
    """

    def __init__(
        self,
        circuit: Circuit,
        k: int = 4,
        parameterized: bool = False,
        max_cuts: int = 6,
        max_tune: int = 8,
        barriers: Optional[Set[int]] = None,
    ) -> None:
        self.circuit = circuit
        self.k = k
        self.parameterized = parameterized
        self.max_cuts = max_cuts
        self.max_tune = max_tune
        self.barriers = barriers or set()
        self.param_only = param_only_nodes(circuit) if parameterized else set()
        self.cuts: Dict[int, List[Cut]] = {}
        self.arrival: Dict[int, int] = {}

    # -- leaf classification -------------------------------------------------

    def is_free_leaf(self, nid: int) -> bool:
        """Leaves that cost no LUT pin (tune leaves) in parameterized mode."""
        if not self.parameterized:
            return False
        op = self.circuit.ops[nid]
        return op == Op.PARAM or nid in self.param_only

    def is_structural_leaf(self, nid: int) -> bool:
        """Nodes at which cut expansion always stops."""
        op = self.circuit.ops[nid]
        if op in Op.LEAVES:
            return True
        return nid in self.barriers or nid in self.param_only

    # -- enumeration -----------------------------------------------------------

    def _leaf_arrival(self, nid: int) -> int:
        return self.arrival.get(nid, 0)

    def _make_cut(self, leaves: Set[int]) -> Optional[Cut]:
        data, tune = [], []
        for leaf in leaves:
            op = self.circuit.ops[leaf]
            if op in (Op.CONST0, Op.CONST1):
                # Constants fold into the truth table for free.
                continue
            if self.is_free_leaf(leaf):
                tune.append(leaf)
            else:
                data.append(leaf)
        if len(data) > self.k or len(tune) > self.max_tune:
            return None
        depth = 1 + max((self._leaf_arrival(d) for d in data), default=0)
        return Cut(tuple(sorted(data)), tuple(sorted(tune)), depth)

    def _merge(self, fanin_cut_sets: Sequence[List[Set[int]]]) -> List[Set[int]]:
        merged = [set()]
        for cut_choices in fanin_cut_sets:
            nxt = []
            for partial in merged:
                for choice in cut_choices:
                    union = partial | choice
                    # quick infeasibility check on total size
                    if len(union) <= self.k + self.max_tune + 2:
                        nxt.append(union)
            merged = nxt
            if len(merged) > 64:
                merged = merged[:64]
        return merged

    def enumerate(self) -> Dict[int, List[Cut]]:
        """Enumerate priority cuts for every gate node; fills ``arrival`` too."""
        circuit = self.circuit
        for nid in circuit.node_ids():
            op = circuit.ops[nid]
            if op in Op.LEAVES:
                self.arrival[nid] = 0
                continue
            if nid in self.param_only:
                # No hardware: evaluated by the SCG; arrival 0.
                self.arrival[nid] = 0
                continue
            if nid in self.barriers:
                # Barrier (TCON) nodes: arrival is the max of data-fanin arrivals
                # (they add no LUT level); they expose only their unit cut.
                fins = circuit.fanins[nid]
                self.arrival[nid] = max(
                    (self.arrival.get(f, 0) for f in fins if not self.is_free_leaf(f)),
                    default=0,
                )
                continue

            fanin_choices: List[List[Set[int]]] = []
            for f in circuit.fanins[nid]:
                if self.is_structural_leaf(f):
                    fanin_choices.append([{f}])
                else:
                    choices = [set(c.all_leaves()) for c in self.cuts.get(f, [])]
                    choices.append({f})  # the fanin itself as a leaf
                    fanin_choices.append(choices)

            candidate_leafsets = self._merge(fanin_choices)
            cuts: List[Cut] = []
            seen = set()
            for leaves in candidate_leafsets:
                key = frozenset(leaves)
                if key in seen:
                    continue
                seen.add(key)
                cut = self._make_cut(leaves)
                if cut is not None:
                    cuts.append(cut)
            if not cuts:
                # Fall back to the immediate-fanin cut; always feasible for
                # arity <= 3 gates with k >= 3.
                cut = self._make_cut(set(circuit.fanins[nid]))
                if cut is None:
                    raise RuntimeError(
                        f"node {nid} ({op}) has no feasible cut; "
                        "was the circuit decomposed to binary arity?"
                    )
                cuts = [cut]
            cuts.sort(key=lambda c: (c.depth, c.num_data, c.num_total))
            cuts = cuts[: self.max_cuts]
            self.cuts[nid] = cuts
            self.arrival[nid] = cuts[0].depth
        return self.cuts

    def best_cut(self, nid: int) -> Cut:
        """Best (depth-first, then fewest data leaves) cut of a gate node."""
        return self.cuts[nid][0]
