"""Gate-level circuit representation.

A :class:`Circuit` is a directed acyclic graph of simple Boolean gates.  It
is the common intermediate representation shared by the synthesis front-end,
the ABC-style logic optimizer and the technology mappers (conventional LUT
mapping and TCONMAP).

Design decisions
----------------
* Nodes are identified by dense integer ids.  A node's fanins must already
  exist when the node is created, so node ids form a topological order by
  construction.  Every downstream algorithm (simulation, cut enumeration,
  constant propagation) exploits this.
* *Parameter* inputs -- the infrequently changing inputs that Dynamic Circuit
  Specialization treats as constants (the ``--PARAM`` annotation of the
  paper's VHDL flow) -- are first-class citizens: they are a distinct node
  kind so that every stage of the flow can distinguish them from regular
  data inputs.
* Structural hashing is available at construction time (``strash=True``) and
  as a separate pass in :mod:`repro.synth.optimize`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Op", "Circuit"]


class Op:
    """Gate operation codes used by :class:`Circuit` nodes."""

    INPUT = "input"
    PARAM = "param"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"
    MUX = "mux"  # fanins (sel, d0, d1): output = d0 if sel == 0 else d1

    ALL = (
        INPUT, PARAM, CONST0, CONST1, BUF, NOT,
        AND, OR, XOR, NAND, NOR, XNOR, MUX,
    )
    LEAVES = (INPUT, PARAM, CONST0, CONST1)
    COMMUTATIVE = (AND, OR, XOR, NAND, NOR, XNOR)
    GATES = (BUF, NOT, AND, OR, XOR, NAND, NOR, XNOR, MUX)

    #: number of fanins for fixed-arity ops (None = variadic >= 2)
    ARITY = {
        INPUT: 0, PARAM: 0, CONST0: 0, CONST1: 0,
        BUF: 1, NOT: 1, MUX: 3,
        AND: None, OR: None, XOR: None, NAND: None, NOR: None, XNOR: None,
    }


class Circuit:
    """A combinational gate-level netlist.

    Attributes
    ----------
    ops:
        List of per-node operation codes (see :class:`Op`).
    fanins:
        List of per-node fanin tuples (node ids).
    names:
        Optional user-facing names for nodes (inputs, params, key signals).
    outputs:
        Ordered mapping of output name to driving node id.
    """

    def __init__(self, name: str = "top", strash: bool = False) -> None:
        self.name = name
        self.ops: List[str] = []
        self.fanins: List[Tuple[int, ...]] = []
        self.names: Dict[int, str] = {}
        self.outputs: Dict[str, int] = {}
        self._strash = strash
        self._strash_table: Dict[Tuple, int] = {}
        self._const_cache: Dict[str, int] = {}
        #: (node count scanned, parameter ids found) of :meth:`param_ids`
        self._param_scan: Tuple[int, Tuple[int, ...]] = (0, ())

    # -- construction --------------------------------------------------------

    def _new_node(self, op: str, fanins: Tuple[int, ...], name: Optional[str] = None) -> int:
        nid = len(self.ops)
        self.ops.append(op)
        self.fanins.append(fanins)
        if name is not None:
            self.names[nid] = name
        return nid

    def add_input(self, name: str) -> int:
        """Create a regular (frequently changing) primary input."""
        return self._new_node(Op.INPUT, (), name)

    def add_param(self, name: str) -> int:
        """Create a parameter input (the ``--PARAM`` annotation of the paper)."""
        return self._new_node(Op.PARAM, (), name)

    def const(self, value: int) -> int:
        """Return the constant-0 or constant-1 node, creating it on first use."""
        op = Op.CONST1 if value else Op.CONST0
        nid = self._const_cache.get(op)
        if nid is None:
            nid = self._new_node(op, ())
            self._const_cache[op] = nid
        return nid

    def gate(self, op: str, *fanins: int, name: Optional[str] = None) -> int:
        """Create a gate node.

        Fanins must be existing node ids.  When structural hashing is
        enabled, an identical existing gate is returned instead of a new one.
        """
        if op not in Op.GATES:
            raise ValueError(f"unknown gate op {op!r}")
        arity = Op.ARITY[op]
        if arity is None:
            if len(fanins) < 2:
                raise ValueError(f"{op} gate needs at least two fanins")
        elif len(fanins) != arity:
            raise ValueError(f"{op} gate needs exactly {arity} fanins, got {len(fanins)}")
        for f in fanins:
            if not 0 <= f < len(self.ops):
                raise ValueError(f"fanin {f} does not exist")

        key_fanins = tuple(sorted(fanins)) if op in Op.COMMUTATIVE else tuple(fanins)
        if self._strash:
            key = (op, key_fanins)
            hit = self._strash_table.get(key)
            if hit is not None:
                return hit
        nid = self._new_node(op, tuple(fanins), name)
        if self._strash:
            self._strash_table[(op, key_fanins)] = nid
        return nid

    # Convenience wrappers -----------------------------------------------------

    def g_not(self, a: int) -> int:
        """NOT gate (see :meth:`gate`)."""
        return self.gate(Op.NOT, a)

    def g_and(self, *xs: int) -> int:
        """AND gate (see :meth:`gate`)."""
        return self.gate(Op.AND, *xs)

    def g_or(self, *xs: int) -> int:
        """OR gate (see :meth:`gate`)."""
        return self.gate(Op.OR, *xs)

    def g_xor(self, *xs: int) -> int:
        """XOR gate (see :meth:`gate`)."""
        return self.gate(Op.XOR, *xs)

    def g_mux(self, sel: int, d0: int, d1: int) -> int:
        """2:1 multiplexer: output is ``d0`` when ``sel`` is 0, ``d1`` otherwise."""
        return self.gate(Op.MUX, sel, d0, d1)

    def add_output(self, name: str, node: int) -> None:
        """Mark an existing node as a primary output."""
        if not 0 <= node < len(self.ops):
            raise ValueError(f"node {node} does not exist")
        if name in self.outputs:
            raise ValueError(f"duplicate output name {name!r}")
        self.outputs[name] = node

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def node_ids(self) -> range:
        """All node ids in topological order."""
        return range(len(self.ops))

    def input_ids(self) -> List[int]:
        """Regular input node ids in topological order."""
        return [i for i, o in enumerate(self.ops) if o == Op.INPUT]

    def param_ids(self) -> List[int]:
        """Parameter node ids in topological order.

        Circuits only grow, so the ids found by the last call stay valid and
        only the nodes appended since then are scanned (the node-count check
        :func:`~repro.netlist.engine.compile_circuit` uses).
        """
        ops = self.ops
        scanned, ids = self._param_scan
        if scanned > len(ops):
            scanned, ids = 0, ()
        if scanned < len(ops):
            ids = ids + tuple(i for i in range(scanned, len(ops)) if ops[i] == Op.PARAM)
            self._param_scan = (len(ops), ids)
        return list(ids)

    def gate_ids(self) -> List[int]:
        """Gate node ids in topological order."""
        return [i for i, o in enumerate(self.ops) if o in Op.GATES]

    def input_names(self) -> List[str]:
        """Names of the regular inputs, in :meth:`input_ids` order."""
        return [self.names.get(i, f"in{i}") for i in self.input_ids()]

    def param_names(self) -> List[str]:
        """Names of the parameter inputs, in :meth:`param_ids` order."""
        return [self.names.get(i, f"param{i}") for i in self.param_ids()]

    def num_gates(self) -> int:
        """Number of gate nodes (leaves excluded)."""
        return sum(1 for o in self.ops if o in Op.GATES)

    def depth(self) -> int:
        """Logic depth in gate levels (leaves are level 0)."""
        if not self.ops:
            return 0
        level = [0] * len(self.ops)
        for nid, fins in enumerate(self.fanins):
            if self.ops[nid] in Op.LEAVES:
                level[nid] = 0
            else:
                level[nid] = 1 + max((level[f] for f in fins), default=0)
        if not self.outputs:
            return max(level, default=0)
        return max(level[n] for n in self.outputs.values())

    # -- transformations ----------------------------------------------------------

    def transitive_fanin(self, roots: Iterable[int]) -> List[int]:
        """All nodes in the transitive fanin cone of ``roots`` (including them)."""
        seen = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.fanins[nid])
        return sorted(seen)

    def clone(self) -> "Circuit":
        """Deep copy of the circuit."""
        new = Circuit(name=self.name, strash=False)
        new.ops = list(self.ops)
        new.fanins = list(self.fanins)
        new.names = dict(self.names)
        new.outputs = dict(self.outputs)
        new._const_cache = dict(self._const_cache)
        return new

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        for nid, (op, fins) in enumerate(zip(self.ops, self.fanins)):
            if op not in Op.ALL:
                raise ValueError(f"node {nid}: unknown op {op!r}")
            arity = Op.ARITY[op]
            if arity is None:
                if len(fins) < 2:
                    raise ValueError(f"node {nid}: {op} needs >= 2 fanins")
            elif len(fins) != arity:
                raise ValueError(f"node {nid}: {op} needs {arity} fanins")
            for f in fins:
                if not 0 <= f < nid:
                    raise ValueError(
                        f"node {nid}: fanin {f} is not an earlier node "
                        "(topological-order invariant violated)"
                    )
        for name, nid in self.outputs.items():
            if not 0 <= nid < len(self.ops):
                raise ValueError(f"output {name!r} drives missing node {nid}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Circuit({self.name!r}, nodes={len(self.ops)}, "
            f"inputs={len(self.input_ids())}, params={len(self.param_ids())}, "
            f"outputs={len(self.outputs)})"
        )
