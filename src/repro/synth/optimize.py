"""ABC-style logic optimization passes.

The paper pushes the Processing Element description through Quartus synthesis
followed by logic optimization with the ABC tool before handing it to
TCONMAP.  This module reproduces the relevant subset of that step: structural
hashing, constant propagation with Boolean identities, buffer collapsing and
dead-node sweeping, iterated to a fixpoint.

Every pass is implemented as a rewrite that produces a *new* circuit plus a
mapping from old node ids to new node ids; passes never mutate their input.
This keeps the topological-order invariant of
:class:`~repro.netlist.circuit.Circuit` intact and makes the passes easy to
compose and to test in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit, Op

__all__ = ["RewriteResult", "rewrite", "sweep", "optimize", "OptimizeReport"]


@dataclass
class RewriteResult:
    """Outcome of a rewrite pass: the new circuit and the old->new node map."""

    circuit: Circuit
    node_map: Dict[int, int]


@dataclass
class OptimizeReport:
    """Summary of an :func:`optimize` run."""

    iterations: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    gates_before: int = 0
    gates_after: int = 0
    passes: List[str] = field(default_factory=list)



# ---------------------------------------------------------------------------
# Core rewriting pass: constant folding + identity simplification + strash
# ---------------------------------------------------------------------------

def _resolve_const(circuit: Circuit, nid: int) -> Optional[int]:
    """Return 0/1 if the (new-circuit) node is a constant, else None."""
    op = circuit.ops[nid]
    if op == Op.CONST0:
        return 0
    if op == Op.CONST1:
        return 1
    return None


def _simplify_variadic(
    new: Circuit, op: str, fanins: Tuple[int, ...]
) -> int:
    """Simplify an AND/OR/XOR (and negated forms) gate over already-rewritten fanins."""
    negate = op in (Op.NAND, Op.NOR, Op.XNOR)
    base = {Op.NAND: Op.AND, Op.NOR: Op.OR, Op.XNOR: Op.XOR}.get(op, op)

    consts = []
    operands: List[int] = []
    seen = set()
    for f in fanins:
        cv = _resolve_const(new, f)
        if cv is not None:
            consts.append(cv)
            continue
        if base in (Op.AND, Op.OR):
            if f in seen:
                continue  # x & x = x ; x | x = x
            seen.add(f)
            operands.append(f)
        else:  # XOR: pairs cancel
            if f in seen:
                seen.remove(f)
                operands.remove(f)
            else:
                seen.add(f)
                operands.append(f)

    if base == Op.AND:
        if 0 in consts:
            result = new.const(0)
            return new.g_not(result) if negate else result
        # 1s are identity elements: drop them.
    elif base == Op.OR:
        if 1 in consts:
            result = new.const(1)
            return new.g_not(result) if negate else result
    else:  # XOR
        parity = sum(consts) & 1
        if parity:
            # fold the constant-1 parity into a final inversion
            negate = not negate

    if not operands:
        if base == Op.AND:
            value = 1
        elif base == Op.OR:
            value = 0
        else:
            value = 0
        result = new.const(value)
    elif len(operands) == 1:
        result = operands[0]
    else:
        result = new.gate(base, *operands)

    if negate:
        cv = _resolve_const(new, result)
        if cv is not None:
            return new.const(1 - cv)
        return new.g_not(result)
    return result


def _simplify_gate(new: Circuit, op: str, fanins: Tuple[int, ...]) -> int:
    """Create a simplified version of a gate in the new circuit."""
    if op == Op.BUF:
        return fanins[0]

    if op == Op.NOT:
        (a,) = fanins
        cv = _resolve_const(new, a)
        if cv is not None:
            return new.const(1 - cv)
        if new.ops[a] == Op.NOT:
            return new.fanins[a][0]  # double negation
        return new.g_not(a)

    if op == Op.MUX:
        sel, d0, d1 = fanins
        sv = _resolve_const(new, sel)
        if sv is not None:
            return d1 if sv else d0
        if d0 == d1:
            return d0
        c0, c1 = _resolve_const(new, d0), _resolve_const(new, d1)
        if c0 == 0 and c1 == 1:
            return sel
        if c0 == 1 and c1 == 0:
            return _simplify_gate(new, Op.NOT, (sel,))
        if c0 == 0:
            return _simplify_variadic(new, Op.AND, (sel, d1))
        if c1 == 1:
            return _simplify_variadic(new, Op.OR, (sel, d0))
        if c0 == 1:
            return _simplify_variadic(new, Op.OR, (_simplify_gate(new, Op.NOT, (sel,)), d1))
        if c1 == 0:
            return _simplify_variadic(new, Op.AND, (_simplify_gate(new, Op.NOT, (sel,)), d0))
        return new.g_mux(sel, d0, d1)

    return _simplify_variadic(new, op, fanins)


def rewrite(
    circuit: Circuit, param_values: Optional[Dict[int, int]] = None
) -> RewriteResult:
    """One pass of constant folding, identity simplification and strashing.

    Parameters
    ----------
    circuit:
        Input circuit (not modified).
    param_values:
        Optional mapping from *parameter node id* to a constant 0/1 value.
        Supplying it turns this pass into the specialization rewriting used
        by the SCG: parameter inputs are replaced by constants and the logic
        collapses accordingly (symbolic constant propagation).
    """
    param_values = param_values or {}
    new = Circuit(name=circuit.name, strash=True)
    node_map: Dict[int, int] = {}

    for nid, op in enumerate(circuit.ops):
        name = circuit.names.get(nid)
        if op == Op.INPUT:
            node_map[nid] = new.add_input(name or f"in{nid}")
        elif op == Op.PARAM:
            if nid in param_values:
                node_map[nid] = new.const(1 if param_values[nid] else 0)
            else:
                node_map[nid] = new.add_param(name or f"param{nid}")
        elif op == Op.CONST0:
            node_map[nid] = new.const(0)
        elif op == Op.CONST1:
            node_map[nid] = new.const(1)
        else:
            fins = tuple(node_map[f] for f in circuit.fanins[nid])
            node_map[nid] = _simplify_gate(new, op, fins)

    for out_name, out_nid in circuit.outputs.items():
        new.add_output(out_name, node_map[out_nid])
    return RewriteResult(new, node_map)


# ---------------------------------------------------------------------------
# Dead-node sweep
# ---------------------------------------------------------------------------

def sweep(circuit: Circuit, keep_dangling_inputs: bool = True) -> RewriteResult:
    """Remove nodes not reachable from any primary output.

    Primary inputs and parameters are preserved by default (their presence
    defines the interface of the design) even if they end up unused -- this
    matters for the PE, whose settings-register bits may be untouched by a
    particular function yet must remain part of the port list.
    """
    live = set(circuit.transitive_fanin(circuit.outputs.values()))
    new = Circuit(name=circuit.name)
    node_map: Dict[int, int] = {}
    for nid, op in enumerate(circuit.ops):
        keep = nid in live or (keep_dangling_inputs and op in (Op.INPUT, Op.PARAM))
        if not keep:
            continue
        name = circuit.names.get(nid)
        if op == Op.INPUT:
            node_map[nid] = new.add_input(name or f"in{nid}")
        elif op == Op.PARAM:
            node_map[nid] = new.add_param(name or f"param{nid}")
        elif op == Op.CONST0:
            node_map[nid] = new.const(0)
        elif op == Op.CONST1:
            node_map[nid] = new.const(1)
        else:
            fins = tuple(node_map[f] for f in circuit.fanins[nid])
            node_map[nid] = new._new_node(op, fins, name)
    for out_name, out_nid in circuit.outputs.items():
        new.add_output(out_name, node_map[out_nid])
    return RewriteResult(new, node_map)


# ---------------------------------------------------------------------------
# Fixpoint driver
# ---------------------------------------------------------------------------

def optimize(
    circuit: Circuit,
    param_values: Optional[Dict[int, int]] = None,
    max_iterations: int = 8,
) -> Tuple[Circuit, OptimizeReport]:
    """Iterate rewriting and sweeping until the circuit stops shrinking.

    Returns the optimized circuit and an :class:`OptimizeReport`.
    """
    report = OptimizeReport(
        nodes_before=len(circuit),
        gates_before=circuit.num_gates(),
    )
    current = circuit
    params = param_values
    for it in range(max_iterations):
        result = rewrite(current, params)
        params = None  # parameters are substituted only on the first pass
        swept = sweep(result.circuit)
        report.passes.extend(["rewrite", "sweep"])
        report.iterations = it + 1
        if len(swept.circuit) >= len(current) and it > 0:
            current = swept.circuit
            break
        shrunk = len(swept.circuit) < len(current)
        current = swept.circuit
        if not shrunk and it > 0:
            break
    report.nodes_after = len(current)
    report.gates_after = current.num_gates()
    return current, report
