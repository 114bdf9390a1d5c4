"""Truth-table based Boolean functions.

The whole tool flow (synthesis, technology mapping, TLUT/TCON extraction and
the Partial Parameterized Configuration of the DCS flow) manipulates small
Boolean functions -- at most a handful of variables, since the target FPGA
uses 4-input LUTs and parameter cones are kept small.  A compact and very
fast representation is a plain Python integer used as a bitmask over the
:math:`2^n` rows of the truth table, together with an explicit support list.

Bit ``i`` of :attr:`TruthTable.bits` holds the function value for the input
assignment whose binary encoding is ``i`` (variable 0 is the least
significant bit of the row index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

__all__ = [
    "TruthTable",
    "var_tt",
    "cofactor",
    "wire_source",
]


def _mask(num_vars: int) -> int:
    """Full bitmask for a truth table over ``num_vars`` variables."""
    return (1 << (1 << num_vars)) - 1


# Pre-computed "pattern" masks: _PATTERN[v][n] is the truth table (over n
# variables) of the projection function x_v, i.e. the table of the bare
# variable v.  Only small n are ever needed; computed lazily and cached.
_PATTERN_CACHE: dict = {}


def _var_pattern(var: int, num_vars: int) -> int:
    """Truth table bits of the projection function ``x_var`` on ``num_vars`` vars."""
    key = (var, num_vars)
    cached = _PATTERN_CACHE.get(key)
    if cached is not None:
        return cached
    if var >= num_vars:
        raise ValueError(f"variable {var} out of range for {num_vars} variables")
    bits = 0
    block = 1 << var          # run length of equal values
    period = block << 1       # repetition period
    rows = 1 << num_vars
    for start in range(block, rows, period):
        bits |= ((1 << block) - 1) << start
    _PATTERN_CACHE[key] = bits
    return bits


@dataclass(frozen=True)
class TruthTable:
    """An ``n``-variable Boolean function stored as a truth-table bitmask.

    Parameters
    ----------
    num_vars:
        Number of input variables.
    bits:
        Integer whose bit ``i`` is the output for input assignment ``i``.

    The class is immutable and hashable so tables can be used as dict keys
    (e.g. for structural hashing of LUT contents).
    """

    num_vars: int
    bits: int

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        object.__setattr__(self, "bits", self.bits & _mask(self.num_vars))

    # -- basic queries -----------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of truth-table rows (:math:`2^n`)."""
        return 1 << self.num_vars

    def value(self, assignment: int) -> int:
        """Output value (0/1) for the input assignment encoded as an integer."""
        if not 0 <= assignment < self.num_rows:
            raise ValueError("assignment out of range")
        return (self.bits >> assignment) & 1

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Evaluate the function on a sequence of 0/1 input values."""
        if len(inputs) != self.num_vars:
            raise ValueError("wrong number of inputs")
        idx = 0
        for i, v in enumerate(inputs):
            if v:
                idx |= 1 << i
        return (self.bits >> idx) & 1

    def is_const0(self) -> bool:
        """True if the function is identically 0."""
        return self.bits == 0

    def is_const1(self) -> bool:
        """True if the function is identically 1."""
        return self.bits == _mask(self.num_vars)

    def depends_on(self, var: int) -> bool:
        """True if the function actually depends on variable ``var``."""
        pat = _var_pattern(var, self.num_vars)
        pos = self.bits & pat
        neg = self.bits & ~pat & _mask(self.num_vars)
        # Shift the positive cofactor down onto the negative cofactor rows.
        return (pos >> (1 << var)) != neg

    def support(self) -> Tuple[int, ...]:
        """Indices of the variables the function truly depends on."""
        return tuple(v for v in range(self.num_vars) if self.depends_on(v))

    # -- Boolean algebra ---------------------------------------------------

    def _check_compat(self, other: "TruthTable") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("truth tables must have the same number of variables")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.num_vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.num_vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.num_vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compat(other)
        return TruthTable(self.num_vars, self.bits ^ other.bits)

    # -- restructuring -----------------------------------------------------

    def expand(self, num_vars: int, placement: Sequence[int]) -> "TruthTable":
        """Re-express the function over a larger variable set.

        ``placement[i]`` gives the position of this table's variable ``i`` in
        the new variable ordering.  Used when composing cut functions whose
        leaves are drawn from a shared leaf set.
        """
        if len(placement) != self.num_vars:
            raise ValueError("placement must name every current variable")
        out = 0
        for row in range(1 << num_vars):
            idx = 0
            for i, pos in enumerate(placement):
                if (row >> pos) & 1:
                    idx |= 1 << i
            if (self.bits >> idx) & 1:
                out |= 1 << row
        return TruthTable(num_vars, out)

    def shrink_to_support(self) -> Tuple["TruthTable", Tuple[int, ...]]:
        """Drop variables the function does not depend on.

        Returns the reduced table and the tuple of retained original
        variable indices (in order).
        """
        sup = self.support()
        new_n = len(sup)
        out = 0
        for new_row in range(1 << new_n):
            idx = 0
            for new_pos, old_var in enumerate(sup):
                if (new_row >> new_pos) & 1:
                    idx |= 1 << old_var
            if (self.bits >> idx) & 1:
                out |= 1 << new_row
        return TruthTable(new_n, out), sup

    def __str__(self) -> str:  # pragma: no cover - debug helper
        width = self.num_rows
        return f"TT({self.num_vars}v, {self.bits:0{width}b})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def var_tt(var: int, num_vars: int) -> TruthTable:
    """Projection function ``x_var`` over ``num_vars`` variables."""
    return TruthTable(num_vars, _var_pattern(var, num_vars))


# ---------------------------------------------------------------------------
# Cofactoring and wire detection (used by TCONMAP)
# ---------------------------------------------------------------------------

def cofactor(tt: TruthTable, var: int, value: int) -> TruthTable:
    """Shannon cofactor of ``tt`` with respect to ``var`` = ``value``.

    The result is still expressed over the same variable set; the selected
    variable simply becomes a don't-care.
    """
    pat = _var_pattern(var, tt.num_vars)
    block = 1 << var
    full = _mask(tt.num_vars)
    if value:
        pos = tt.bits & pat
        return TruthTable(tt.num_vars, (pos | (pos >> block)) & full)
    neg = tt.bits & ~pat & full
    return TruthTable(tt.num_vars, (neg | (neg << block)) & full)


def restrict(tt: TruthTable, assignment: dict) -> TruthTable:
    """Cofactor ``tt`` under a partial assignment ``{var: 0/1}``."""
    out = tt
    for var, value in assignment.items():
        out = cofactor(out, var, value)
    return out


def wire_source(tt: TruthTable, data_vars: Iterable[int]):
    """Identify which data variable (or constant) a wire-function passes through.

    Returns a tuple ``(kind, var, inverted)`` where ``kind`` is one of
    ``"const0"``, ``"const1"`` or ``"var"``.  Raises ``ValueError`` if the
    function is not a wire function over ``data_vars``.
    """
    if tt.is_const0():
        return ("const0", None, False)
    if tt.is_const1():
        return ("const1", None, False)
    for v in data_vars:
        pat = var_tt(v, tt.num_vars)
        if tt.bits == pat.bits:
            return ("var", v, False)
        if tt.bits == (~pat).bits:
            return ("var", v, True)
    raise ValueError("function is not a wire function over the given variables")
