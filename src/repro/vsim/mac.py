"""Functional model of one Processing Element (MAC operator).

The cycle-level behaviour matches the PE datapath of
:mod:`repro.core.pe` plus the iteration counter the paper describes: the
settings register holds the coefficient and a count limit; the PE multiplies
each incoming sample by the coefficient, accumulates, and raises ``done``
after ``count_limit`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.pe import PEOp
from ..core.settings import PESettings
from ..flopoco.arithmetic import fp_add, fp_mul
from ..flopoco.format import FPFormat

__all__ = ["MACUnit"]


@dataclass
class MACUnit:
    """Stateful functional model of one PE.

    All values are FloPoCo-encoded integers; use the format's
    ``encode``/``decode`` to convert to Python floats.
    """

    fmt: FPFormat
    settings: PESettings
    acc: int = 0          #: internal accumulator (FloPoCo word)
    counter: int = 0

    def __post_init__(self) -> None:
        self.acc = self.fmt.encode(0.0)

    @property
    def iterative(self) -> bool:
        """True when the PE accumulates internally over several samples."""
        return self.settings.count_limit > 1

    def step(self, sample: int, acc_in: int) -> Tuple[int, bool]:
        """Process one sample; returns ``(output_word, done_flag)``.

        ``sample`` feeds the multiplier operand, ``acc_in`` the adder operand
        (as selected by the intra-connect); both are FloPoCo words.
        """
        fmt = self.fmt
        coeff = self.settings.coefficient
        op = self.settings.op

        if op == PEOp.BYPASS:
            return sample, True
        if op == PEOp.BYPASS_B:
            return acc_in, True
        if op == PEOp.MUL:
            return fp_mul(fmt, sample, coeff), True

        # MAC
        product = fp_mul(fmt, sample, coeff)
        if not self.iterative:
            return fp_add(fmt, acc_in, product), True

        self.acc = fp_add(fmt, self.acc, product)
        self.counter += 1
        done = self.counter >= self.settings.count_limit
        out = self.acc
        if done:
            self.acc = fmt.encode(0.0)
            self.counter = 0
        return out, done
