"""FloPoCo floating-point number format.

The paper builds its MAC Processing Element with the FloPoCo operator
generator and uses the FloPoCo floating-point format with a 6-bit exponent
and a 26-bit mantissa (fraction).  The FloPoCo format differs from IEEE-754:

* two explicit *exception bits* encode zero / normal / infinity / NaN, so no
  exponent codes are reserved;
* there are no subnormals (results below the smallest normal flush to zero);
* the significand of a normal number is ``1.fraction`` with an implicit
  leading one.

Bit layout (LSB first): ``fraction[wf-1:0] | exponent[we-1:0] | sign |
exception[1:0]``; total width ``wf + we + 3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["FPFormat", "EXC_ZERO", "EXC_NORMAL", "EXC_INF", "EXC_NAN", "PAPER_FORMAT"]

#: Exception-field encodings (two bits).
EXC_ZERO = 0
EXC_NORMAL = 1
EXC_INF = 2
EXC_NAN = 3


@dataclass(frozen=True)
class FPFormat:
    """A FloPoCo floating-point format parameterized by exponent/fraction width."""

    we: int  #: exponent width in bits
    wf: int  #: fraction (mantissa) width in bits

    def __post_init__(self) -> None:
        if self.we < 2 or self.wf < 1:
            raise ValueError("FPFormat needs we >= 2 and wf >= 1")

    # -- derived quantities ---------------------------------------------------

    @property
    def width(self) -> int:
        """Total encoded width: fraction + exponent + sign + 2 exception bits."""
        return self.wf + self.we + 3

    @property
    def bias(self) -> int:
        return (1 << (self.we - 1)) - 1

    @property
    def emax(self) -> int:
        """Largest representable (biased) exponent field value."""
        return (1 << self.we) - 1

    # -- field accessors --------------------------------------------------------

    def fraction_of(self, word: int) -> int:
        return word & ((1 << self.wf) - 1)

    def exponent_of(self, word: int) -> int:
        return (word >> self.wf) & ((1 << self.we) - 1)

    def sign_of(self, word: int) -> int:
        return (word >> (self.wf + self.we)) & 1

    def exception_of(self, word: int) -> int:
        return (word >> (self.wf + self.we + 1)) & 3

    def pack(self, exc: int, sign: int, exponent: int, fraction: int) -> int:
        """Assemble a word from its fields."""
        if not 0 <= exc <= 3:
            raise ValueError("exception field must be 0..3")
        if not 0 <= exponent <= self.emax:
            raise ValueError("exponent field out of range")
        if not 0 <= fraction < (1 << self.wf):
            raise ValueError("fraction field out of range")
        return (
            (exc << (self.wf + self.we + 1))
            | ((sign & 1) << (self.wf + self.we))
            | (exponent << self.wf)
            | fraction
        )

    def unpack(self, word: int) -> Tuple[int, int, int, int]:
        """Split a word into ``(exception, sign, exponent, fraction)``."""
        return (
            self.exception_of(word),
            self.sign_of(word),
            self.exponent_of(word),
            self.fraction_of(word),
        )

    # -- conversion to/from Python floats ------------------------------------------

    def encode(self, value: float) -> int:
        """Encode a Python float into the FloPoCo format (round to nearest)."""
        if math.isnan(value):
            return self.pack(EXC_NAN, 0, 0, 0)
        if math.isinf(value):
            return self.pack(EXC_INF, 0 if value > 0 else 1, 0, 0)
        if value == 0.0:
            sign = 1 if math.copysign(1.0, value) < 0 else 0
            return self.pack(EXC_ZERO, sign, 0, 0)
        sign = 0 if value > 0 else 1
        mag = abs(value)
        exp = math.floor(math.log2(mag))
        # Guard against log2 rounding at powers of two.
        if mag / (2.0 ** exp) >= 2.0:
            exp += 1
        elif mag / (2.0 ** exp) < 1.0:
            exp -= 1
        frac_real = mag / (2.0 ** exp) - 1.0
        frac = int(round(frac_real * (1 << self.wf)))
        if frac >= (1 << self.wf):  # rounding overflowed into the next binade
            frac = 0
            exp += 1
        biased = exp + self.bias
        if biased > self.emax:
            return self.pack(EXC_INF, sign, 0, 0)
        if biased < 0:
            return self.pack(EXC_ZERO, sign, 0, 0)
        return self.pack(EXC_NORMAL, sign, biased, frac)

    def decode(self, word: int) -> float:
        """Decode a FloPoCo word into a Python float."""
        exc, sign, exponent, fraction = self.unpack(word)
        if exc == EXC_ZERO:
            return -0.0 if sign else 0.0
        if exc == EXC_INF:
            return float("-inf") if sign else float("inf")
        if exc == EXC_NAN:
            return float("nan")
        mag = (1.0 + fraction / (1 << self.wf)) * (2.0 ** (exponent - self.bias))
        return -mag if sign else mag

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"FPFormat(we={self.we}, wf={self.wf}, width={self.width})"


#: The format used throughout the paper's evaluation (6-bit exponent, 26-bit mantissa).
PAPER_FORMAT = FPFormat(we=6, wf=26)
