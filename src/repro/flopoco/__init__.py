"""FloPoCo-style floating point: format, word-level arithmetic, circuit generators."""

from .arithmetic import fp_add, fp_mac, fp_mul
from .circuits import build_fp_adder, build_fp_multiplier
from .format import EXC_INF, EXC_NAN, EXC_NORMAL, EXC_ZERO, FPFormat, PAPER_FORMAT

__all__ = [
    "fp_add",
    "fp_mac",
    "fp_mul",
    "build_fp_adder",
    "build_fp_multiplier",
    "EXC_INF",
    "EXC_NAN",
    "EXC_NORMAL",
    "EXC_ZERO",
    "FPFormat",
    "PAPER_FORMAT",
]
