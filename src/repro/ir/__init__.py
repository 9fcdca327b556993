"""repro.ir — the RISC intermediate representation.

Public surface: operand kinds, instructions/opcodes, blocks, functions,
loop discovery, the builder, the paper-notation printer and parser, and
the verifier.
"""

from .operands import (
    FImm,
    Imm,
    Label,
    Operand,
    Reg,
    RegClass,
    Sym,
    fp_reg,
    int_reg,
    is_constant,
)
from .instructions import (
    Instr,
    Kind,
    NEGATED_BRANCH,
    Op,
    OpInfo,
    OP_INFO,
    SWAPPED_BRANCH,
    make,
)
from .block import Block
from .function import EXIT_LABEL, Function, reachable_labels
from .loop import Loop, dominators, ensure_preheader, find_loops, innermost_loops, reverse_postorder
from .builder import FunctionBuilder
from .printer import format_block, format_function, format_instr, format_schedule
from .parser import ParseError, parse_block, parse_function, parse_instr, parse_operand
from .verify import VerifyError, verify_function, verify_instr

__all__ = [
    "FImm", "Imm", "Label", "Operand", "Reg", "RegClass", "Sym",
    "fp_reg", "int_reg", "is_constant",
    "Instr", "Kind", "NEGATED_BRANCH", "Op", "OpInfo", "OP_INFO",
    "SWAPPED_BRANCH", "make",
    "Block",
    "EXIT_LABEL", "Function", "reachable_labels",
    "Loop", "dominators", "ensure_preheader", "find_loops",
    "innermost_loops", "reverse_postorder",
    "FunctionBuilder",
    "format_block", "format_function", "format_instr", "format_schedule",
    "ParseError", "parse_block", "parse_function", "parse_instr", "parse_operand",
    "VerifyError", "verify_function", "verify_instr",
]
