"""Mini-IR: a register-based GPU kernel intermediate representation.

This package plays the role LLVM-IR plays in the paper: the representation
GEVO's mutation and crossover operators act on.  See :mod:`repro.ir.values`
for why it is a register machine rather than SSA.

Public surface:

* values: :class:`Reg`, :class:`Const`
* instructions: :class:`Instruction`, :class:`SourceLoc`
* containers: :class:`Module`, :class:`Function`, :class:`BasicBlock`,
  :class:`Param`, :class:`SharedDecl`
* authoring: :class:`KernelBuilder`, :func:`build_module`
* text form: :func:`format_module`, :func:`parse_module`
* checking: :func:`verify_module`, :class:`VerificationReport`
* analysis: :func:`build_cfg`, :func:`immediate_postdominators`,
  :func:`collect_operand_pool`
"""

from .analysis import (
    build_cfg,
    collect_constants,
    collect_operand_pool,
    collect_registers,
    immediate_postdominators,
    reachable_blocks,
    static_instruction_mix,
)
from .builder import KernelBuilder, build_module
from .function import BasicBlock, Function, Module, Param, SharedDecl
from .instructions import Instruction, SourceLoc, reset_uid_namespace
from .opcodes import is_known_opcode, opcode_info
from .parser import parse_function, parse_module
from .printer import format_function, format_instruction, format_module
from .values import Const, Reg, as_value
from .verifier import VerificationReport, verify_function, verify_module

__all__ = [
    "BasicBlock",
    "Const",
    "Function",
    "Instruction",
    "KernelBuilder",
    "Module",
    "Param",
    "Reg",
    "SharedDecl",
    "SourceLoc",
    "VerificationReport",
    "as_value",
    "build_cfg",
    "build_module",
    "collect_constants",
    "collect_operand_pool",
    "collect_registers",
    "format_function",
    "format_instruction",
    "format_module",
    "immediate_postdominators",
    "is_known_opcode",
    "opcode_info",
    "parse_function",
    "parse_module",
    "reachable_blocks",
    "reset_uid_namespace",
    "static_instruction_mix",
    "verify_function",
    "verify_module",
]
