"""Value operands of the mini-IR.

The mini-IR is a register machine: instructions read *operands* and write a
*destination register*.  Operands are one of:

* :class:`Reg` -- a named virtual register (also used for kernel parameters
  and for the handles of declared shared-memory arrays, which are bound to
  registers of the same name when a kernel starts executing).
* :class:`Const` -- an immediate constant (int, float or bool).

The representation purposefully differs from LLVM's SSA form: GEVO's
mutation operators act at instruction granularity (copy / delete / move /
replace / swap and operand replacement), and a plain register machine
admits those operators without dominance-frontier repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Number = Union[int, float, bool]


@dataclass(frozen=True)
class Reg:
    """A reference to a named virtual register."""

    name: str

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("register name must be a non-empty string")

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Const:
    """An immediate constant operand."""

    value: Number

    def __post_init__(self):
        if isinstance(self.value, bool):
            return
        if not isinstance(self.value, (int, float)):
            raise ValueError(f"constant must be int, float or bool, got {type(self.value)!r}")

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


Value = Union[Reg, Const]


def as_value(obj) -> Value:
    """Coerce *obj* into an IR operand.

    Strings become registers, numbers become constants, and existing
    :class:`Reg`/:class:`Const` instances pass through unchanged.
    """
    if isinstance(obj, (Reg, Const)):
        return obj
    if isinstance(obj, str):
        return Reg(obj)
    if isinstance(obj, (bool, int, float)):
        return Const(obj)
    raise TypeError(f"cannot convert {obj!r} to an IR value")


def format_value(value: Value) -> str:
    """Render an operand in the textual IR syntax."""
    return str(as_value(value))
