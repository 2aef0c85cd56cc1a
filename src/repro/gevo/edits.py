"""GEVO edit operators over the mini-IR.

GEVO represents an individual as an ordered list of *edits* applied to the
original kernel module.  The edit vocabulary follows the paper (Section
II-A): an edit either operates on a whole instruction -- copy, delete,
move, replace, swap -- or replaces one operand of an instruction with
another value already present in the kernel.

Edits address instructions by their stable *uid*, so the same edit list can
be replayed on a fresh fork of the original module (which is how fitness
evaluation, edit minimization and the epistasis analysis all work).
Applying an edit can fail -- for example the targeted instruction was
removed by an earlier edit -- in which case :class:`~repro.errors.EditError`
is raised, the module is left as it was, and the caller decides whether to
skip the edit or invalidate the individual.  An edit checks all its
preconditions before it takes write access to a block through
:func:`_writable_block`, which is what lets a variant forked with
:meth:`~repro.ir.function.Module.fork` share every kernel it does not write
with the original.

Terminators (``br`` / ``condbr`` / ``ret``) are *pinned*: they may not be
deleted, moved, replaced or copied.  This keeps every variant structurally
executable, mirroring GEVO's LLVM-level restrictions; variants can still be
semantically wrong and fail their test cases.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from ..errors import EditError
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import Instruction
from ..ir.values import Const, Reg, Value, as_value


def _locate(module: Module, uid: int, edit: "Edit") -> Tuple[Function, BasicBlock, int]:
    found = module.find_instruction(uid)
    if found is None:
        raise EditError(f"instruction uid={uid} not present in module", edit)
    return found


def _check_not_pinned(instruction: Instruction, edit: "Edit", action: str) -> None:
    if instruction.info.pinned:
        raise EditError(f"cannot {action} pinned instruction {instruction.opcode!r}", edit)


def _writable_block(module: Module, function: Function, block: BasicBlock) -> BasicBlock:
    """*block* of *function* as *module* may change it: a function the module
    borrows is cloned first (:meth:`Module.writable`), at the same indices."""
    return module.writable(function.name).blocks[block.label]


class Edit(abc.ABC):
    """Base class of all GEVO edits."""

    #: Short tag used in textual descriptions and serialisation.
    kind: str = "edit"

    @abc.abstractmethod
    def apply(self, module: Module) -> None:
        """Apply the edit to *module* in place, writing only blocks obtained
        from :func:`_writable_block` once every precondition holds; on
        failure raise :class:`EditError` and leave *module* unchanged."""

    @abc.abstractmethod
    def key(self) -> Tuple:
        """Hashable identity of the edit (used for dedup and discovery tracking)."""

    @abc.abstractmethod
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation (used for recorded edit sets)."""

    def describe(self, module: Optional[Module] = None) -> str:
        """Human-readable description, optionally annotated with source locations."""
        text = f"{self.kind}({', '.join(str(v) for v in self.key()[1:])})"
        if module is not None:
            uid = self.key()[1] if len(self.key()) > 1 else None
            if isinstance(uid, int):
                found = module.find_instruction(uid)
                if found is not None:
                    _, block, index = found
                    inst = block.instructions[index]
                    if inst.loc is not None:
                        text += f" @ {inst.loc}"
        return text

    def __eq__(self, other) -> bool:
        return isinstance(other, Edit) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return self.describe()


class InstructionDelete(Edit):
    """Remove one instruction."""

    kind = "delete"

    def __init__(self, target_uid: int):
        self.target_uid = int(target_uid)

    def apply(self, module: Module) -> None:
        function, block, index = _locate(module, self.target_uid, self)
        _check_not_pinned(block.instructions[index], self, "delete")
        del _writable_block(module, function, block).instructions[index]

    def key(self) -> Tuple:
        return (self.kind, self.target_uid)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "target_uid": self.target_uid}


class InstructionCopy(Edit):
    """Insert a copy of one instruction immediately before another."""

    kind = "copy"

    def __init__(self, source_uid: int, before_uid: int):
        self.source_uid = int(source_uid)
        self.before_uid = int(before_uid)

    def apply(self, module: Module) -> None:
        _, source_block, source_index = _locate(module, self.source_uid, self)
        source = source_block.instructions[source_index]
        _check_not_pinned(source, self, "copy")
        function, dest_block, dest_index = _locate(module, self.before_uid, self)
        _writable_block(module, function, dest_block).insert(dest_index, source.duplicate())

    def key(self) -> Tuple:
        return (self.kind, self.source_uid, self.before_uid)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "source_uid": self.source_uid, "before_uid": self.before_uid}


class InstructionMove(Edit):
    """Move one instruction so it executes immediately before another."""

    kind = "move"

    def __init__(self, source_uid: int, before_uid: int):
        self.source_uid = int(source_uid)
        self.before_uid = int(before_uid)

    def apply(self, module: Module) -> None:
        if self.source_uid == self.before_uid:
            raise EditError("cannot move an instruction before itself", self)
        source_function, source_block, source_index = _locate(module, self.source_uid, self)
        _check_not_pinned(source_block.instructions[source_index], self, "move")
        dest_function, dest_block, _ = _locate(module, self.before_uid, self)
        source_block = _writable_block(module, source_function, source_block)
        dest_block = _writable_block(module, dest_function, dest_block)
        source = source_block.instructions.pop(source_index)
        dest_block.insert(dest_block.index_of_uid(self.before_uid), source)

    def key(self) -> Tuple:
        return (self.kind, self.source_uid, self.before_uid)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "source_uid": self.source_uid, "before_uid": self.before_uid}


class InstructionReplace(Edit):
    """Replace one instruction with a copy of another.

    The replacement keeps the *target's* destination register when both
    instructions produce a value, which is how GEVO keeps downstream uses
    plausible; otherwise the copy is inserted verbatim.
    """

    kind = "replace"

    def __init__(self, target_uid: int, source_uid: int):
        self.target_uid = int(target_uid)
        self.source_uid = int(source_uid)

    def apply(self, module: Module) -> None:
        if self.target_uid == self.source_uid:
            raise EditError("cannot replace an instruction with itself", self)
        _, source_block, source_index = _locate(module, self.source_uid, self)
        source = source_block.instructions[source_index]
        _check_not_pinned(source, self, "use as replacement")
        function, target_block, target_index = _locate(module, self.target_uid, self)
        target = target_block.instructions[target_index]
        _check_not_pinned(target, self, "replace")
        replacement = source.duplicate()
        if replacement.dest is not None and target.dest is not None:
            replacement.dest = target.dest
        _writable_block(module, function, target_block).instructions[target_index] = replacement

    def key(self) -> Tuple:
        return (self.kind, self.target_uid, self.source_uid)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "target_uid": self.target_uid, "source_uid": self.source_uid}


class InstructionSwap(Edit):
    """Exchange the positions of two instructions."""

    kind = "swap"

    def __init__(self, first_uid: int, second_uid: int):
        self.first_uid = int(first_uid)
        self.second_uid = int(second_uid)

    def apply(self, module: Module) -> None:
        if self.first_uid == self.second_uid:
            raise EditError("cannot swap an instruction with itself", self)
        first_function, first_block, first_index = _locate(module, self.first_uid, self)
        second_function, second_block, second_index = _locate(module, self.second_uid, self)
        _check_not_pinned(first_block.instructions[first_index], self, "swap")
        _check_not_pinned(second_block.instructions[second_index], self, "swap")
        first = _writable_block(module, first_function, first_block).instructions
        second = _writable_block(module, second_function, second_block).instructions
        first[first_index], second[second_index] = second[second_index], first[first_index]

    def key(self) -> Tuple:
        return (self.kind, self.first_uid, self.second_uid)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "first_uid": self.first_uid, "second_uid": self.second_uid}


class OperandReplace(Edit):
    """Replace one operand of an instruction with another value.

    This is the edit class behind the paper's most interesting discoveries
    (edits 5, 6, 8 and 10 of ADEPT-V1 all replace an ``if`` condition or an
    index with an existing boolean / index value, Figure 9).
    """

    kind = "operand"

    def __init__(self, target_uid: int, operand_index: int, new_value: Value):
        self.target_uid = int(target_uid)
        self.operand_index = int(operand_index)
        self.new_value = as_value(new_value)

    def apply(self, module: Module) -> None:
        function, block, index = _locate(module, self.target_uid, self)
        if not 0 <= self.operand_index < len(block.instructions[index].operands):
            raise EditError(
                f"operand index {self.operand_index} out of range for uid={self.target_uid}", self)
        instruction = _writable_block(module, function, block).instructions[index]
        instruction.replace_operand(self.operand_index, self.new_value)

    def key(self) -> Tuple:
        if isinstance(self.new_value, Reg):
            value_key = ("reg", self.new_value.name)
        else:
            value_key = ("const", self.new_value.value)
        return (self.kind, self.target_uid, self.operand_index, value_key)

    def to_dict(self) -> Dict[str, object]:
        if isinstance(self.new_value, Reg):
            value = {"reg": self.new_value.name}
        else:
            value = {"const": self.new_value.value}
        return {"kind": self.kind, "target_uid": self.target_uid,
                "operand_index": self.operand_index, "new_value": value}


_EDIT_CLASSES = {
    cls.kind: cls
    for cls in (InstructionDelete, InstructionCopy, InstructionMove,
                InstructionReplace, InstructionSwap, OperandReplace)
}


def edit_from_dict(data: Dict[str, object]) -> Edit:
    """Reconstruct an edit from its :meth:`Edit.to_dict` form."""
    kind = data.get("kind")
    if kind == "delete":
        return InstructionDelete(data["target_uid"])
    if kind == "copy":
        return InstructionCopy(data["source_uid"], data["before_uid"])
    if kind == "move":
        return InstructionMove(data["source_uid"], data["before_uid"])
    if kind == "replace":
        return InstructionReplace(data["target_uid"], data["source_uid"])
    if kind == "swap":
        return InstructionSwap(data["first_uid"], data["second_uid"])
    if kind == "operand":
        value = data["new_value"]
        if "reg" in value:
            new_value: Value = Reg(value["reg"])
        else:
            new_value = Const(value["const"])
        return OperandReplace(data["target_uid"], data["operand_index"], new_value)
    raise EditError(f"unknown edit kind {kind!r}")


def edit_kinds() -> Tuple[str, ...]:
    """All available edit kinds."""
    return tuple(sorted(_EDIT_CLASSES))
