"""Containers of the mini-IR: basic blocks, functions (kernels), modules.

A :class:`Module` holds one or more :class:`Function` objects (GPU kernels).
Each function has an ordered collection of :class:`BasicBlock` objects, a
parameter list, and shared-memory array declarations.  The containers offer
the lookup and copying operations GEVO needs: finding an instruction by
uid, inserting/removing instructions, deep-copying a module, and forking a
copy-on-write variant so that an edit list can be applied without
disturbing the original.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import IRError
from .instructions import Instruction

#: Per-function decode caches (see :meth:`Function.cached_decoding`), held
#: outside the instances so pickling a Function/Module never drags the
#: unpicklable decoded artifacts (closures, numpy arrays) along and the
#: entries die with their function.
_DECODE_CACHES: "weakref.WeakKeyDictionary[Function, tuple]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Param:
    """A kernel parameter.

    ``kind`` is ``"buffer"`` for pointers to global-memory arrays and
    ``"scalar"`` for plain numeric arguments.
    """

    name: str
    kind: str = "buffer"

    def __post_init__(self):
        if self.kind not in ("buffer", "scalar"):
            raise ValueError(f"parameter kind must be 'buffer' or 'scalar', got {self.kind!r}")


@dataclass(frozen=True)
class SharedDecl:
    """A per-block shared-memory array declaration."""

    name: str
    size: int
    dtype: str = "float"

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("shared array size must be positive")
        if self.dtype not in ("float", "int"):
            raise ValueError(f"shared array dtype must be 'float' or 'int', got {self.dtype!r}")


class BasicBlock:
    """A labelled sequence of instructions ending in a terminator."""

    def __init__(self, label: str, instructions: Optional[List[Instruction]] = None):
        if not label:
            raise IRError("basic block label must be non-empty")
        self.label = label
        self.instructions: List[Instruction] = list(instructions or [])

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it is a terminator, else ``None``."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> Tuple[str, ...]:
        """Labels of successor blocks according to the terminator."""
        term = self.terminator
        return term.branch_targets() if term is not None else ()

    def append(self, instruction: Instruction) -> Instruction:
        self.instructions.append(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        self.instructions.insert(index, instruction)
        return instruction

    def remove(self, instruction: Instruction) -> None:
        self.instructions.remove(instruction)

    def index_of_uid(self, uid: int) -> Optional[int]:
        for i, inst in enumerate(self.instructions):
            if inst.uid == uid:
                return i
        return None

    def clone(self) -> "BasicBlock":
        return BasicBlock(self.label, [inst.clone() for inst in self.instructions])

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instructions)} instructions)>"


class Function:
    """A GPU kernel: parameters, shared-memory declarations and basic blocks."""

    def __init__(
        self,
        name: str,
        params: Optional[List[Param]] = None,
        shared: Optional[List[SharedDecl]] = None,
    ):
        if not name:
            raise IRError("function name must be non-empty")
        self.name = name
        self.params: List[Param] = list(params or [])
        self.shared: List[SharedDecl] = list(shared or [])
        self.blocks: Dict[str, BasicBlock] = {}
        self._block_order: List[str] = []
        seen = set()
        for p in self.params:
            if p.name in seen:
                raise IRError(f"duplicate parameter name {p.name!r} in function {name!r}")
            seen.add(p.name)
        for s in self.shared:
            if s.name in seen:
                raise IRError(f"shared array {s.name!r} collides with another name in {name!r}")
            seen.add(s.name)

    # -- block management --------------------------------------------------------
    @property
    def entry_label(self) -> str:
        if not self._block_order:
            raise IRError(f"function {self.name!r} has no blocks")
        return self._block_order[0]

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_label]

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise IRError(f"duplicate block label {block.label!r} in function {self.name!r}")
        self.blocks[block.label] = block
        self._block_order.append(block.label)
        return block

    def block_order(self) -> Tuple[str, ...]:
        return tuple(self._block_order)

    # -- instruction queries -------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        """Iterate all instructions in block order."""
        for label in self._block_order:
            yield from self.blocks[label].instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def find_instruction(self, uid: int) -> Optional[Tuple[BasicBlock, int]]:
        """Locate an instruction by uid.

        Returns ``(block, index)`` or ``None`` if the uid is not present
        (for example because a prior edit deleted it).
        """
        for label in self._block_order:
            block = self.blocks[label]
            idx = block.index_of_uid(uid)
            if idx is not None:
                return block, idx
        return None

    def shared_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.shared)

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    # -- decode caching ----------------------------------------------------------
    def decode_fingerprint(self) -> Tuple:
        """Structural identity of this function's executable code.

        The fingerprint is the block-ordered sequence of per-instruction
        ``(uid, mutation_stamp)`` pairs: any insert/delete/move/swap/replace
        changes the uid sequence, and any in-place operand edit (which keeps
        the uid) advances the instruction's mutation stamp.  Two equal
        fingerprints therefore decode to the same program.
        """
        blocks = self.blocks
        return tuple(
            (label, tuple((inst.uid, inst.mutation_stamp)
                          for inst in blocks[label].instructions))
            for label in self._block_order
        )

    def cached_decoding(self, key, build: Callable[["Function"], object]):
        """Memoise ``build(self)`` until this function's IR changes.

        Used by the GPU fast path to decode a kernel once per module and
        reuse the decoded program across every launch of an evaluation
        (one fitness evaluation launches the same variant once per test
        case / simulation step).  ``key`` distinguishes decodings that bake
        in different execution parameters (warp size, cost tables).  The
        cache is validated against :meth:`decode_fingerprint`, so GEVO
        edits applied through the normal pathways invalidate it.
        """
        fingerprint = self.decode_fingerprint()
        cached = _DECODE_CACHES.get(self)
        if cached is None or cached[0] != fingerprint:
            store: Dict[object, object] = {}
            _DECODE_CACHES[self] = (fingerprint, store)
        else:
            store = cached[1]
            artifact = store.get(key)
            if artifact is not None:
                return artifact
        artifact = build(self)
        store[key] = artifact
        return artifact

    # -- copying -----------------------------------------------------------------
    def clone(self) -> "Function":
        new = Function(self.name, params=list(self.params), shared=list(self.shared))
        for label in self._block_order:
            new.add_block(self.blocks[label].clone())
        return new

    def __repr__(self) -> str:
        return (f"<Function {self.name} params={len(self.params)} "
                f"blocks={len(self.blocks)} instrs={self.instruction_count()}>")


class Module:
    """A collection of kernels forming one compilation unit."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self._function_order: List[str] = []
        #: Functions still shared with the module this one was forked from.
        self._borrowed: Set[str] = set()

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r} in module {self.name!r}")
        self.functions[function.name] = function
        self._function_order.append(function.name)
        return function

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"module {self.name!r} has no function {name!r}") from None

    def function_order(self) -> Tuple[str, ...]:
        return tuple(self._function_order)

    def instructions(self) -> Iterator[Instruction]:
        for name in self._function_order:
            yield from self.functions[name].instructions()

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def find_instruction(self, uid: int) -> Optional[Tuple[Function, BasicBlock, int]]:
        """Locate an instruction by uid across all functions."""
        for name in self._function_order:
            func = self.functions[name]
            found = func.find_instruction(uid)
            if found is not None:
                block, idx = found
                return func, block, idx
        return None

    def clone(self) -> "Module":
        new = Module(self.name)
        for name in self._function_order:
            new.add_function(self.functions[name].clone())
        return new

    def fork(self) -> "Module":
        """A copy-on-write copy that borrows every function of this module.

        Borrowed functions are this module's own objects, so they keep its
        cached decodings (:meth:`Function.cached_decoding`); the fork clones
        one only when it first writes it through :meth:`writable`.  Write a
        fork only through :meth:`writable`, and leave this module unchanged
        while forks borrow from it.
        """
        new = Module(self.name)
        new.functions = dict(self.functions)
        new._function_order = list(self._function_order)
        new._borrowed = set(self._function_order)
        return new

    def writable(self, name: str) -> Function:
        """Function *name* for writing, cloned first if it is borrowed."""
        if name in self._borrowed:
            self._borrowed.discard(name)
            self.functions[name] = self.functions[name].clone()
        return self.get_function(name)

    def __repr__(self) -> str:
        return f"<Module {self.name} functions={list(self._function_order)}>"
