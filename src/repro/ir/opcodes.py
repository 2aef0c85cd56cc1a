"""Opcode registry for the mini-IR.

Each opcode is described by an :class:`OpcodeInfo` record holding its
operand arity, whether it produces a result register, and classification
flags that the verifier, the mutation operators and the GPU cost model all
consult.  Keeping this metadata in one table ensures the three subsystems
never disagree about what an instruction *is*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode."""

    name: str
    #: Number of operands, or ``None`` for variable arity.
    arity: Optional[int]
    #: Whether the instruction writes a destination register.
    has_dest: bool
    #: Category string: ``arith``, ``cmp``, ``memory``, ``atomic``,
    #: ``control``, ``sync``, ``intrinsic``, ``misc``.
    category: str
    #: Terminators end a basic block (br / condbr / ret).
    is_terminator: bool = False
    #: True for loads/stores/atomics (anything touching a memory space).
    touches_memory: bool = False
    #: True for warp/block synchronisation points.
    is_barrier: bool = False
    #: True if GEVO may not delete / move this opcode (only terminators).
    pinned: bool = False
    #: Extra attribute keys the instruction is expected to carry.
    attr_keys: Tuple[str, ...] = field(default_factory=tuple)


_REGISTRY: Dict[str, OpcodeInfo] = {}


def _register(info: OpcodeInfo) -> None:
    if info.name in _REGISTRY:
        raise ValueError(f"duplicate opcode {info.name}")
    _REGISTRY[info.name] = info


def _arith(name: str, arity: int = 2) -> None:
    _register(OpcodeInfo(name, arity, True, "arith"))


def _cmp(name: str) -> None:
    _register(OpcodeInfo(name, 2, True, "cmp"))


def _intrinsic(name: str, arity: int = 0) -> None:
    _register(OpcodeInfo(name, arity, True, "intrinsic"))


# --- arithmetic / logic -----------------------------------------------------
for _op in ("add", "sub", "mul", "div", "rem", "min", "max",
            "and", "or", "xor", "shl", "shr"):
    _arith(_op)
_arith("neg", 1)
_arith("not", 1)
_arith("abs", 1)
_arith("mov", 1)
_arith("ftoi", 1)
_arith("itof", 1)
_register(OpcodeInfo("select", 3, True, "arith"))
_register(OpcodeInfo("fma", 3, True, "arith"))

# --- comparisons ------------------------------------------------------------
for _op in ("cmp.eq", "cmp.ne", "cmp.lt", "cmp.le", "cmp.gt", "cmp.ge"):
    _cmp(_op)

# --- memory -----------------------------------------------------------------
_register(OpcodeInfo("load", 2, True, "memory", touches_memory=True))
_register(OpcodeInfo("store", 3, False, "memory", touches_memory=True))
_register(OpcodeInfo("memset", 3, False, "memory", touches_memory=True))
_register(OpcodeInfo("atomic.add", 3, True, "atomic", touches_memory=True))
_register(OpcodeInfo("atomic.max", 3, True, "atomic", touches_memory=True))
_register(OpcodeInfo("atomic.exch", 3, True, "atomic", touches_memory=True))
_register(OpcodeInfo("atomic.cas", 4, True, "atomic", touches_memory=True))

# --- control flow -----------------------------------------------------------
_register(OpcodeInfo("br", 0, False, "control", is_terminator=True, pinned=True,
                     attr_keys=("target",)))
_register(OpcodeInfo("condbr", 1, False, "control", is_terminator=True, pinned=True,
                     attr_keys=("true_target", "false_target")))
_register(OpcodeInfo("ret", 0, False, "control", is_terminator=True, pinned=True))

# --- synchronisation / warp intrinsics --------------------------------------
_register(OpcodeInfo("syncthreads", 0, False, "sync", is_barrier=True))
_register(OpcodeInfo("syncwarp", 1, False, "sync"))
_register(OpcodeInfo("shfl.sync", 3, True, "sync"))
_register(OpcodeInfo("shfl.up.sync", 3, True, "sync"))
_register(OpcodeInfo("shfl.down.sync", 3, True, "sync"))
_register(OpcodeInfo("ballot.sync", 2, True, "sync"))
_register(OpcodeInfo("activemask", 0, True, "sync"))

# --- thread / block identity intrinsics -------------------------------------
for _op in ("tid.x", "tid.y", "bid.x", "bid.y",
            "bdim.x", "bdim.y", "gdim.x", "gdim.y",
            "laneid", "warpid"):
    _intrinsic(_op)

# --- misc -------------------------------------------------------------------
_register(OpcodeInfo("rand.uniform", 3, True, "intrinsic"))
_register(OpcodeInfo("nop", 0, False, "misc"))


def opcode_info(name: str) -> OpcodeInfo:
    """Look up the :class:`OpcodeInfo` for *name*.

    Raises ``KeyError`` with a helpful message for unknown opcodes.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown opcode {name!r}") from None


def is_known_opcode(name: str) -> bool:
    """Return ``True`` if *name* is a registered opcode."""
    return name in _REGISTRY


TERMINATORS = frozenset(op for op, info in _REGISTRY.items() if info.is_terminator)
MEMORY_OPCODES = frozenset(op for op, info in _REGISTRY.items() if info.touches_memory)
BARRIER_OPCODES = frozenset(op for op, info in _REGISTRY.items() if info.is_barrier)
