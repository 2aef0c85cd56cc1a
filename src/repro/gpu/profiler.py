"""Execution profiler for the simulated GPU.

Plays the role ``nvprof`` plays in the paper's analysis: it attributes
executed cycles and execution counts to individual IR instructions (by
uid) and aggregates them by source location, which is what the
weak-edit-removal step (Algorithm 1, Section V-A) and the boundary-check
analysis (Section VI-D) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..ir.function import Function
from ..ir.instructions import Instruction


@dataclass
class InstructionProfile:
    """Aggregate statistics for one static instruction."""

    uid: int
    opcode: str
    location: Optional[str]
    executions: int = 0
    cycles: float = 0.0

    def record(self, cycles: float) -> None:
        self.executions += 1
        self.cycles += cycles


@dataclass
class ProfileCollector:
    """Collects per-instruction execution statistics during a launch."""

    enabled: bool = True
    instructions: Dict[int, InstructionProfile] = field(default_factory=dict)
    #: JIT-tier cache of per-segment ``(InstructionProfile, cost)`` bindings
    #: (see :mod:`repro.gpu.jitted`), shared by every warp of the launch so
    #: compiled segments bump profile objects directly.
    jit_bindings: Dict[int, tuple] = field(default_factory=dict, repr=False,
                                           compare=False)

    def record(self, instruction: Instruction, cycles: float) -> None:
        # The segment JIT (repro.gpu.jitted) inlines this
        # get-or-create-then-bump body for speed; keep the two in sync.
        if not self.enabled:
            return
        profile = self.instructions.get(instruction.uid)
        if profile is None:
            location = str(instruction.loc) if instruction.loc is not None else None
            profile = InstructionProfile(instruction.uid, instruction.opcode, location)
            self.instructions[instruction.uid] = profile
        profile.record(cycles)

    # -- report helpers ----------------------------------------------------------
    def total_cycles(self) -> float:
        return sum(p.cycles for p in self.instructions.values())

    def total_executions(self) -> int:
        return sum(p.executions for p in self.instructions.values())

    def hottest(self, top: int = 10) -> Tuple[InstructionProfile, ...]:
        """The *top* instructions by attributed cycles."""
        ranked = sorted(self.instructions.values(), key=lambda p: p.cycles, reverse=True)
        return tuple(ranked[:top])

    def by_opcode_category(self, function: Function) -> Dict[str, float]:
        """Cycles aggregated per opcode category for instructions of *function*.

        Used to reproduce observations such as "31% of the kernel
        instructions were performing boundary-comparison logic".
        """
        categories: Dict[str, float] = {}
        uid_to_category = {inst.uid: inst.info.category for inst in function.instructions()}
        for uid, profile in self.instructions.items():
            category = uid_to_category.get(uid, "other")
            categories[category] = categories.get(category, 0.0) + profile.cycles
        return categories

    def fraction_of_cycles(self, uids) -> float:
        """Fraction of all attributed cycles spent in the given instruction uids."""
        total = self.total_cycles()
        if total <= 0:
            return 0.0
        subset = sum(self.instructions[uid].cycles for uid in uids if uid in self.instructions)
        return subset / total

    def merge(self, other: "ProfileCollector") -> None:
        """Fold another collector's statistics into this one."""
        for uid, profile in other.instructions.items():
            mine = self.instructions.get(uid)
            if mine is None:
                self.instructions[uid] = InstructionProfile(
                    profile.uid, profile.opcode, profile.location,
                    profile.executions, profile.cycles,
                )
            else:
                mine.executions += profile.executions
                mine.cycles += profile.cycles
