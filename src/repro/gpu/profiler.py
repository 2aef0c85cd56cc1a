"""Execution profiler for the simulated GPU.

Plays the role ``nvprof`` plays in the paper's analysis: it attributes
executed cycles and execution counts to individual IR instructions (by
uid) and aggregates them by source location, which is what the
weak-edit-removal step (Algorithm 1, Section V-A) and the boundary-check
analysis (Section VI-D) consume.

Profiles are reports of the oracle tier: an oracle launch records one
for every executed instruction, while the segment JIT -- the tier every
search evaluation runs on -- records none and returns an empty,
disabled collector.  A caller that wants a profile (the runtime's
hotspot report) launches on the oracle.
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
    """Collects per-instruction execution statistics during a launch
    (``enabled`` on the oracle tier, off on the JIT)."""

    enabled: bool = True
    instructions: Dict[int, InstructionProfile] = field(default_factory=dict)

    def record(self, instruction: Instruction, cycles: float) -> None:
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
