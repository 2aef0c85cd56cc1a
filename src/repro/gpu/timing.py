"""Cycle cost model of the simulated GPU.

The model is deliberately simple -- a per-instruction issue cost plus
memory/synchronisation surcharges -- but it captures every mechanism the
paper's discovered optimizations exploit:

* **branch divergence**: the SIMT executor runs both sides of a divergent
  branch serially, so the *structure* of execution (not this module)
  accounts for the dominant cost; this module merely prices each executed
  instruction once per warp.
* **memory-space latency**: global >> shared >> registers/shuffles, with
  coalescing and bank-conflict surcharges (Section VI-A's shared-vs-register
  trade-off, Section VI-C's redundant memset traffic).
* **barriers**: ``__syncthreads`` costs issue latency here plus the warp
  round-up applied by the block scheduler (the V0 init loop pathology).
* **Volta sub-warp synchronisation**: ``ballot_sync``/``syncwarp`` are
  cheap on Pascal and expensive when
  ``arch.independent_thread_scheduling`` is set (Section VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..ir.instructions import Instruction
from .arch import GpuArch
from .memory import (
    GLOBAL_SPACE,
    SHARED_SPACE,
    BufferHandle,
    bank_conflicts,
    coalesced_transactions,
)

import numpy as np


@dataclass
class MemoryAccessInfo:
    """Runtime facts about one memory instruction needed to price it."""

    handle: BufferHandle
    indices: np.ndarray


@dataclass
class CostModel:
    """Maps executed instructions to cycle costs for a given architecture."""

    arch: GpuArch
    #: Cumulative counters for the oracle's reports (filled in as costs
    #: are charged; a JIT launch discards them).
    counters: Dict[str, float] = field(default_factory=dict)

    def _bump(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def instruction_cost(
        self,
        instruction: Instruction,
        active_lanes: int,
        memory: Optional[MemoryAccessInfo] = None,
    ) -> float:
        """Cycles charged to the issuing warp for one executed instruction.

        Launch-invariant costs come from :func:`static_instruction_cost` --
        the same function the decode step bakes from, so the reference and
        fast paths cannot drift -- leaving only the memory/atomic pricing
        (which depends on the addresses the warp touched) computed here.
        """
        static = static_instruction_cost(self.arch, instruction)
        if static is not None:
            cost, counter_key = static
            if counter_key is not None:
                self._bump(counter_key, cost)
            return cost
        return self._memory_cost(instruction, active_lanes, memory)

    # -- helpers -----------------------------------------------------------------
    def _memory_cost(
        self,
        instruction: Instruction,
        active_lanes: int,
        memory: Optional[MemoryAccessInfo],
    ) -> float:
        if memory is None:
            # A memory instruction that trapped before the access resolved.
            cost = float(self.arch.alu_latency)
            self._bump("alu_cycles", cost)
            return cost
        return self.price_access(
            memory,
            active_lanes,
            instruction.opcode in ("store", "memset"),
            instruction.info.category == "atomic",
        )

    def price_access(
        self,
        memory: MemoryAccessInfo,
        active_lanes: int,
        is_store: bool,
        is_atomic: bool,
    ) -> float:
        """Price one resolved warp memory access and bump its counters.

        The single dynamic-pricing seam of the oracle, which also prices
        the atomics the JIT runs on it (for loads and stores the JIT
        inlines the equivalent arithmetic into its generated source,
        baking the same ``GpuArch`` geometry and latencies as literals).
        Geometry -- transaction segment width and bank count -- always
        comes from the arch, never from literals.
        Every charge lands in a counter, so the counter sums equal the
        total cycles charged; ``global_transactions`` / ``shared_conflicts``
        record the per-access evidence of the oracle's reports.
        """
        arch = self.arch
        space = memory.handle.space
        if space == GLOBAL_SPACE:
            transactions = coalesced_transactions(memory.indices,
                                                  arch.memory_segment_size)
            base = arch.global_store_latency if is_store else arch.global_latency
            cost = base + arch.global_per_transaction * max(0, transactions - 1)
            if is_atomic:
                cost += (arch.atomic_latency
                         + arch.atomic_serialization * max(0, active_lanes - 1))
            self._bump("global_cycles", cost)
            self._bump("global_transactions", transactions)
            return float(cost)
        if space == SHARED_SPACE:
            conflict = bank_conflicts(memory.indices, arch.shared_banks)
            base = arch.shared_store_latency if is_store else arch.shared_latency
            cost = base + arch.shared_conflict_penalty * max(0, conflict - 1)
            if is_atomic:
                cost += (arch.atomic_latency // 2
                         + (arch.atomic_serialization // 2) * max(0, active_lanes - 1))
            self._bump("shared_cycles", cost)
            self._bump("shared_conflicts", conflict)
            return float(cost)
        cost = float(arch.alu_latency)
        self._bump("alu_cycles", cost)
        return cost


def static_instruction_cost(
    arch: GpuArch, instruction: Instruction
) -> Optional[Tuple[float, Optional[str]]]:
    """``(cycles, counter key)`` when an instruction's cost is launch-invariant.

    The single source of truth for static pricing: every category except
    memory and atomics (whose cost depends on the addresses the warp
    actually touches) prices an instruction from the architecture alone.
    :meth:`CostModel.instruction_cost` charges from this at runtime and
    the decode step bakes it into the instruction stream, so the reference
    and fast paths cannot disagree.  Returns ``None`` for the dynamic
    cases; every static charge names a counter, so the counter sums always
    equal the total cycles charged.
    """
    opcode = instruction.opcode
    if opcode in arch.cost_overrides:
        return float(arch.cost_overrides[opcode]), "override_cycles"
    category = instruction.info.category
    if category in ("arith", "cmp", "intrinsic", "misc"):
        if opcode in ("div", "rem"):
            return float(arch.special_latency), "alu_cycles"
        if opcode == "rand.uniform":
            return float(arch.rng_latency), "alu_cycles"
        return float(arch.alu_latency), "alu_cycles"
    if category == "control":
        return float(arch.branch_latency), "branch_cycles"
    if category in ("memory", "atomic"):
        return None
    if category == "sync":
        if opcode == "syncthreads":
            return float(arch.barrier_latency), "barrier_cycles"
        if opcode in ("ballot.sync", "syncwarp"):
            # The Volta-specific warp re-synchronisation cost (Section VI-B):
            # near-free on Pascal, tens of cycles on Volta.
            cost = float(arch.warp_sync_latency if arch.independent_thread_scheduling
                         else arch.alu_latency)
            return cost, "warp_sync_cycles"
        if opcode == "activemask":
            return float(arch.alu_latency), "warp_sync_cycles"
        if opcode.startswith("shfl."):
            return float(arch.shuffle_latency), "shuffle_cycles"
        return float(arch.alu_latency), "alu_cycles"
    return float(arch.alu_latency), "alu_cycles"


def cycles_to_milliseconds(cycles: float, arch: GpuArch) -> float:
    """Convert a cycle count into milliseconds at the architecture's clock."""
    return cycles / (arch.clock_mhz * 1000.0)
