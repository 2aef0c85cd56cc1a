"""Lock-step SIMT execution of one warp.

:class:`WarpExecutor` interprets mini-IR instructions for a single warp,
vectorised over the 32 lanes with numpy.  Branch divergence is handled
with the classic reconvergence-stack algorithm: a divergent conditional
branch turns the current stack entry into a "wait at the immediate
post-dominator" entry and pushes one entry per side, so both sides execute
serially under partial masks -- the behaviour responsible for the paper's
Section VI-A finding.

The executor is both tiers of the simulator: the tree-walking *oracle*
(:meth:`WarpExecutor._run_reference`) and the run loop of the segment JIT
(:mod:`repro.gpu.jitted`), which hands the instructions it does not
compile -- atomics, unknown opcodes, the last partial segment of a warp
that runs out of budget -- to the oracle's own handlers.  Only the oracle
reports cost-model counters and per-instruction profiles; the launch
hands a JIT run a disabled profiler and drops its counters, so the
oracle steps inside a JIT run leave no partial report.

Runtime faults (out-of-bounds accesses, undefined registers, division by
zero, runaway loops) raise :class:`~repro.errors.KernelTrap`; GEVO treats
trapped variants as failed test cases.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import KernelTrap
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.values import Const, Reg
from .memory import BufferHandle, SharedMemoryBlock
from .profiler import ProfileCollector
from .rng import counter_uniform
from .timing import CostModel, MemoryAccessInfo
from .warp import StackEntry, WarpState, WarpStatus, broadcast_scalar_arrays

_INT = np.int64
_FLOAT = np.float64

#: Step kinds of a decoded block (see :mod:`repro.gpu.decoded`): a
#: straight-line segment of simple instructions, the three control
#: terminators, and the block-wide barrier.
STEP_SEGMENT, STEP_BR, STEP_CONDBR, STEP_RET, STEP_BARRIER = range(5)


class WarpExecutor:
    """Executes one warp of a thread block until it blocks or finishes.

    Two execution tiers exist.  The *reference* path (the oracle) walks
    the IR tree, re-dispatching on string opcodes for every executed
    instruction.  When a decoded program carrying JIT records
    (:func:`repro.gpu.jitted.jit_function`) is supplied, :meth:`run`
    instead executes its compiled segment kernels as single calls and
    runs the few steps they do not cover on the oracle.  Both tiers are
    bit-for-bit equivalent in cycles, instruction counts, buffers, RNG
    streams and traps.

    The executor keeps no memo of its own: the compiled kernels share one
    process-wide memo of checked and priced memory accesses, keyed by
    index content (see :mod:`repro.gpu.jitted`), so repeated addressing
    hits across warps, launches and variants.
    """

    def __init__(
        self,
        function: Function,
        warp: WarpState,
        shared: SharedMemoryBlock,
        global_bindings: Dict[str, BufferHandle],
        scalar_bindings: Dict[str, float],
        postdominators: Dict[str, Optional[str]],
        cost_model: CostModel,
        profiler: ProfileCollector,
        max_instructions: int = 1_000_000,
        decoded=None,
        scalar_arrays: Optional[Dict[str, np.ndarray]] = None,
    ):
        self._decoded = decoded
        self.function = function
        self.warp = warp
        self.shared = shared
        self.cost_model = cost_model
        self.profiler = profiler
        self.postdominators = postdominators
        self.max_instructions = max_instructions
        self.warp_size = warp.warp_size
        # Pre-bind parameters and shared arrays into the register file.
        # Scalar parameters broadcast to read-only per-lane arrays; the
        # launch builds (and caches) them once per (params, warp size)
        # instead of once per warp (`scalar_arrays`); direct constructions
        # without one fall back to the same shared rule.
        if scalar_arrays is None:
            scalar_arrays = broadcast_scalar_arrays(scalar_bindings,
                                                    self.warp_size)
        for param in function.params:
            if param.kind == "buffer":
                self.warp.registers[param.name] = global_bindings[param.name]
            else:
                self.warp.registers[param.name] = scalar_arrays[param.name]
        for name, handle in shared.handles().items():
            self.warp.registers[name] = handle
        self._identity_values = warp.identity.register_values()

    # ------------------------------------------------------------------ operands
    def _trap(self, message: str, instruction: Optional[Instruction] = None) -> None:
        raise KernelTrap(message, warp=self.warp.warp_index, instruction=instruction)

    def _resolve(self, operand, instruction: Instruction):
        """Resolve an operand to a per-lane array or a buffer handle."""
        if isinstance(operand, Const):
            value = operand.value
            if isinstance(value, bool):
                return np.full(self.warp_size, value, dtype=bool)
            dtype = _INT if isinstance(value, int) else _FLOAT
            return np.full(self.warp_size, value, dtype=dtype)
        if isinstance(operand, Reg):
            try:
                return self.warp.registers[operand.name]
            except KeyError:
                self._trap(f"read of undefined register %{operand.name}", instruction)
        self._trap(f"unsupported operand {operand!r}", instruction)

    def _numeric(self, operand, instruction: Instruction) -> np.ndarray:
        value = self._resolve(operand, instruction)
        if isinstance(value, BufferHandle):
            self._trap(
                f"operand %{getattr(operand, 'name', operand)} is a buffer handle "
                f"where a numeric value is required", instruction)
        return value

    def _buffer(self, operand, instruction: Instruction) -> BufferHandle:
        value = self._resolve(operand, instruction)
        if not isinstance(value, BufferHandle):
            self._trap("memory access base operand is not a buffer", instruction)
        return value

    # ------------------------------------------------------------------ execution
    def run(self) -> WarpStatus:
        """Execute until the warp finishes, traps, or reaches a barrier."""
        if self._decoded is not None:
            return self._run_decoded()
        return self._run_reference()

    def _run_reference(self) -> WarpStatus:
        """The tree-walking reference interpreter (the equivalence oracle)."""
        warp = self.warp
        if warp.status is WarpStatus.DONE:
            return warp.status
        warp.status = WarpStatus.RUNNING
        blocks = self.function.blocks
        while True:
            warp.pop_reconverged()
            if warp.status is WarpStatus.DONE or not warp.stack:
                warp.status = WarpStatus.DONE
                return warp.status
            top = warp.stack[-1]
            label, index = top.pc
            block = blocks.get(label)
            if block is None:
                self._trap(f"branch to unknown block {label!r}")
            if index >= len(block.instructions):
                self._trap(f"execution fell off the end of block {label!r}")
            instruction = block.instructions[index]
            warp.instructions_executed += 1
            if warp.instructions_executed > self.max_instructions:
                self._trap(
                    f"dynamic instruction budget exceeded "
                    f"({self.max_instructions}); probable runaway loop", instruction)
            at_barrier = self._execute(instruction, top)
            if at_barrier:
                warp.status = WarpStatus.AT_BARRIER
                return warp.status
            if warp.status is WarpStatus.DONE:
                return warp.status

    def _run_decoded(self) -> WarpStatus:
        """Execution of the JIT-compiled program.

        Mirrors :meth:`_run_reference` effect for effect -- same dynamic
        instruction sequence, cycle arithmetic and trap messages -- but
        pays the block lookup and reconvergence check once per control
        transfer instead of once per instruction.  A step whose JIT record
        fits the instruction budget runs as one compiled call (a whole
        segment, optionally with its folded terminator, or a lone
        terminator) and a barrier charges its baked cost.  Every other
        step -- a segment entered past its start, one that straddles the
        budget, a non-exact one -- runs the single instruction at the pc
        on the oracle (:meth:`_execute`).
        """
        warp = self.warp
        if warp.status is WarpStatus.DONE:
            return warp.status
        warp.status = WarpStatus.RUNNING
        decoded_blocks = self._decoded.blocks
        blocks = self.function.blocks
        max_instructions = self.max_instructions
        stack = warp.stack
        count_nonzero = np.count_nonzero
        warp_size = self.warp_size
        while True:
            # Inlined warp.pop_reconverged() (hot: once per control
            # transfer); keep in sync with the method.
            while stack:
                top = stack[-1]
                reconvergence = top.reconvergence
                if reconvergence is not None:
                    pc = top.pc
                    if pc[1] == 0 and pc[0] == reconvergence:
                        stack.pop()
                        continue
                break
            if warp.status is WarpStatus.DONE or not stack:
                warp.status = WarpStatus.DONE
                return warp.status
            top = stack[-1]
            label, index = top.pc
            dblock = decoded_blocks.get(label)
            if dblock is None:
                self._trap(f"branch to unknown block {label!r}")
            length = dblock.length
            steps = dblock.steps
            step_of_index = dblock.step_of_index
            while True:
                if index >= length:
                    self._trap(f"execution fell off the end of block {label!r}")
                step = steps[step_of_index[index]]
                jit_fns = step.jit_fns
                if (jit_fns is not None and index == step.start
                        and warp.instructions_executed + jit_fns[2]
                        <= max_instructions):
                    # The common case: one call executes the whole step
                    # (charging its aggregated statics and pricing its
                    # memory accesses itself) and, in the combined form,
                    # the block terminator too.  Masks are immutable and
                    # rebound on every change, so fullness is cached on
                    # the stack entry by object identity.
                    mask = top.mask
                    if mask is not top.mask_obj:
                        top.mask_obj = mask
                        top.mask_full = count_nonzero(mask) == warp_size
                    (jit_fns[0] if top.mask_full else jit_fns[1])(
                        self, warp, top, mask)
                    if jit_fns[3]:
                        break
                    index += jit_fns[2]
                    top.pc = (label, index)
                    continue
                instruction = (blocks[label].instructions[index]
                               if step.kind == STEP_SEGMENT else step.instruction)
                warp.instructions_executed += 1
                if warp.instructions_executed > max_instructions:
                    self._trap(
                        f"dynamic instruction budget exceeded "
                        f"({max_instructions}); probable runaway loop",
                        instruction)
                if step.kind == STEP_BARRIER:
                    # Charge the baked cost instead of re-pricing the
                    # barrier on the oracle (every warp meets it).
                    warp.cycles += step.static_cost
                    top.pc = (label, index + 1)
                    warp.status = WarpStatus.AT_BARRIER
                    return warp.status
                self._execute(instruction, top)
                if step.kind != STEP_SEGMENT:
                    break
                index += 1

    # -- single instruction -------------------------------------------------------
    def _charge(self, instruction: Instruction, mask: np.ndarray,
                memory: Optional[MemoryAccessInfo] = None) -> None:
        active = int(np.count_nonzero(mask))
        cost = self.cost_model.instruction_cost(instruction, active, memory)
        self.warp.cycles += cost
        self.profiler.record(instruction, cost)

    def _advance(self, entry: StackEntry) -> None:
        label, index = entry.pc
        entry.pc = (label, index + 1)

    def _execute(self, instruction: Instruction, entry: StackEntry) -> bool:
        """Execute one instruction; returns True if the warp hit a barrier."""
        opcode = instruction.opcode
        mask = entry.mask
        warp = self.warp

        # --- control flow ----------------------------------------------------
        if opcode == "br":
            self._charge(instruction, mask)
            entry.pc = (instruction.attrs["target"], 0)
            return False
        if opcode == "condbr":
            self._charge(instruction, mask)
            self._branch(instruction, entry)
            return False
        if opcode == "ret":
            self._charge(instruction, mask)
            warp.retire_lanes(mask.copy())
            return False

        # --- barrier ----------------------------------------------------------
        if opcode == "syncthreads":
            self._charge(instruction, mask)
            self._advance(entry)
            return True

        # --- everything else -------------------------------------------------
        memory_info = self._execute_straightline(instruction, mask)
        self._charge(instruction, mask, memory_info)
        self._advance(entry)
        return False

    def _branch(self, instruction: Instruction, entry: StackEntry) -> None:
        cond = self._numeric(instruction.operands[0], instruction)
        cond = cond.astype(bool)
        mask = entry.mask
        taken = mask & cond
        not_taken = mask & ~cond
        true_target = instruction.attrs["true_target"]
        false_target = instruction.attrs["false_target"]
        if not np.any(not_taken):
            entry.pc = (true_target, 0)
            return
        if not np.any(taken):
            entry.pc = (false_target, 0)
            return
        # Divergence: wait at the immediate post-dominator of the branching block.
        branching_block = entry.pc[0]
        reconvergence = self.postdominators.get(branching_block)
        if reconvergence is None:
            # No common post-dominator (e.g. one side returns): fall back to
            # executing each side to completion under its own mask.
            entry.pc = (false_target, 0)
            entry.mask = not_taken
            self.warp.stack.append(StackEntry(pc=(true_target, 0), mask=taken,
                                              reconvergence=None))
            return
        entry.pc = (reconvergence, 0)
        self.warp.stack.append(
            StackEntry(pc=(false_target, 0), mask=not_taken, reconvergence=reconvergence))
        self.warp.stack.append(
            StackEntry(pc=(true_target, 0), mask=taken, reconvergence=reconvergence))

    # -- straight-line opcodes -----------------------------------------------------
    def _execute_straightline(
        self, instruction: Instruction, mask: np.ndarray
    ) -> Optional[MemoryAccessInfo]:
        opcode = instruction.opcode
        handler = _ARITHMETIC.get(opcode)
        if handler is not None:
            operands = [self._numeric(op, instruction) for op in instruction.operands]
            result = handler(self, instruction, operands)
            self.warp.write_register(instruction.dest, result, mask)
            return None
        if opcode in self._identity_values:
            self.warp.write_register(instruction.dest,
                                     self._identity_values[opcode].copy(), mask)
            return None
        if opcode in ("load",):
            return self._load(instruction, mask)
        if opcode in ("store", "memset"):
            return self._store(instruction, mask)
        if opcode.startswith("atomic."):
            return self._atomic(instruction, mask)
        if opcode == "activemask":
            bits = int(np.packbits(mask[::-1]).view(">u4")[0]) if self.warp_size == 32 else 0
            self.warp.write_register(instruction.dest,
                                     np.full(self.warp_size, bits, dtype=_INT), mask)
            return None
        if opcode == "ballot.sync":
            predicate = self._numeric(instruction.operands[1], instruction).astype(bool)
            voters = mask & predicate
            bits = int(np.packbits(voters[::-1]).view(">u4")[0]) if self.warp_size == 32 else 0
            self.warp.write_register(instruction.dest,
                                     np.full(self.warp_size, bits, dtype=_INT), mask)
            return None
        if opcode == "shfl.sync":
            value = self._numeric(instruction.operands[1], instruction)
            source = self._numeric(instruction.operands[2], instruction).astype(_INT)
            lanes = np.clip(source, 0, self.warp_size - 1)
            self.warp.write_register(instruction.dest, value[lanes], mask)
            return None
        if opcode == "shfl.up.sync":
            value = self._numeric(instruction.operands[1], instruction)
            delta = self._numeric(instruction.operands[2], instruction).astype(_INT)
            lanes = np.arange(self.warp_size) - delta
            lanes = np.where(lanes < 0, np.arange(self.warp_size), lanes)
            self.warp.write_register(instruction.dest, value[lanes], mask)
            return None
        if opcode == "shfl.down.sync":
            value = self._numeric(instruction.operands[1], instruction)
            delta = self._numeric(instruction.operands[2], instruction).astype(_INT)
            lanes = np.arange(self.warp_size) + delta
            lanes = np.where(lanes >= self.warp_size, np.arange(self.warp_size), lanes)
            self.warp.write_register(instruction.dest, value[lanes], mask)
            return None
        if opcode == "syncwarp":
            self._numeric(instruction.operands[0], instruction)
            return None
        if opcode == "rand.uniform":
            seed = self._numeric(instruction.operands[0], instruction).astype(_INT)
            step = self._numeric(instruction.operands[1], instruction).astype(_INT)
            salt = self._numeric(instruction.operands[2], instruction).astype(_INT)
            self.warp.write_register(instruction.dest, counter_uniform(seed, step, salt), mask)
            return None
        if opcode == "nop":
            return None
        self._trap(f"opcode {opcode!r} is not implemented by the interpreter", instruction)
        return None

    # -- memory ---------------------------------------------------------------------
    def _load(self, instruction: Instruction, mask: np.ndarray) -> MemoryAccessInfo:
        handle = self._buffer(instruction.operands[0], instruction)
        index = self._numeric(instruction.operands[1], instruction)
        active_idx = handle.check_bounds(index[mask], instruction)
        result_dtype = handle.array.dtype
        result = np.zeros(self.warp_size, dtype=result_dtype)
        result[mask] = handle.array[active_idx]
        self.warp.write_register(instruction.dest, result, mask)
        return MemoryAccessInfo(handle=handle, indices=active_idx)

    def _store(self, instruction: Instruction, mask: np.ndarray) -> MemoryAccessInfo:
        handle = self._buffer(instruction.operands[0], instruction)
        index = self._numeric(instruction.operands[1], instruction)
        value = self._numeric(instruction.operands[2], instruction)
        active_idx = handle.check_bounds(index[mask], instruction)
        handle.array[active_idx] = value[mask].astype(handle.array.dtype)
        return MemoryAccessInfo(handle=handle, indices=active_idx)

    def _atomic(self, instruction: Instruction, mask: np.ndarray) -> MemoryAccessInfo:
        handle = self._buffer(instruction.operands[0], instruction)
        index = self._numeric(instruction.operands[1], instruction)
        active_idx = handle.check_bounds(index[mask], instruction)
        lanes = np.nonzero(mask)[0]
        old_values = np.zeros(self.warp_size, dtype=handle.array.dtype)
        opcode = instruction.opcode
        if opcode == "atomic.cas":
            compare = self._numeric(instruction.operands[2], instruction)
            value = self._numeric(instruction.operands[3], instruction)
        else:
            compare = None
            value = self._numeric(instruction.operands[2], instruction)
        array = handle.array
        for position, lane in enumerate(lanes):
            address = int(active_idx[position])
            old = array[address]
            old_values[lane] = old
            new = value[lane]
            if opcode == "atomic.add":
                array[address] = old + new
            elif opcode == "atomic.max":
                array[address] = max(old, new)
            elif opcode == "atomic.exch":
                array[address] = new
            elif opcode == "atomic.cas":
                if old == compare[lane]:
                    array[address] = new
            else:  # pragma: no cover - registry guarantees opcode set
                self._trap(f"unknown atomic opcode {opcode}", instruction)
        if instruction.dest is not None:
            self.warp.write_register(instruction.dest, old_values, mask)
        return MemoryAccessInfo(handle=handle, indices=active_idx)


# --------------------------------------------------------------------------- arithmetic table
def _int_like(array: np.ndarray) -> np.ndarray:
    if array.dtype == bool:
        return array.astype(_INT)
    if array.dtype.kind == "f":
        return array.astype(_INT)
    return array


def _binary(op):
    def handler(executor, instruction, operands):
        return op(operands[0], operands[1])
    return handler


def _division(mode):
    def handler(executor: WarpExecutor, instruction: Instruction, operands):
        numerator, denominator = operands
        mask = executor.warp.active_mask
        denom_active = np.asarray(denominator)[mask]
        if denom_active.size and np.any(denom_active == 0):
            executor._trap("division by zero", instruction)
        safe = np.where(np.asarray(denominator) == 0, 1, denominator)
        if mode == "div":
            if numerator.dtype.kind == "f" or np.asarray(denominator).dtype.kind == "f":
                return numerator / safe
            return np.floor_divide(numerator, safe)
        return np.remainder(_int_like(numerator), _int_like(safe))
    return handler


def _bitwise(op, logical):
    def handler(executor, instruction, operands):
        a, b = operands
        if a.dtype == bool and b.dtype == bool:
            return logical(a, b)
        return op(_int_like(a), _int_like(b))
    return handler


_ARITHMETIC = {
    "add": _binary(np.add),
    "sub": _binary(np.subtract),
    "mul": _binary(np.multiply),
    "div": _division("div"),
    "rem": _division("rem"),
    "min": _binary(np.minimum),
    "max": _binary(np.maximum),
    "and": _bitwise(np.bitwise_and, np.logical_and),
    "or": _bitwise(np.bitwise_or, np.logical_or),
    "xor": _bitwise(np.bitwise_xor, np.logical_xor),
    "shl": lambda ex, inst, ops: np.left_shift(_int_like(ops[0]), _int_like(ops[1])),
    "shr": lambda ex, inst, ops: np.right_shift(_int_like(ops[0]), _int_like(ops[1])),
    "neg": lambda ex, inst, ops: -ops[0],
    "not": lambda ex, inst, ops: (np.logical_not(ops[0]) if ops[0].dtype == bool
                                  else np.bitwise_not(_int_like(ops[0]))),
    "abs": lambda ex, inst, ops: np.abs(ops[0]),
    "mov": lambda ex, inst, ops: ops[0].copy(),
    "ftoi": lambda ex, inst, ops: ops[0].astype(_INT),
    "itof": lambda ex, inst, ops: ops[0].astype(_FLOAT),
    "select": lambda ex, inst, ops: np.where(ops[0].astype(bool), ops[1], ops[2]),
    "fma": lambda ex, inst, ops: ops[0] * ops[1] + ops[2],
    "cmp.eq": _binary(np.equal),
    "cmp.ne": _binary(np.not_equal),
    "cmp.lt": _binary(np.less),
    "cmp.le": _binary(np.less_equal),
    "cmp.gt": _binary(np.greater),
    "cmp.ge": _binary(np.greater_equal),
}
