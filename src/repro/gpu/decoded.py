"""Decode-once execution layer for the SIMT interpreter.

The reference interpreter (:class:`~repro.gpu.interpreter.WarpExecutor`)
re-inspects every instruction's string opcode through an if-chain and
re-resolves every operand on every executed instruction of every warp.
This module removes that per-step cost by *decoding* a kernel once per
module:

* each instruction is bound to a handler closure at decode time (a
  dispatch table instead of string comparisons), with **pre-computed
  operand slots** -- constants become shared read-only per-lane arrays
  built once, registers become direct name lookups;
* launch-invariant instruction costs (everything except memory/atomics,
  whose price depends on the addresses actually touched) are baked in
  together with the cost-model counter they bump;
* each basic block is split into *steps*: maximal straight-line
  **segments** of simple instructions, separated by control
  flow/barriers, so uniform (non-divergent) regions execute in one tight
  loop without re-checking for reconvergence or control transfers.

Decoded programs are cached per function via
:meth:`repro.ir.function.Function.cached_decoding`, so every launch of an
unchanged module (one fitness evaluation launches the same variant once
per test case or simulation step) reuses one decoding.  The decoded
execution is bit-for-bit equivalent to the reference path -- same cycle
counts, cost-model counters, profiler statistics, trap messages and RNG
streams -- which the differential battery in
``tests/gpu/test_fast_path_equivalence.py`` pins.

This is the middle of the simulator's three interpreter tiers: the
segment JIT (:mod:`repro.gpu.jitted`, the default) builds on these
decoded programs by exec-compiling each straight-line segment into one
Python function, and falls back to this dispatch loop for barrier
resumes, budget edges and partial compilation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..ir.analysis import immediate_postdominators
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.values import Const, Reg
from .arch import GpuArch
from .interpreter import (
    _ARITHMETIC,
    STEP_BARRIER,
    STEP_BR,
    STEP_CONDBR,
    STEP_RET,
    STEP_SEGMENT,
    WarpExecutor,
)
from .memory import BufferHandle
from .rng import counter_uniform
from .timing import MemoryAccessInfo, static_instruction_cost

_INT = np.int64
_FLOAT = np.float64

#: An execute closure: ``(executor, active mask, mask is fully active)`` ->
#: memory info for pricing.  The ``full`` flag lets handlers skip the masked
#: merge/select work when every lane of the warp participates (the uniform
#: straight-line case), which is where simulation time concentrates.
ExecuteFn = Callable[[WarpExecutor, np.ndarray, bool], Optional[MemoryAccessInfo]]

_IDENTITY_OPCODES = frozenset((
    "tid.x", "tid.y", "bid.x", "bid.y",
    "bdim.x", "bdim.y", "gdim.x", "gdim.y",
    "laneid", "warpid",
))

_CONTROL_KINDS = {
    "br": STEP_BR,
    "condbr": STEP_CONDBR,
    "ret": STEP_RET,
    "syncthreads": STEP_BARRIER,
}


class DecodedInstruction:
    """One simple (straight-line) instruction bound to its handler."""

    __slots__ = ("instruction", "uid", "execute", "static_cost", "counter_key",
                 "is_store", "is_atomic")

    def __init__(self, instruction: Instruction, execute: ExecuteFn,
                 static_cost: Optional[float], counter_key: Optional[str]):
        self.instruction = instruction
        self.uid = instruction.uid
        self.execute = execute
        #: Baked cycle cost, or ``None`` for memory/atomics (priced at runtime).
        self.static_cost = static_cost
        #: Cost-model counter the baked cost bumps (``None``: no counter).
        self.counter_key = counter_key
        #: Pricing flags baked at decode time so the dispatch loop can call
        #: ``CostModel.price_access`` without re-inspecting the opcode.
        self.is_store = instruction.opcode in ("store", "memset")
        self.is_atomic = instruction.info.category == "atomic"


class Segment:
    """A maximal run of simple instructions inside one block.

    ``static_cycles`` / ``counter_totals`` pre-aggregate the baked costs of
    the whole body so a full segment execution charges them in one step.
    Every latency in the cost model is an integer number of cycles, so the
    pre-aggregated sums are exact in float64 and charging them out of order
    is bit-for-bit identical to the reference's per-instruction adds;
    ``exact`` records that decode-time check (a hypothetical non-integer
    cost override drops the segment back to per-instruction charging).
    """

    __slots__ = ("kind", "start", "body", "static_cycles", "counter_totals",
                 "exact", "jit_fns", "local_registers")

    def __init__(self, start: int):
        self.kind = STEP_SEGMENT
        self.start = start
        self.body: List[DecodedInstruction] = []
        self.static_cycles = 0.0
        self.counter_totals: List[tuple] = []
        self.exact = True
        #: JIT record whose ``(full-mask, masked)`` whole-segment kernels
        #: compile on first call (see :mod:`repro.gpu.jitted`), attached by
        #: the JIT tier and only for ``exact`` segments; the dispatch tier
        #: never calls it.
        self.jit_fns = None
        #: Registers this segment writes that no instruction reads except
        #: after a write in the same segment or its folded terminator, and
        #: no cross-lane opcode reads: their inactive lanes are never
        #: observed, so the JIT's masked shape stores them unmerged.  Set
        #: with the JIT record by :func:`repro.gpu.jitted.attach_jit`.
        self.local_registers: frozenset = frozenset()

    def finalize(self) -> None:
        totals: Dict[str, float] = {}
        for decoded in self.body:
            cost = decoded.static_cost
            if cost is None:
                continue
            if not float(cost).is_integer():
                self.exact = False
            self.static_cycles += cost
            if decoded.counter_key is not None:
                totals[decoded.counter_key] = totals.get(decoded.counter_key, 0.0) + cost
        self.counter_totals = list(totals.items())


class ControlStep:
    """A control-flow or barrier instruction (one step on its own)."""

    __slots__ = ("kind", "instruction", "static_cost", "counter_key",
                 "target", "true_target", "false_target", "reconvergence",
                 "condition", "jit_fns")

    def __init__(self, kind: int, instruction: Instruction,
                 static_cost: float, counter_key: Optional[str]):
        self.kind = kind
        self.instruction = instruction
        self.static_cost = static_cost
        self.counter_key = counter_key
        self.target: Optional[str] = None
        self.true_target: Optional[str] = None
        self.false_target: Optional[str] = None
        self.reconvergence: Optional[str] = None
        self.condition: Optional[Callable] = None
        #: JIT record of a single-instruction kernel pair used when this
        #: BR/CONDBR/RET step is dispatched on its own -- a block with no
        #: preceding straight-line segment, or a mid-block resume landing
        #: on the terminator (see :func:`repro.gpu.jitted.attach_jit`);
        #: barrier steps and the dispatch tier leave it ``None``.
        self.jit_fns = None


class DecodedBlock:
    """The decoded body of one basic block."""

    __slots__ = ("label", "length", "steps", "step_of_index")

    def __init__(self, label: str, length: int, steps: List[object],
                 step_of_index: List[int]):
        self.label = label
        self.length = length
        self.steps = steps
        #: Instruction index -> position in ``steps`` (for mid-block resume
        #: after a barrier).
        self.step_of_index = step_of_index


class DecodedFunction:
    """A kernel pre-resolved for dispatch-table execution.

    Deliberately holds no reference back to the :class:`Function`: decoded
    programs live as *values* of a WeakKeyDictionary keyed by their
    function (see ``Function.cached_decoding``), and a back-reference
    would pin every decoded variant for the life of the process.
    """

    __slots__ = ("blocks", "postdominators", "warp_size", "jit_ready")

    def __init__(self, blocks: Dict[str, DecodedBlock],
                 postdominators: Dict[str, Optional[str]], warp_size: int):
        self.blocks = blocks
        self.postdominators = postdominators
        self.warp_size = warp_size
        #: Set once :func:`repro.gpu.jitted.attach_jit` has given the exact
        #: segments their JIT records; lives (and dies) with the decoded
        #: program in ``Function.cached_decoding``, so a mutation that
        #: re-decodes the function also recompiles its segments.
        self.jit_ready = False


# --------------------------------------------------------------------------- operand slots
def _const_array(value, warp_size: int) -> np.ndarray:
    """The per-lane array for a constant operand (same dtype rules as the
    reference `_resolve`), shared across executions and frozen read-only."""
    if isinstance(value, bool):
        array = np.full(warp_size, value, dtype=bool)
    else:
        dtype = _INT if isinstance(value, int) else _FLOAT
        array = np.full(warp_size, value, dtype=dtype)
    array.flags.writeable = False
    return array


def _numeric_getter(operand, instruction: Instruction, warp_size: int):
    """Pre-resolved equivalent of the reference ``_numeric``."""
    if isinstance(operand, Const):
        array = _const_array(operand.value, warp_size)

        def get_const(executor):
            return array

        return get_const
    if isinstance(operand, Reg):
        name = operand.name

        def get_reg(executor):
            try:
                value = executor.warp.registers[name]
            except KeyError:
                executor._trap(f"read of undefined register %{name}", instruction)
            if isinstance(value, BufferHandle):
                executor._trap(
                    f"operand %{name} is a buffer handle "
                    f"where a numeric value is required", instruction)
            return value

        return get_reg

    def get_unsupported(executor):
        executor._trap(f"unsupported operand {operand!r}", instruction)

    return get_unsupported


def _buffer_getter(operand, instruction: Instruction):
    """Pre-resolved equivalent of the reference ``_buffer``."""
    if isinstance(operand, Reg):
        name = operand.name

        def get_handle(executor):
            try:
                value = executor.warp.registers[name]
            except KeyError:
                executor._trap(f"read of undefined register %{name}", instruction)
            if not isinstance(value, BufferHandle):
                executor._trap("memory access base operand is not a buffer", instruction)
            return value

        return get_handle
    if isinstance(operand, Const):
        def get_const(executor):
            executor._trap("memory access base operand is not a buffer", instruction)

        return get_const

    def get_unsupported(executor):
        executor._trap(f"unsupported operand {operand!r}", instruction)

    return get_unsupported


# --------------------------------------------------------------------------- handler builders
def _build_arith(instruction: Instruction, warp_size: int) -> ExecuteFn:
    handler = _ARITHMETIC[instruction.opcode]
    dest = instruction.dest
    getters = [_numeric_getter(op, instruction, warp_size)
               for op in instruction.operands]
    if len(getters) == 1:
        get0, = getters

        def execute(ex, mask, full):
            result = handler(ex, instruction, [get0(ex)])
            if full:
                ex.warp.write_register_full(dest, result)
            else:
                ex.warp.write_register(dest, result, mask)
            return None
    elif len(getters) == 2:
        get0, get1 = getters

        def execute(ex, mask, full):
            result = handler(ex, instruction, [get0(ex), get1(ex)])
            if full:
                ex.warp.write_register_full(dest, result)
            else:
                ex.warp.write_register(dest, result, mask)
            return None
    else:
        def execute(ex, mask, full):
            result = handler(ex, instruction, [g(ex) for g in getters])
            if full:
                ex.warp.write_register_full(dest, result)
            else:
                ex.warp.write_register(dest, result, mask)
            return None
    return execute


def _build_identity(instruction: Instruction, warp_size: int) -> ExecuteFn:
    opcode = instruction.opcode
    dest = instruction.dest

    def execute(ex, mask, full):
        value = ex._identity_values[opcode].copy()
        if full:
            ex.warp.write_register_full(dest, value)
        else:
            ex.warp.write_register(dest, value, mask)
        return None

    return execute


def _build_load(instruction: Instruction, warp_size: int) -> ExecuteFn:
    get_base = _buffer_getter(instruction.operands[0], instruction)
    get_index = _numeric_getter(instruction.operands[1], instruction, warp_size)
    dest = instruction.dest

    def execute(ex, mask, full):
        handle = get_base(ex)
        index = get_index(ex)
        if full:
            active_idx, lo, hi = handle.check_bounds_stats(index, instruction)
            ex.warp.write_register_full(dest, handle.array[active_idx])
        else:
            active_idx, lo, hi = handle.check_bounds_stats(index[mask], instruction)
            result = np.zeros(warp_size, dtype=handle.array.dtype)
            result[mask] = handle.array[active_idx]
            ex.warp.write_register(dest, result, mask)
        return MemoryAccessInfo(handle=handle, indices=active_idx, stats=(lo, hi))

    return execute


def _build_store(instruction: Instruction, warp_size: int) -> ExecuteFn:
    get_base = _buffer_getter(instruction.operands[0], instruction)
    get_index = _numeric_getter(instruction.operands[1], instruction, warp_size)
    get_value = _numeric_getter(instruction.operands[2], instruction, warp_size)

    def execute(ex, mask, full):
        handle = get_base(ex)
        index = get_index(ex)
        value = get_value(ex)
        if full:
            active_idx, lo, hi = handle.check_bounds_stats(index, instruction)
            handle.array[active_idx] = value.astype(handle.array.dtype)
        else:
            active_idx, lo, hi = handle.check_bounds_stats(index[mask], instruction)
            handle.array[active_idx] = value[mask].astype(handle.array.dtype)
        return MemoryAccessInfo(handle=handle, indices=active_idx, stats=(lo, hi))

    return execute


def _build_atomic(instruction: Instruction, warp_size: int) -> ExecuteFn:
    opcode = instruction.opcode
    get_base = _buffer_getter(instruction.operands[0], instruction)
    get_index = _numeric_getter(instruction.operands[1], instruction, warp_size)
    if opcode == "atomic.cas":
        get_compare = _numeric_getter(instruction.operands[2], instruction, warp_size)
        get_value = _numeric_getter(instruction.operands[3], instruction, warp_size)
    else:
        get_compare = None
        get_value = _numeric_getter(instruction.operands[2], instruction, warp_size)
    dest = instruction.dest
    all_lanes = np.arange(warp_size)
    all_lanes.flags.writeable = False

    def execute(ex, mask, full):
        handle = get_base(ex)
        index = get_index(ex)
        if full:
            active_idx, lo, hi = handle.check_bounds_stats(index, instruction)
            lanes = all_lanes
        else:
            active_idx, lo, hi = handle.check_bounds_stats(index[mask], instruction)
            lanes = np.nonzero(mask)[0]
        old_values = np.zeros(warp_size, dtype=handle.array.dtype)
        compare = get_compare(ex) if get_compare is not None else None
        value = get_value(ex)
        array = handle.array
        if active_idx.size > 1:
            # With no address collisions the lanes cannot observe each
            # other's updates, so the serial per-lane loop collapses to
            # element-wise reads/writes with identical results (add uses
            # the same IEEE scalar additions; exch just stores; max and
            # cas select per lane with the loop's exact comparison
            # direction, so NaN/Inf operands behave identically).
            sorted_idx = np.sort(active_idx)
            if (sorted_idx[1:] != sorted_idx[:-1]).all():
                old = array[active_idx]
                old_values[lanes] = old
                active_values = value[lanes]
                # Assignment casts to the array dtype exactly like the
                # reference's per-lane scalar stores.
                if opcode == "atomic.add":
                    array[active_idx] = old + active_values
                elif opcode == "atomic.max":
                    # The loop's max(old, new) keeps old unless new > old,
                    # so any NaN comparison preserves old -- np.where with
                    # the same predicate reproduces that bit-for-bit.
                    array[active_idx] = np.where(active_values > old,
                                                 active_values, old)
                elif opcode == "atomic.cas":
                    # The loop stores new only where old == compare; NaN
                    # never compares equal, so NaN slots keep old.
                    array[active_idx] = np.where(old == compare[lanes],
                                                 active_values, old)
                else:  # atomic.exch
                    array[active_idx] = active_values
                if dest is not None:
                    if full:
                        ex.warp.write_register_full(dest, old_values)
                    else:
                        ex.warp.write_register(dest, old_values, mask)
                return MemoryAccessInfo(handle=handle, indices=active_idx, stats=(lo, hi))
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
        if dest is not None:
            if full:
                ex.warp.write_register_full(dest, old_values)
            else:
                ex.warp.write_register(dest, old_values, mask)
        return MemoryAccessInfo(handle=handle, indices=active_idx, stats=(lo, hi))

    return execute


def _build_activemask(instruction: Instruction, warp_size: int) -> ExecuteFn:
    dest = instruction.dest
    is_full_warp = warp_size == 32

    def execute(ex, mask, full):
        bits = int(np.packbits(mask[::-1]).view(">u4")[0]) if is_full_warp else 0
        value = np.full(warp_size, bits, dtype=_INT)
        if full:
            ex.warp.write_register_full(dest, value)
        else:
            ex.warp.write_register(dest, value, mask)
        return None

    return execute


def _build_ballot(instruction: Instruction, warp_size: int) -> ExecuteFn:
    # The membership-mask operand (index 0) is never resolved, exactly like
    # the reference path.
    get_predicate = _numeric_getter(instruction.operands[1], instruction, warp_size)
    dest = instruction.dest
    is_full_warp = warp_size == 32

    def execute(ex, mask, full):
        predicate = get_predicate(ex).astype(bool)
        voters = mask & predicate
        bits = int(np.packbits(voters[::-1]).view(">u4")[0]) if is_full_warp else 0
        value = np.full(warp_size, bits, dtype=_INT)
        if full:
            ex.warp.write_register_full(dest, value)
        else:
            ex.warp.write_register(dest, value, mask)
        return None

    return execute


def _build_shfl(instruction: Instruction, warp_size: int) -> ExecuteFn:
    get_value = _numeric_getter(instruction.operands[1], instruction, warp_size)
    get_lane = _numeric_getter(instruction.operands[2], instruction, warp_size)
    dest = instruction.dest
    opcode = instruction.opcode
    identity_lanes = np.arange(warp_size)
    identity_lanes.flags.writeable = False

    if opcode == "shfl.sync":
        def compute(ex):
            value = get_value(ex)
            source = get_lane(ex).astype(_INT)
            lanes = np.clip(source, 0, warp_size - 1)
            return value[lanes]
    elif opcode == "shfl.up.sync":
        def compute(ex):
            value = get_value(ex)
            delta = get_lane(ex).astype(_INT)
            lanes = identity_lanes - delta
            lanes = np.where(lanes < 0, identity_lanes, lanes)
            return value[lanes]
    else:  # shfl.down.sync
        def compute(ex):
            value = get_value(ex)
            delta = get_lane(ex).astype(_INT)
            lanes = identity_lanes + delta
            lanes = np.where(lanes >= warp_size, identity_lanes, lanes)
            return value[lanes]

    def execute(ex, mask, full):
        result = compute(ex)
        if full:
            ex.warp.write_register_full(dest, result)
        else:
            ex.warp.write_register(dest, result, mask)
        return None

    return execute


def _build_syncwarp(instruction: Instruction, warp_size: int) -> ExecuteFn:
    get_mask_operand = _numeric_getter(instruction.operands[0], instruction, warp_size)

    def execute(ex, mask, full):
        get_mask_operand(ex)
        return None

    return execute


def _build_rand(instruction: Instruction, warp_size: int) -> ExecuteFn:
    get_seed = _numeric_getter(instruction.operands[0], instruction, warp_size)
    get_step = _numeric_getter(instruction.operands[1], instruction, warp_size)
    get_salt = _numeric_getter(instruction.operands[2], instruction, warp_size)
    dest = instruction.dest

    def execute(ex, mask, full):
        seed = get_seed(ex).astype(_INT)
        step = get_step(ex).astype(_INT)
        salt = get_salt(ex).astype(_INT)
        value = counter_uniform(seed, step, salt)
        if full:
            ex.warp.write_register_full(dest, value)
        else:
            ex.warp.write_register(dest, value, mask)
        return None

    return execute


def _build_nop(instruction: Instruction, warp_size: int) -> ExecuteFn:
    def execute(ex, mask, full):
        return None

    return execute


def _build_unimplemented(instruction: Instruction, warp_size: int) -> ExecuteFn:
    opcode = instruction.opcode

    def execute(ex, mask, full):
        ex._trap(f"opcode {opcode!r} is not implemented by the interpreter", instruction)

    return execute


def _build_execute(instruction: Instruction, warp_size: int) -> ExecuteFn:
    opcode = instruction.opcode
    if opcode in _ARITHMETIC:
        return _build_arith(instruction, warp_size)
    if opcode in _IDENTITY_OPCODES:
        return _build_identity(instruction, warp_size)
    if opcode == "load":
        return _build_load(instruction, warp_size)
    if opcode in ("store", "memset"):
        return _build_store(instruction, warp_size)
    if opcode.startswith("atomic."):
        return _build_atomic(instruction, warp_size)
    if opcode == "activemask":
        return _build_activemask(instruction, warp_size)
    if opcode == "ballot.sync":
        return _build_ballot(instruction, warp_size)
    if opcode.startswith("shfl."):
        return _build_shfl(instruction, warp_size)
    if opcode == "syncwarp":
        return _build_syncwarp(instruction, warp_size)
    if opcode == "rand.uniform":
        return _build_rand(instruction, warp_size)
    if opcode == "nop":
        return _build_nop(instruction, warp_size)
    return _build_unimplemented(instruction, warp_size)


# --------------------------------------------------------------------------- decoding
def _decode_control(instruction: Instruction, kind: int, label: str,
                    arch: GpuArch, warp_size: int,
                    postdominators: Dict[str, Optional[str]]) -> ControlStep:
    cost, counter_key = static_instruction_cost(arch, instruction)
    step = ControlStep(kind, instruction, cost, counter_key)
    if kind == STEP_BR:
        step.target = instruction.attrs["target"]
    elif kind == STEP_CONDBR:
        step.condition = _numeric_getter(instruction.operands[0], instruction,
                                         warp_size)
        step.true_target = instruction.attrs["true_target"]
        step.false_target = instruction.attrs["false_target"]
        step.reconvergence = postdominators.get(label)
    return step


def _decode_block(label: str, instructions: List[Instruction], arch: GpuArch,
                  warp_size: int,
                  postdominators: Dict[str, Optional[str]]) -> DecodedBlock:
    steps: List[object] = []
    step_of_index: List[int] = []
    segment: Optional[Segment] = None
    for index, instruction in enumerate(instructions):
        kind = _CONTROL_KINDS.get(instruction.opcode)
        if kind is not None:
            segment = None
            steps.append(_decode_control(instruction, kind, label, arch,
                                         warp_size, postdominators))
        else:
            if segment is None:
                segment = Segment(index)
                steps.append(segment)
            static = static_instruction_cost(arch, instruction)
            cost, counter_key = static if static is not None else (None, None)
            segment.body.append(DecodedInstruction(
                instruction, _build_execute(instruction, warp_size),
                cost, counter_key))
        step_of_index.append(len(steps) - 1)
    for step in steps:
        if step.kind == STEP_SEGMENT:
            step.finalize()
    return DecodedBlock(label, len(instructions), steps, step_of_index)


def _decode(function: Function, arch: GpuArch) -> DecodedFunction:
    warp_size = arch.warp_size
    postdominators = immediate_postdominators(function)
    blocks = {
        label: _decode_block(label, function.blocks[label].instructions,
                             arch, warp_size, postdominators)
        for label in function.block_order()
    }
    return DecodedFunction(blocks, postdominators, warp_size)


def decode_function(function: Function, arch: GpuArch) -> DecodedFunction:
    """Decode *function* for *arch*, memoised until the function's IR changes.

    The cache key covers everything the decoding bakes in: warp size and
    the launch-invariant latencies (:meth:`GpuArch.cost_signature`).
    """
    key = ("decoded", arch.warp_size, arch.cost_signature())
    return function.cached_decoding(key, lambda fn: _decode(fn, arch))
