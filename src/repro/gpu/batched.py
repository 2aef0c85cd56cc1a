"""Population-batched lockstep execution: N launches in one NumPy pass.

The search loop re-simulates near-identical kernels: every SIMCoV
fitness evaluation launches the same program with different scalar
parameters, and every GEVO generation is full of structurally identical
clones that differ only in baked constants.  Warp state is already
``(lanes,)`` NumPy arrays, so N such launches stack into ``(N, lanes)``
arrays and execute together, amortising the per-instruction Python
overhead of the dispatch tier across the whole population.

The batching axis is *independent launches*: each row of the stack is
one complete launch with its own (copied) global memory, scalar
parameters and constant operands.  Rows never share mutable state, so
any interleaving of their execution is equivalent to running them
sequentially -- which is exactly what the solo path does.

Execution is *group lockstep with splitting*.  A group is a set of rows
at the same program counter with the same reconvergence-stack shape
(stack entries share pcs and reconvergence labels; only the ``(rows,
lanes)`` masks differ per row).  Straight-line segments execute once per
group over stacked operands; a conditional branch classifies each row as
uniformly-taken, uniformly-not-taken or divergent and splits the group
into at most three subgroups; ``ret`` splits by per-row stack pop count.
Groups only ever split -- they never merge -- so within a group the
dynamic instruction sequence and cycle charges are the solo tiers'
sequences exactly, vectorised over rows.  Like a solo JIT launch, a
batch records no cost-model counters or profiles (those are oracle
reports; see :mod:`repro.gpu.simulator`).

Anything the batched model cannot reproduce bit-for-bit -- a would-trap
condition (out-of-bounds or non-finite index, division by zero among
active lanes, undefined register, instruction-budget exhaustion), a
barrier, a non-exact segment, cross-row buffer aliasing -- raises
:class:`BatchAbort` *before* any host array is written (all work happens
on stacked copies; host write-back is the final step of a fully
successful batch).  The caller then falls back to per-row solo launches,
so per-candidate traps, messages and partial-write semantics are the
solo path's own.  Equivalence with the solo tiers is pinned by
``tests/gpu/test_batched_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.function import Function
from ..ir.values import Const, Reg
from .arch import GpuArch
from .decoded import _IDENTITY_OPCODES, decode_function
from .interpreter import (
    _ARITHMETIC,
    STEP_BR,
    STEP_CONDBR,
    STEP_RET,
    STEP_SEGMENT,
)
from .rng import counter_uniform
from .warp import scalar_dtype

_INT = np.int64
_FLOAT = np.float64


class BatchAbort(Exception):
    """The batched path cannot model this launch bit-for-bit; run solo.

    Raised before any host state is modified: the batch works on stacked
    copies and only writes back after a fully successful run, so the
    caller's per-row solo fallback always starts from pristine inputs.
    """


#: Opcodes the batched executor models.  Everything else (barriers,
#: warp-wide queries/shuffles, memset) falls back to solo launches.
_BATCHABLE_OPCODES = (
    frozenset(_ARITHMETIC)
    | _IDENTITY_OPCODES
    | frozenset(("load", "store", "rand.uniform", "nop",
                 "atomic.add", "atomic.max", "atomic.exch", "atomic.cas",
                 "br", "condbr", "ret"))
)


# --------------------------------------------------------------------------- stacked memory
class StackedBuffer:
    """One logical buffer across all rows of a batch.

    ``flat`` is the raveled view of the row-major stacked storage:
    element ``i`` of row ``r`` lives at ``r * row_stride + offset + i``.
    ``bound`` is the per-row addressable range (the whole arena in
    unified-arena mode, the logical size otherwise) -- the exact range
    the solo bounds check enforces.
    """

    __slots__ = ("name", "flat", "row_stride", "offset", "size", "bound", "dtype")

    def __init__(self, name: str, flat: np.ndarray, row_stride: int,
                 offset: int, size: int, bound: int):
        self.name = name
        self.flat = flat
        self.row_stride = row_stride
        self.offset = offset
        self.size = size
        self.bound = bound
        self.dtype = flat.dtype


# --------------------------------------------------------------------------- batched program
class _BatchedSegment:
    __slots__ = ("kind", "start", "count", "static_cycles", "body")

    def __init__(self, start, count, static_cycles, body):
        self.kind = STEP_SEGMENT
        self.start = start
        self.count = count
        self.static_cycles = static_cycles
        #: list of batched execute fns, one per instruction
        self.body = body


class _BatchedControl:
    __slots__ = ("kind", "static_cost", "target", "true_target",
                 "false_target", "reconvergence", "condition")

    def __init__(self, step):
        self.kind = step.kind
        self.static_cost = step.static_cost
        self.target = step.target
        self.true_target = step.true_target
        self.false_target = step.false_target
        self.reconvergence = step.reconvergence
        self.condition = None


class _BatchedBlock:
    __slots__ = ("label", "length", "steps", "step_of_index")

    def __init__(self, label, length, steps, step_of_index):
        self.label = label
        self.length = length
        self.steps = steps
        self.step_of_index = step_of_index


class _BatchedProgram:
    __slots__ = ("blocks", "entry_label", "lanes")

    def __init__(self, blocks, entry_label, lanes):
        self.blocks = blocks
        self.entry_label = entry_label
        self.lanes = lanes


def _const_lane_array(value, lanes: int) -> np.ndarray:
    """Shared per-lane array for a constant (same dtype rules as decode)."""
    if isinstance(value, bool):
        array = np.full(lanes, value, dtype=bool)
    else:
        array = np.full(lanes, value, dtype=_INT if isinstance(value, int) else _FLOAT)
    array.flags.writeable = False
    return array


def _rows(value: np.ndarray, shape) -> np.ndarray:
    """Broadcast a register/constant value to the group's (rows, lanes)."""
    if value.shape != shape:
        return np.broadcast_to(value, shape)
    return value


def _numeric_getter(operand, uid: int, operand_index: int, lanes: int):
    if isinstance(operand, Const):
        key = (uid, operand_index)
        shared = _const_lane_array(operand.value, lanes)

        def get_const(group):
            column = group.columns.get(key)
            return shared if column is None else column

        return get_const
    if isinstance(operand, Reg):
        name = operand.name

        def get_reg(group):
            value = group.registers.get(name)
            if value is None or isinstance(value, StackedBuffer):
                raise BatchAbort(f"register %{name} is not numeric here")
            return value

        return get_reg

    def get_unsupported(group):
        raise BatchAbort(f"unsupported operand {operand!r}")

    return get_unsupported


def _buffer_getter(operand):
    if isinstance(operand, Reg):
        name = operand.name

        def get_handle(group):
            value = group.registers.get(name)
            if not isinstance(value, StackedBuffer):
                raise BatchAbort(f"register %{name} is not a buffer here")
            return value

        return get_handle

    def get_unsupported(group):
        raise BatchAbort(f"unsupported buffer operand {operand!r}")

    return get_unsupported


# --------------------------------------------------------------------------- handlers
def _active_indices(handle: StackedBuffer, index: np.ndarray,
                    mask: np.ndarray, full: bool):
    """Bounds-check and offset the stacked index array.

    Returns ``(adj, act, starts, cols)``: in the full case ``adj`` is the
    (rows, lanes) adjusted index array and the rest are ``None``; in the
    masked case ``act`` is the flat row-major active index vector with
    per-row ``starts`` boundaries and ``cols`` lane positions.  Any index
    the solo bounds check would reject aborts the batch.
    """
    if full:
        if index.dtype.kind == "f":
            if not np.all(np.isfinite(index)):
                raise BatchAbort("non-finite index")
        adj = index.astype(np.int64) + handle.offset
        if adj.size and (int(adj.min()) < 0 or int(adj.max()) >= handle.bound):
            raise BatchAbort("index outside the addressable range")
        return adj, None, None, None
    act = index[mask]
    if act.dtype.kind == "f":
        if not np.all(np.isfinite(act)):
            raise BatchAbort("non-finite index")
    act = act.astype(np.int64) + handle.offset
    if act.size and (int(act.min()) < 0 or int(act.max()) >= handle.bound):
        raise BatchAbort("index outside the addressable range")
    counts = np.count_nonzero(mask, axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)))
    cols = np.nonzero(mask)[1]
    return None, act, starts, cols


def _transactions_full(adj: np.ndarray, segment_size: int) -> np.ndarray:
    """Per-row coalesced transaction counts (all lanes active)."""
    lo = adj.min(axis=1)
    hi = adj.max(axis=1)
    span = hi // segment_size - lo // segment_size
    tx = span + 1
    multi = span > 1
    if multi.any():
        segments = np.sort(adj[multi] // segment_size, axis=1)
        tx[multi] = (segments[:, 1:] != segments[:, :-1]).sum(axis=1) + 1
    return tx


def _transactions_masked(act: np.ndarray, starts: np.ndarray,
                         segment_size: int) -> np.ndarray:
    rows = starts.shape[0] - 1
    tx = np.zeros(rows, dtype=np.int64)
    for row in range(rows):
        part = act[starts[row]:starts[row + 1]]
        if not part.size:
            continue
        lo = int(part.min())
        hi = int(part.max())
        span = hi // segment_size - lo // segment_size
        if span <= 1:
            tx[row] = span + 1
        else:
            segments = np.sort(part // segment_size)
            tx[row] = int(np.count_nonzero(segments[1:] != segments[:-1])) + 1
    return tx


def _price_global(group, tx: np.ndarray, active: np.ndarray,
                  is_store: bool, is_atomic: bool) -> None:
    """Per-row replica of ``CostModel.price_access`` for global memory."""
    arch = group.arch
    base = arch.global_store_latency if is_store else arch.global_latency
    cost = base + arch.global_per_transaction * np.maximum(0, tx - 1)
    if is_atomic:
        cost = (cost + arch.atomic_latency
                + arch.atomic_serialization * np.maximum(0, active - 1))
    group.cycles += cost.astype(np.float64)


def _build_arith(d, lanes: int):
    handler = _ARITHMETIC[d.instruction.opcode]
    instruction = d.instruction
    dest = instruction.dest
    getters = [_numeric_getter(op, d.uid, i, lanes)
               for i, op in enumerate(instruction.operands)]
    # The shared handlers broadcast (lanes,) / (rows, 1) operands
    # natively; only the division-by-zero scan indexes an operand with
    # the full (rows, lanes) mask and needs an explicit broadcast.
    if instruction.opcode in ("div", "rem"):

        def execute(group, mask, full):
            operands = [get(group) for get in getters]
            operands[1] = _rows(np.asarray(operands[1]), mask.shape)
            result = handler(group, instruction, operands)
            group.write(dest, result, mask)

        return execute

    def execute(group, mask, full):
        operands = [get(group) for get in getters]
        result = handler(group, instruction, operands)
        group.write(dest, result, mask)

    return execute


def _build_identity_op(d):
    opcode = d.instruction.opcode
    dest = d.instruction.dest

    def execute(group, mask, full):
        group.write(dest, group.identity[opcode], mask)

    return execute


def _build_load(d, lanes: int):
    get_base = _buffer_getter(d.instruction.operands[0])
    get_index = _numeric_getter(d.instruction.operands[1], d.uid, 1, lanes)
    dest = d.instruction.dest

    def execute(group, mask, full):
        handle = get_base(group)
        index = _rows(get_index(group), mask.shape)
        adj, act, starts, cols = _active_indices(handle, index, mask, full)
        stride = handle.row_stride
        slots = group.row_slots
        if full:
            values = handle.flat[slots[:, None] * stride + adj]
            group.write(dest, values, mask)
            tx = _transactions_full(adj, group.arch.memory_segment_size)
            active = np.full(len(slots), lanes, dtype=np.int64)
        else:
            result = np.zeros(mask.shape, dtype=handle.dtype)
            rr = np.nonzero(mask)[0]
            result[rr, cols] = handle.flat[slots[rr] * stride + act]
            group.write(dest, result, mask)
            tx = _transactions_masked(act, starts, group.arch.memory_segment_size)
            active = np.count_nonzero(mask, axis=1)
        _price_global(group, tx, active, False, False)

    return execute


def _build_store(d, lanes: int):
    get_base = _buffer_getter(d.instruction.operands[0])
    get_index = _numeric_getter(d.instruction.operands[1], d.uid, 1, lanes)
    get_value = _numeric_getter(d.instruction.operands[2], d.uid, 2, lanes)

    def execute(group, mask, full):
        handle = get_base(group)
        index = _rows(get_index(group), mask.shape)
        value = _rows(get_value(group), mask.shape)
        adj, act, starts, cols = _active_indices(handle, index, mask, full)
        stride = handle.row_stride
        slots = group.row_slots
        if full:
            handle.flat[slots[:, None] * stride + adj] = value.astype(handle.dtype)
            tx = _transactions_full(adj, group.arch.memory_segment_size)
            active = np.full(len(slots), lanes, dtype=np.int64)
        else:
            rr = np.nonzero(mask)[0]
            handle.flat[slots[rr] * stride + act] = \
                value[rr, cols].astype(handle.dtype)
            tx = _transactions_masked(act, starts, group.arch.memory_segment_size)
            active = np.count_nonzero(mask, axis=1)
        _price_global(group, tx, active, True, False)

    return execute


def _build_atomic(d, lanes: int):
    opcode = d.instruction.opcode
    operands = d.instruction.operands
    get_base = _buffer_getter(operands[0])
    get_index = _numeric_getter(operands[1], d.uid, 1, lanes)
    if opcode == "atomic.cas":
        get_compare = _numeric_getter(operands[2], d.uid, 2, lanes)
        get_value = _numeric_getter(operands[3], d.uid, 3, lanes)
    else:
        get_compare = None
        get_value = _numeric_getter(operands[2], d.uid, 2, lanes)
    dest = d.instruction.dest

    def execute(group, mask, full):
        handle = get_base(group)
        shape = mask.shape
        index = _rows(get_index(group), shape)
        value = _rows(get_value(group), shape)
        compare = (_rows(get_compare(group), shape)
                   if get_compare is not None else None)
        adj, act, starts, cols = _active_indices(handle, index, mask, full)
        stride = handle.row_stride
        slots = group.row_slots
        flat = handle.flat
        if full:
            tx = _transactions_full(adj, group.arch.memory_segment_size)
            active = np.full(len(slots), lanes, dtype=np.int64)
        else:
            tx = _transactions_masked(act, starts, group.arch.memory_segment_size)
            active = np.count_nonzero(mask, axis=1)
        collision_free = False
        if full and lanes > 1:
            ordered = np.sort(adj, axis=1)
            collision_free = bool((ordered[:, 1:] != ordered[:, :-1]).all())
        if collision_free:
            # No within-row address collisions (rows are disjoint by
            # construction): element-wise reads/writes match the serial
            # per-lane loop exactly, including NaN comparison behaviour
            # (same reasoning as the dispatch tier's vectorised atomics).
            flat_idx = slots[:, None] * stride + adj
            old = flat[flat_idx]
            if opcode == "atomic.add":
                flat[flat_idx] = old + value
            elif opcode == "atomic.max":
                flat[flat_idx] = np.where(value > old, value, old)
            elif opcode == "atomic.cas":
                flat[flat_idx] = np.where(old == compare, value, old)
            else:  # atomic.exch
                flat[flat_idx] = value
            if dest is not None:
                group.write(dest, old, mask)
            _price_global(group, tx, active, False, True)
            return
        old_values = np.zeros(shape, dtype=handle.dtype)
        rows = len(slots)
        for row in range(rows):
            base = int(slots[row]) * stride
            if full:
                addresses = adj[row]
                row_lanes = range(lanes)
            else:
                addresses = act[starts[row]:starts[row + 1]]
                row_lanes = cols[starts[row]:starts[row + 1]]
            for position, lane in enumerate(row_lanes):
                address = base + int(addresses[position])
                old = flat[address]
                old_values[row, lane] = old
                new = value[row, lane]
                if opcode == "atomic.add":
                    flat[address] = old + new
                elif opcode == "atomic.max":
                    flat[address] = max(old, new)
                elif opcode == "atomic.exch":
                    flat[address] = new
                elif opcode == "atomic.cas":
                    if old == compare[row, lane]:
                        flat[address] = new
        if dest is not None:
            group.write(dest, old_values, mask)
        _price_global(group, tx, active, False, True)

    return execute


def _build_rand(d, lanes: int):
    get_seed = _numeric_getter(d.instruction.operands[0], d.uid, 0, lanes)
    get_step = _numeric_getter(d.instruction.operands[1], d.uid, 1, lanes)
    get_salt = _numeric_getter(d.instruction.operands[2], d.uid, 2, lanes)
    dest = d.instruction.dest

    def execute(group, mask, full):
        seed = get_seed(group).astype(_INT)
        step = get_step(group).astype(_INT)
        salt = get_salt(group).astype(_INT)
        group.write(dest, counter_uniform(seed, step, salt), mask)

    return execute


def _build_nop(d):
    def execute(group, mask, full):
        pass

    return execute


def _build_batched_execute(d, lanes: int):
    opcode = d.instruction.opcode
    if opcode in _ARITHMETIC:
        return _build_arith(d, lanes)
    if opcode in _IDENTITY_OPCODES:
        return _build_identity_op(d)
    if opcode == "load":
        return _build_load(d, lanes)
    if opcode == "store":
        return _build_store(d, lanes)
    if opcode.startswith("atomic."):
        return _build_atomic(d, lanes)
    if opcode == "rand.uniform":
        return _build_rand(d, lanes)
    if opcode == "nop":
        return _build_nop(d)
    return None


# --------------------------------------------------------------------------- program build
def _build_program(function: Function, arch: GpuArch) -> Optional[_BatchedProgram]:
    """Batched decoding of *function*, or ``None`` when not batchable."""
    if function.shared:
        return None
    for instruction in function.instructions():
        if instruction.opcode not in _BATCHABLE_OPCODES:
            return None
        for operand in instruction.operands:
            if not isinstance(operand, (Const, Reg)):
                return None
    decoded = decode_function(function, arch)
    lanes = arch.warp_size
    blocks: Dict[str, _BatchedBlock] = {}
    for label, dblock in decoded.blocks.items():
        steps: List[object] = []
        for step in dblock.steps:
            if step.kind == STEP_SEGMENT:
                if not step.exact:
                    return None
                body = []
                for d in step.body:
                    opcode = d.instruction.opcode
                    dynamic = (opcode in ("load", "store")
                               or opcode.startswith("atomic."))
                    if dynamic != (d.static_cost is None):
                        # A cost override flipped a memory opcode to
                        # static pricing (or vice versa); the handlers
                        # here assume the default split, so stay solo.
                        return None
                    execute = _build_batched_execute(d, lanes)
                    if execute is None:
                        return None
                    body.append(execute)
                steps.append(_BatchedSegment(step.start, len(step.body),
                                             step.static_cycles, body))
            elif step.kind in (STEP_BR, STEP_CONDBR, STEP_RET):
                control = _BatchedControl(step)
                if step.kind == STEP_CONDBR:
                    control.condition = _numeric_getter(
                        step.instruction.operands[0], step.instruction.uid,
                        0, lanes)
                steps.append(control)
            else:
                return None  # barriers never reach here (opcode gate above)
        blocks[label] = _BatchedBlock(label, dblock.length, steps,
                                      dblock.step_of_index)
    return _BatchedProgram(blocks, function.entry_label, lanes)


def batched_program(function: Function, arch: GpuArch) -> Optional[_BatchedProgram]:
    """Memoised :func:`_build_program` (same cache discipline as decode)."""
    key = ("batched", arch.warp_size, arch.cost_signature())
    return function.cached_decoding(key, lambda fn: _build_program(fn, arch))


def batchable_function(function: Function, arch: GpuArch) -> bool:
    """Whether the batched executor models *function* bit-for-bit."""
    return batched_program(function, arch) is not None


# --------------------------------------------------------------------------- group state
class _Entry:
    __slots__ = ("pc", "mask", "reconvergence")

    def __init__(self, pc, mask, reconvergence):
        self.pc = pc
        self.mask = mask
        self.reconvergence = reconvergence


class _Group:
    """A set of rows in lockstep: shared pcs/stack shape, per-row masks.

    Doubles as the executor object the shared arithmetic table expects:
    ``group.warp.active_mask`` is the (rows, lanes) mask of the current
    step and ``group._trap`` aborts the batch (the solo rerun reproduces
    the per-row trap).
    """

    __slots__ = ("rows", "row_slots", "stack", "cycles", "instructions",
                 "registers", "columns", "identity", "arch", "active_mask",
                 "mask_full", "warp", "whole")

    def __init__(self):
        self.warp = self
        self.active_mask = None
        self.mask_full = False
        #: True while the group still covers every row of the batch in
        #: order (the common never-split case); lets retirement use
        #: whole-array stores instead of fancy indexing.
        self.whole = False

    @classmethod
    def initial(cls, rows, registers, columns, identity, arch, entry_label):
        group = cls()
        group.rows = rows
        group.row_slots = rows
        group.registers = registers
        group.columns = columns
        group.identity = identity
        group.arch = arch
        group.cycles = np.zeros(len(rows), dtype=np.float64)
        group.instructions = 0
        group.whole = True
        return group

    # -- executor duck type (shared arithmetic handlers) -------------------
    def _trap(self, message, instruction=None):
        raise BatchAbort(str(message))

    # -- state updates -----------------------------------------------------
    def write(self, name: str, value, mask: np.ndarray) -> None:
        """Masked register write; the (rows, lanes) twin of
        ``WarpState.write_register`` (bit-for-bit per row, including the
        dtype promotion against the previous contents)."""
        if isinstance(value, StackedBuffer):
            self.registers[name] = value
            return
        value = np.asarray(value)
        existing = self.registers.get(name)
        if self.mask_full:
            # All lanes of all rows active: the masked merge reduces to
            # a plain store (after the same dtype promotion the solo
            # full path applies).  Registers are rebound, never mutated
            # in place, so storing an unbroadcast or shared array is
            # safe.
            if (existing is not None
                    and not isinstance(existing, StackedBuffer)
                    and existing.dtype != value.dtype):
                value = value.astype(np.result_type(existing.dtype, value.dtype))
            self.registers[name] = value
            return
        if existing is None or isinstance(existing, StackedBuffer):
            base = np.zeros(mask.shape, dtype=value.dtype)
        else:
            base = existing
        if base.dtype != value.dtype:
            common = np.result_type(base.dtype, value.dtype)
            base = base.astype(common)
            value = value.astype(common)
        self.registers[name] = np.where(mask, value, base)

    def subset(self, picks: np.ndarray) -> "_Group":
        sub = _Group()
        sub.rows = self.rows[picks]
        sub.row_slots = self.row_slots[picks]
        sub.stack = [_Entry(e.pc, e.mask[picks], e.reconvergence)
                     for e in self.stack]
        sub.cycles = self.cycles[picks]
        sub.instructions = self.instructions
        sub.registers = {
            name: (value if isinstance(value, StackedBuffer) or value.ndim == 1
                   else value[picks])
            for name, value in self.registers.items()}
        sub.columns = {key: value[picks] for key, value in self.columns.items()}
        sub.identity = self.identity
        sub.arch = self.arch
        return sub


def _retire(group: _Group, warp_cycles: np.ndarray,
            warp_instructions: np.ndarray) -> None:
    """Store a finished group's per-row cycles and instruction count."""
    rows = slice(None) if group.whole else group.rows
    warp_cycles[rows] = group.cycles
    warp_instructions[rows] = group.instructions


# --------------------------------------------------------------------------- the executor
def _advance(program: _BatchedProgram, group: _Group,
             warp_cycles: np.ndarray, warp_instructions: np.ndarray,
             budget: int) -> List[_Group]:
    """Run *group* until it retires or splits; returns the subgroups."""
    blocks = program.blocks
    while True:
        stack = group.stack
        while stack:
            top = stack[-1]
            reconvergence = top.reconvergence
            if reconvergence is not None:
                pc = top.pc
                if pc[1] == 0 and pc[0] == reconvergence:
                    stack.pop()
                    continue
            break
        if not stack:
            _retire(group, warp_cycles, warp_instructions)
            return []
        top = stack[-1]
        label, index = top.pc
        block = blocks.get(label)
        if block is None:
            raise BatchAbort(f"branch to unknown block {label!r}")
        length = block.length
        steps = block.steps
        step_of_index = block.step_of_index
        transferred = False
        while not transferred:
            if index >= length:
                raise BatchAbort(f"fell off the end of block {label!r}")
            step = steps[step_of_index[index]]
            if step.kind == STEP_SEGMENT:
                if index != step.start:
                    raise BatchAbort("mid-segment entry")
                if group.instructions + step.count > budget:
                    raise BatchAbort("instruction budget straddled")
                group.instructions += step.count
                group.cycles += step.static_cycles
                mask = top.mask
                full = bool(mask.all())
                group.active_mask = mask
                group.mask_full = full
                for execute in step.body:
                    execute(group, mask, full)
                index = step.start + step.count
                top.pc = (label, index)
                continue
            # control step: one instruction on its own
            if group.instructions + 1 > budget:
                raise BatchAbort("instruction budget exhausted")
            group.instructions += 1
            group.cycles += step.static_cost
            mask = top.mask
            kind = step.kind
            if kind == STEP_BR:
                top.pc = (step.target, 0)
                transferred = True
            elif kind == STEP_CONDBR:
                group.active_mask = mask
                cond = np.asarray(step.condition(group)).astype(bool)
                taken = mask & cond
                not_taken = mask & ~cond
                taken_any = taken.any(axis=1)
                not_taken_any = not_taken.any(axis=1)
                # Per-row branch class, in exactly the solo classification:
                # no not-taken lanes -> jump true; otherwise no taken lanes
                # -> jump false; both sides live -> diverge.
                goes_true = ~not_taken_any
                goes_false = not_taken_any & ~taken_any
                diverges = taken_any & not_taken_any
                if goes_true.all():
                    top.pc = (step.true_target, 0)
                elif goes_false.all():
                    top.pc = (step.false_target, 0)
                elif diverges.all():
                    _diverge(stack, top, step, taken, not_taken)
                else:
                    subgroups = []
                    for picks_mask, shape in ((goes_true, "t"),
                                              (goes_false, "f"),
                                              (diverges, "d")):
                        if not picks_mask.any():
                            continue
                        picks = np.nonzero(picks_mask)[0]
                        sub = group.subset(picks)
                        sub_top = sub.stack[-1]
                        if shape == "t":
                            sub_top.pc = (step.true_target, 0)
                        elif shape == "f":
                            sub_top.pc = (step.false_target, 0)
                        else:
                            _diverge(sub.stack, sub_top, step,
                                     taken[picks], not_taken[picks])
                        subgroups.append(sub)
                    return subgroups
                transferred = True
            else:  # STEP_RET
                for entry in stack:
                    entry.mask = entry.mask & ~mask
                depth = len(stack)
                empty_from_top = np.stack(
                    [~stack[depth - 1 - level].mask.any(axis=1)
                     for level in range(depth)])
                alive = ~empty_from_top
                any_alive = alive.any(axis=0)
                pops = np.where(any_alive, np.argmax(alive, axis=0), depth)
                low = int(pops.min())
                if low == int(pops.max()):
                    if low:
                        del stack[depth - low:]
                    if not stack:
                        _retire(group, warp_cycles, warp_instructions)
                        return []
                    transferred = True
                else:
                    subgroups = []
                    for count in np.unique(pops):
                        picks = np.nonzero(pops == count)[0]
                        sub = group.subset(picks)
                        if count:
                            del sub.stack[len(sub.stack) - int(count):]
                        if not sub.stack:
                            _retire(sub, warp_cycles, warp_instructions)
                        else:
                            subgroups.append(sub)
                    return subgroups


def _diverge(stack, top, step, taken, not_taken):
    reconvergence = step.reconvergence
    if reconvergence is None:
        top.pc = (step.false_target, 0)
        top.mask = not_taken
        stack.append(_Entry((step.true_target, 0), taken, None))
    else:
        top.pc = (reconvergence, 0)
        stack.append(_Entry((step.false_target, 0), not_taken, reconvergence))
        stack.append(_Entry((step.true_target, 0), taken, reconvergence))


def _run_warp(program: _BatchedProgram, base_registers, columns, identity,
              arch: GpuArch, total: int,
              budget: int) -> Tuple[np.ndarray, np.ndarray]:
    warp_cycles = np.zeros(total, dtype=np.float64)
    warp_instructions = np.zeros(total, dtype=np.int64)
    valid = identity["__valid__"]
    if not valid.any():
        return warp_cycles, warp_instructions
    group = _Group.initial(np.arange(total), dict(base_registers), columns,
                           identity, arch, program.entry_label)
    group.stack = [_Entry((program.entry_label, 0),
                          np.broadcast_to(valid, (total, program.lanes)),
                          None)]
    pending = [group]
    while pending:
        pending.extend(_advance(program, pending.pop(), warp_cycles,
                                warp_instructions, budget))
    return warp_cycles, warp_instructions


# --------------------------------------------------------------------------- launch assembly
def _data_range(array: np.ndarray) -> Tuple[int, int]:
    interface = array.__array_interface__
    start = interface["data"][0]
    return start, start + array.nbytes


def _check_aliasing(row_buffers: List[Dict[str, np.ndarray]],
                    unified_arena: bool) -> None:
    """Abort when host buffers overlap in a way the stack cannot model.

    Rows sharing memory breaks solo-sequential semantics (row r+1 would
    see row r's writes through the shared array) in either mode.  In
    direct-binding mode (no unified arena) the solo path also makes
    *within-row* aliasing observable -- two parameters bound to one
    array see each other's writes immediately -- which per-parameter
    stacked copies cannot reproduce, so any overlap aborts there.
    """
    spans = []  # (start, end, row)
    for row, buffers in enumerate(row_buffers):
        for array in buffers.values():
            start, end = _data_range(array)
            spans.append((start, end, row))
    spans.sort()
    for (start_a, end_a, row_a), (start_b, end_b, row_b) in zip(spans, spans[1:]):
        if start_b < end_a and (row_a != row_b or not unified_arena):
            raise BatchAbort("aliased host buffers in the batch")


def stack_launch_rows(
    functions: Sequence[Function],
    per_row_args: Sequence[Dict[str, object]],
    arch: GpuArch,
    *,
    unified_arena: bool,
    guard_elements: int,
) -> Tuple[Dict[str, object], Dict[Tuple[int, int], np.ndarray], list]:
    """Build the stacked memory, scalar bindings and constant columns.

    Returns ``(base_registers, columns, writebacks)`` where *writebacks*
    is a list of ``(host_view, stacked, row, offset, size)`` records the
    caller replays (in binding order) after a fully successful run.
    """
    total = len(functions)
    template = functions[0]
    lanes = arch.warp_size
    registers: Dict[str, object] = {}
    row_buffers: List[Dict[str, np.ndarray]] = [{} for _ in range(total)]
    buffer_params = [p.name for p in template.params if p.kind == "buffer"]
    scalar_params = [p.name for p in template.params if p.kind != "buffer"]

    for name in buffer_params:
        for row, args in enumerate(per_row_args):
            array = args.get(name)
            if not isinstance(array, np.ndarray):
                raise BatchAbort(f"buffer argument {name!r} is not an array")
            row_buffers[row][name] = (array if array.ndim == 1
                                      else array.reshape(-1))
    sizes = {name: row_buffers[0][name].shape[0] for name in buffer_params}
    for buffers in row_buffers[1:]:
        for name in buffer_params:
            if buffers[name].shape[0] != sizes[name]:
                raise BatchAbort(f"buffer {name!r} sizes differ across rows")
    _check_aliasing(row_buffers, unified_arena)

    writebacks: list = []
    if unified_arena:
        # Replicate the arena layout: a guard region before every buffer
        # (in parameter order) and one after the last, all zero-filled.
        offsets: Dict[str, int] = {}
        cursor = 0
        for name in buffer_params:
            offsets[name] = cursor + guard_elements
            cursor = offsets[name] + sizes[name]
        arena_len = cursor + guard_elements
        stacked = np.zeros((total, arena_len), dtype=np.float64)
        flat = stacked.reshape(-1)
        for name in buffer_params:
            offset = offsets[name]
            size = sizes[name]
            for row in range(total):
                stacked[row, offset:offset + size] = \
                    row_buffers[row][name].astype(np.float64)
            registers[name] = StackedBuffer(name, flat, arena_len, offset,
                                            size, arena_len)
            writebacks.append((name, [row_buffers[row][name]
                                      for row in range(total)],
                               stacked, offset, size))
    else:
        for name in buffer_params:
            size = sizes[name]
            dtype = row_buffers[0][name].dtype
            for buffers in row_buffers[1:]:
                if buffers[name].dtype != dtype:
                    raise BatchAbort(f"buffer {name!r} dtypes differ across rows")
            stacked = np.stack([row_buffers[row][name]
                                for row in range(total)])
            registers[name] = StackedBuffer(name, stacked.reshape(-1), size,
                                            0, size, size)
            writebacks.append((name, [row_buffers[row][name]
                                      for row in range(total)],
                               stacked, 0, size))

    for name in scalar_params:
        try:
            values = [float(per_row_args[row][name]) for row in range(total)]
        except (KeyError, TypeError, ValueError):
            raise BatchAbort(f"scalar argument {name!r} missing or non-numeric")
        dtypes = {scalar_dtype(value) for value in values}
        if len(dtypes) > 1:
            raise BatchAbort(f"scalar {name!r} mixes integral and fractional rows")
        dtype, = dtypes
        first = values[0]
        if all(value == first for value in values):
            shared = np.full(lanes, first, dtype=dtype)
            shared.flags.writeable = False
            registers[name] = shared
        else:
            column = np.array(values, dtype=dtype)[:, None]
            column.flags.writeable = False
            registers[name] = column

    columns = _const_columns(functions)
    return registers, columns, writebacks


def _const_columns(functions: Sequence[Function]) -> Dict[Tuple[int, int], np.ndarray]:
    """Per-row constant columns for operands that differ across clones."""
    columns: Dict[Tuple[int, int], np.ndarray] = {}
    total = len(functions)
    if total < 2:
        return columns
    template = functions[0]
    template_blocks = template.block_order()
    per_row_blocks = []
    for function in functions[1:]:
        if function.block_order() != template_blocks:
            raise BatchAbort("clone block structure differs")
        per_row_blocks.append(function.blocks)
    for label in template_blocks:
        instructions = template.blocks[label].instructions
        clones = [blocks[label].instructions for blocks in per_row_blocks]
        for clone in clones:
            if len(clone) != len(instructions):
                raise BatchAbort("clone instruction count differs")
        for position, instruction in enumerate(instructions):
            for operand_index, operand in enumerate(instruction.operands):
                if not isinstance(operand, Const):
                    continue
                values = [operand.value]
                for clone in clones:
                    other = clone[position].operands[operand_index]
                    if not isinstance(other, Const):
                        raise BatchAbort("clone operand kind differs")
                    values.append(other.value)
                first = values[0]
                if all(value == first and type(value) is type(first)
                       for value in values[1:]):
                    continue
                if isinstance(first, bool):
                    dtype = np.dtype(bool)
                elif isinstance(first, int):
                    dtype = np.dtype(np.int64)
                else:
                    dtype = np.dtype(np.float64)
                for value in values[1:]:
                    if isinstance(first, bool) != isinstance(value, bool):
                        raise BatchAbort("clone constant dtype class differs")
                    if (isinstance(first, int) and not isinstance(first, bool)) \
                            != (isinstance(value, int) and not isinstance(value, bool)):
                        raise BatchAbort("clone constant dtype class differs")
                column = np.array(values, dtype=dtype)[:, None]
                column.flags.writeable = False
                columns[(instruction.uid, operand_index)] = column
    return columns


def execute_batched(
    functions: Sequence[Function],
    per_row_args: Sequence[Dict[str, object]],
    grid_dim: Tuple[int, int],
    block_dim: Tuple[int, int],
    arch: GpuArch,
    *,
    unified_arena: bool,
    guard_elements: int,
    budget: int,
    identity_of,
) -> Dict[str, object]:
    """Run N structurally identical launches in one stacked pass.

    ``identity_of(warp_index, block_coords)`` supplies the (shared)
    thread identity for one warp of one block.  Raises
    :class:`BatchAbort` -- with no host state modified -- whenever the
    batched model cannot reproduce the solo tiers bit-for-bit; on
    success the stacked buffers are written back to the per-row host
    arrays (in binding order, like ``GlobalMemory.sync_back``) and the
    per-row cycles and instruction counts are returned.
    """
    template = functions[0]
    program = batched_program(template, arch)
    if program is None:
        raise BatchAbort(f"kernel {template.name!r} is not batchable")
    total = len(functions)
    base_registers, columns, writebacks = stack_launch_rows(
        functions, per_row_args, arch,
        unified_arena=unified_arena, guard_elements=guard_elements)

    lanes = arch.warp_size
    threads = block_dim[0] * block_dim[1]
    num_warps = max(1, -(-threads // lanes))
    block_cycle_rows: List[np.ndarray] = []
    total_instructions = np.zeros(total, dtype=np.int64)
    for by in range(grid_dim[1]):
        for bx in range(grid_dim[0]):
            block_cycles = np.zeros(total, dtype=np.float64)
            for warp_index in range(num_warps):
                identity = identity_of(warp_index, (bx, by))
                identity_map = dict(identity.register_values())
                identity_map["__valid__"] = identity.valid
                warp_cycles, warp_instructions = _run_warp(
                    program, base_registers, columns, identity_map, arch,
                    total, budget)
                block_cycles = np.maximum(block_cycles, warp_cycles)
                total_instructions += warp_instructions
            block_cycle_rows.append(block_cycles)

    concurrent = max(1, arch.concurrent_blocks)
    kernel_cycles = np.zeros(total, dtype=np.float64)
    for start in range(0, len(block_cycle_rows), concurrent):
        wave = block_cycle_rows[start:start + concurrent]
        kernel_cycles += np.maximum.reduce(wave)

    # Fully successful: write the stacked buffers back to the host rows.
    for name, hosts, stacked, offset, size in writebacks:
        for row, host in enumerate(hosts):
            host[...] = stacked[row, offset:offset + size].astype(host.dtype)

    return {
        "cycles": kernel_cycles,
        "instructions": total_instructions,
        "blocks_executed": grid_dim[0] * grid_dim[1],
        "warps_per_block": num_warps,
    }
