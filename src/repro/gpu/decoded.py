"""Decode-once structure of a kernel, the input of the segment JIT.

The tree-walking oracle (:class:`~repro.gpu.interpreter.WarpExecutor`)
re-inspects every instruction's string opcode and re-resolves every
operand on every executed instruction of every warp.  The segment JIT
(:mod:`repro.gpu.jitted`) instead compiles each kernel once, from the
structure this module decodes:

* launch-invariant instruction costs (everything except memory/atomics,
  whose price depends on the addresses actually touched) are baked in;
* each basic block is split into *steps*: maximal straight-line
  **segments** of simple instructions, separated by control
  flow/barriers, so uniform (non-divergent) regions compile into one
  function without re-checking for reconvergence or control transfers.

Decoded programs are cached per function via
:meth:`repro.ir.function.Function.cached_decoding`, so every launch of an
unchanged module (one fitness evaluation launches the same variant once
per test case or simulation step) reuses one decoding and its compiled
kernels.  The steps the JIT does not compile run one instruction at a
time on the oracle, so the two tiers stay bit-for-bit equivalent -- same
cycle counts, instruction counts, output buffers, trap messages and RNG
streams -- which the differential battery in
``tests/gpu/test_fast_path_equivalence.py`` pins.  Cost-model counters
and profiles are oracle reports, so nothing here records which counter a
cost bumps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..ir.analysis import immediate_postdominators
from ..ir.function import Function
from ..ir.instructions import Instruction
from .arch import GpuArch
from .interpreter import (
    STEP_BARRIER,
    STEP_BR,
    STEP_CONDBR,
    STEP_RET,
    STEP_SEGMENT,
)
from .timing import static_instruction_cost

_INT = np.int64
_FLOAT = np.float64

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
    """One simple (straight-line) instruction with its baked cost."""

    __slots__ = ("instruction", "uid", "static_cost")

    def __init__(self, instruction: Instruction, static_cost: Optional[float]):
        self.instruction = instruction
        self.uid = instruction.uid
        #: Baked cycle cost, or ``None`` for memory/atomics (priced at runtime).
        self.static_cost = static_cost


class Segment:
    """A maximal run of simple instructions inside one block.

    ``static_cycles`` pre-aggregates the baked costs of the whole body so
    a full segment execution charges them in one step.
    Every latency in the cost model is an integer number of cycles, so the
    pre-aggregated sums are exact in float64 and charging them out of order
    is bit-for-bit identical to the reference's per-instruction adds;
    ``exact`` records that decode-time check (a hypothetical non-integer
    cost override leaves the segment to the oracle, instruction by
    instruction).
    """

    __slots__ = ("kind", "start", "body", "static_cycles", "exact",
                 "local_registers")

    def __init__(self, start: int):
        self.kind = STEP_SEGMENT
        self.start = start
        self.body: List[DecodedInstruction] = []
        self.static_cycles = 0.0
        self.exact = True
        #: Registers this segment writes that no instruction reads except
        #: after a write in the same segment or its folded terminator, and
        #: no cross-lane opcode reads: their inactive lanes are never
        #: observed, so the JIT's masked shape stores them unmerged.  Set
        #: by :func:`repro.gpu.jitted.attach_jit`.
        self.local_registers: frozenset = frozenset()

    def finalize(self) -> None:
        for decoded in self.body:
            cost = decoded.static_cost
            if cost is None:
                continue
            if not float(cost).is_integer():
                self.exact = False
            self.static_cycles += cost


class ControlStep:
    """A control-flow or barrier instruction (one step on its own)."""

    __slots__ = ("kind", "start", "instruction", "static_cost", "target",
                 "true_target", "false_target", "reconvergence")

    def __init__(self, kind: int, start: int, instruction: Instruction,
                 static_cost: float):
        self.kind = kind
        #: The instruction's index in its block.
        self.start = start
        self.instruction = instruction
        self.static_cost = static_cost
        self.target: Optional[str] = None
        self.true_target: Optional[str] = None
        self.false_target: Optional[str] = None
        self.reconvergence: Optional[str] = None


class DecodedBlock:
    """The decoded body of one basic block."""

    __slots__ = ("label", "length", "steps", "step_of_index")

    def __init__(self, label: str, length: int, steps: List[object],
                 step_of_index: List[int]):
        self.label = label
        self.length = length
        self.steps = steps
        #: Instruction index -> position in ``steps`` (read by the run
        #: loop of :mod:`repro.gpu.batched`).
        self.step_of_index = step_of_index


class DecodedFunction:
    """A kernel decoded into blocks of steps.

    Deliberately holds no reference back to the :class:`Function`: decoded
    programs live as *values* of a WeakKeyDictionary keyed by their
    function (see ``Function.cached_decoding``), and a back-reference
    would pin every decoded variant for the life of the process.
    """

    __slots__ = ("blocks", "postdominators", "warp_size", "records")

    def __init__(self, blocks: Dict[str, DecodedBlock],
                 postdominators: Dict[str, Optional[str]], warp_size: int):
        self.blocks = blocks
        self.postdominators = postdominators
        self.warp_size = warp_size
        #: The JIT tier's ``(label, index) -> record`` map, ``None`` until
        #: :func:`repro.gpu.jitted.attach_jit` builds it; lives (and dies)
        #: with the decoded program in ``Function.cached_decoding``, so a
        #: mutation that re-decodes the function also recompiles its kernels.
        self.records = None


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


# --------------------------------------------------------------------------- decoding
def _decode_control(instruction: Instruction, kind: int, index: int, label: str,
                    arch: GpuArch,
                    postdominators: Dict[str, Optional[str]]) -> ControlStep:
    cost, _ = static_instruction_cost(arch, instruction)
    step = ControlStep(kind, index, instruction, cost)
    if kind == STEP_BR:
        step.target = instruction.attrs["target"]
    elif kind == STEP_CONDBR:
        step.true_target = instruction.attrs["true_target"]
        step.false_target = instruction.attrs["false_target"]
        step.reconvergence = postdominators.get(label)
    return step


def _decode_block(label: str, instructions: List[Instruction], arch: GpuArch,
                  postdominators: Dict[str, Optional[str]]) -> DecodedBlock:
    steps: List[object] = []
    step_of_index: List[int] = []
    segment: Optional[Segment] = None
    for index, instruction in enumerate(instructions):
        kind = _CONTROL_KINDS.get(instruction.opcode)
        if kind is not None:
            segment = None
            steps.append(_decode_control(instruction, kind, index, label, arch,
                                         postdominators))
        else:
            if segment is None:
                segment = Segment(index)
                steps.append(segment)
            static = static_instruction_cost(arch, instruction)
            segment.body.append(DecodedInstruction(
                instruction, static[0] if static is not None else None))
        step_of_index.append(len(steps) - 1)
    for step in steps:
        if step.kind == STEP_SEGMENT:
            step.finalize()
    return DecodedBlock(label, len(instructions), steps, step_of_index)


def _decode(function: Function, arch: GpuArch) -> DecodedFunction:
    postdominators = immediate_postdominators(function)
    blocks = {
        label: _decode_block(label, function.blocks[label].instructions,
                             arch, postdominators)
        for label in function.block_order()
    }
    return DecodedFunction(blocks, postdominators, arch.warp_size)


def decode_function(function: Function, arch: GpuArch) -> DecodedFunction:
    """Decode *function* for *arch*, memoised until the function's IR changes.

    The cache key covers everything the decoding bakes in: warp size and
    the launch-invariant latencies (:meth:`GpuArch.cost_signature`).
    """
    key = ("decoded", arch.warp_size, arch.cost_signature())
    return function.cached_decoding(key, lambda fn: _decode(fn, arch))
