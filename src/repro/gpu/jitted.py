"""Segment JIT: exec-compiled straight-line kernels for the simulator.

The tree-walking oracle (:class:`~repro.gpu.interpreter.WarpExecutor`)
pays, per executed instruction, a string-opcode dispatch, an operand
resolution per operand, a register-dictionary round-trip per read and
write, a cost-model call and a profiler-dictionary probe.  This module
removes those by *compiling* each exact straight-line
:class:`~repro.gpu.decoded.Segment` into **one** Python function per
activation shape (fully active warp / partial mask):

* operand resolution becomes local-variable loads -- registers read once
  per segment are cached in locals ("shadows"), constants are baked in
  as shared read-only arrays;
* the oracle's opcode handlers are inlined into straight-line NumPy
  expressions (``add`` becomes ``a + b``; the runtime dtype dispatch of
  ``div``/``and``/``shl``/... is inlined with the same branches the
  shared arithmetic table takes);
* register writes stay in the shadow locals and flush to the register
  file once at segment end.  The full-mask variant stores each value
  with the dtype promotion of a
  :meth:`~repro.gpu.warp.WarpState.write_register` under a full mask;
  the masked variant defers that method's per-write ``np.where`` merge
  to the flush, where it is a masked store into a copy of the
  pre-segment value (``np.putmask``; the two share one dtype by
  construction).  No register array is ever written in place --
  writes rebind, and parameters, constants and thread identities are
  read-only -- so ``mov`` and identity reads store the source array
  uncopied.  The deferral is sound because the mask is constant
  inside a segment and every inlined operation is element-wise, so
  unmerged inactive lanes can never leak into active lanes (the
  cross-lane ``shfl`` opcodes explicitly merge their operands first, and
  an instruction run on the oracle sees a fully flushed register file);
* the masked variant skips the merge altogether for the segment's
  *local* registers (``Segment.local_registers``, computed once per
  decoded function by :func:`attach_jit`): a register that every
  instruction reads only after a write in the same segment (or in the
  terminator folded into it), and that no cross-lane opcode reads, never
  has its inactive lanes observed -- each read sees the value written
  under the same mask earlier in the same execution, and every consumer
  but a cross-lane one looks at active lanes only.  Such registers are
  stored unmerged, with the same dtype promotion as a merged write;
* the ``br``/``condbr``/``ret`` terminator or ``syncthreads`` barrier
  that follows a segment is folded into its compiled function (the
  ROADMAP's "segment mega-closures"), including the divergence stack
  discipline, and every kernel leaves ``top.pc`` where execution
  continues (a kernel that stops at a barrier returns True); control
  steps and barriers are *also* compiled on their own (an empty segment
  + folded step), so single-control blocks -- loop latches, header
  tests, bare returns, a join block's leading barrier -- execute
  through the same scheme;
* the segment's pre-aggregated static cycles are charged in one step;
* load/store memory pricing is inlined: the bounds check returns the
  index extrema it already computes (``check_bounds_stats``), the
  coalescing/bank-conflict counts take their exact fast paths from those
  extrema, the arch's geometry and latencies
  (``GpuArch.memory_segment_size`` / ``shared_banks`` / the memory
  latency fields -- never literals) are baked into the source, and the
  access costs aggregate into one charge per segment (sound because
  every latency is an integer, so float64 sums reorder exactly);
* every load's and store's bounds check, index conversion and
  transaction/conflict count go through one process-wide memo keyed by
  content: the handle's ``geometry_key``, the baked segment size and
  bank count, the index dtype and bytes and, in the masked shape, the
  mask bytes.  Equal keys give equal outcomes, so the few hundred
  distinct addressing patterns of a kernel's warps are checked and
  priced once across warps, launches and variants.  An access that traps
  is never stored (it traps again, with its own buffer's message), and
  the memo is cleared when it reaches ``_ACCESS_CACHE_LIMIT`` entries.

Compilation is lazy and content-addressed.  :func:`attach_jit` compiles
nothing: each activation shape of a segment compiles on its first
execution into its record's empty slot, so a shape that never runs
(most segments of most kernels never see a partial mask) is never
generated.  Generated functions take every clone-varying value
(instruction objects, constants, branch targets) through one bound
tuple, so a *structural key* of the segment and shape -- opcodes, operand
shapes, register names, baked costs -- maps to a cached ``(factory,
plan)`` pair: re-JITting the structurally identical variants a GEVO
population is full of costs a key probe plus one factory call per
executed shape, with no source generation, ``compile`` or ``exec``.  The
kernels live on the decoded program, which is cached per function through
:meth:`repro.ir.function.Function.cached_decoding`.  GEVO variants borrow
every kernel their edits do not write from the original module
(:meth:`repro.ir.function.Module.fork`), so they reuse its decoding and
compiled kernels; a write clones exactly the touched function, which then
decodes and compiles afresh.

Atomics and opcodes this compiler does not know run inside the compiled
function on the oracle's :meth:`~WarpExecutor._execute_straightline`.
:func:`attach_jit` keys each step's JIT record by the pc it starts at
(``DecodedFunction.records``), so a compiled segment runs only from its
start, with exact aggregated costs and when it cannot straddle the
instruction budget; every other pc -- inside a non-exact segment, in
the last partial segment of a runaway warp -- runs instruction by
instruction on the oracle (see
:meth:`~repro.gpu.interpreter.WarpExecutor._run_decoded`), so traps and
budget exhaustion behave identically.  Equivalence with the oracle --
cycles, instruction and warp counts, output buffers, RNG streams and
trap messages -- is pinned by the battery in
``tests/gpu/test_fast_path_equivalence.py``.

The JIT computes only what fitness reads.  Cost-model counters and
per-instruction profiles are reports of the oracle tier: a JIT launch
returns neither (``LaunchResult.counters == {}``, an empty profile), and
a caller that wants them -- the hotspot report, a counter-evidence test
-- launches on the oracle.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir.function import Function
from ..ir.values import Const, Reg
from .arch import GpuArch
from .decoded import (
    _IDENTITY_OPCODES,
    ControlStep,
    DecodedFunction,
    Segment,
    _const_array,
    decode_function,
)
from .interpreter import (
    _ARITHMETIC,
    _int_like,
    STEP_BARRIER,
    STEP_BR,
    STEP_RET,
    STEP_SEGMENT,
)
from .memory import (
    GLOBAL_SPACE,
    BufferHandle,
    conflicts_from_stats,
    transactions_from_stats,
)
from .rng import counter_uniform
from .warp import StackEntry

_INT = np.int64
_FLOAT = np.float64

#: Structural-key cache: (segment signature, full mask?) -> (factory,
#: plan).  See the module docstring.
_SEGMENT_CACHE: Dict[tuple, tuple] = {}
_SEGMENT_CACHE_LIMIT = 8192

#: Access memo: (handle geometry key, segment size, bank count, index
#: dtype, index bytes[, mask bytes]) -> (converted active-lane indices,
#: transaction or conflict count).  See the module docstring.
_ACCESS_CACHE: Dict[tuple, tuple] = {}
_ACCESS_CACHE_LIMIT = 4096

#: Opcodes that read other lanes' values of their register operands.  A
#: register they read is never segment-local, and they read the merged
#: value of a dirty shadow.
_CROSS_LANE_OPCODES = frozenset(("shfl.sync", "shfl.up.sync", "shfl.down.sync"))

#: One constant filename keeps compiled sources recognisable in tracebacks.
_SOURCE_FILENAME = "<repro-jit-segment>"


# --------------------------------------------------------------------------- runtime helpers
def _numeric_fallback(ex, name, instruction, value):
    """Trap for a register numeric read that is not a plain array."""
    if value is None:
        ex._trap(f"read of undefined register %{name}", instruction)
    if isinstance(value, BufferHandle):
        ex._trap(
            f"operand %{name} is a buffer handle "
            f"where a numeric value is required", instruction)
    return value  # an ndarray subclass: the reference path returns it as-is


def _buffer_fallback(ex, name, instruction, value):
    """Trap for a register buffer read that is not a buffer handle."""
    if value is None:
        ex._trap(f"read of undefined register %{name}", instruction)
    if not isinstance(value, BufferHandle):
        ex._trap("memory access base operand is not a buffer", instruction)
    return value


def _buffer_as_numeric(ex, name, instruction):
    ex._trap(
        f"operand %{name} is a buffer handle "
        f"where a numeric value is required", instruction)


def _not_a_buffer(ex, instruction):
    ex._trap("memory access base operand is not a buffer", instruction)


def _unsupported_operand(ex, operand, instruction):
    ex._trap(f"unsupported operand {operand!r}", instruction)


def _promote(existing, value):
    """The dtype :meth:`WarpState.write_register` gives *value* under a
    full mask, when the register already holds an array."""
    common = np.result_type(existing.dtype, value.dtype)
    if value.dtype != common:
        return value.astype(common)
    return value


def _check_access(key, handle, index, instruction, segment_size, banks):
    """Access-memo miss: bounds-check *index* (the active lanes' indices)
    against *handle*, price it with the baked geometry and remember the
    outcome under *key*.  A trapping access raises before anything is
    stored, so every access that traps checks afresh."""
    converted, lo, hi = handle.check_bounds_stats(index, instruction)
    if handle.space == GLOBAL_SPACE:
        count = transactions_from_stats(converted, lo, hi, segment_size)
    else:
        count = conflicts_from_stats(converted, lo, hi, banks)
    if len(_ACCESS_CACHE) >= _ACCESS_CACHE_LIMIT:
        _ACCESS_CACHE.clear()
    entry = _ACCESS_CACHE[key] = (converted, count)
    return entry


#: Fixed globals of every compiled segment (per-segment values travel in
#: the factory's bound tuple instead, which is what makes the factories
#: shareable across clones).
_BASE_ENV: Dict[str, object] = {
    "_nd": np.ndarray,
    "_BH": BufferHandle,
    "_SE": StackEntry,
    "_INT": _INT,
    "_FLOAT": _FLOAT,
    "_BOOL": np.dtype(bool),
    "_np_minimum": np.minimum,
    "_np_maximum": np.maximum,
    "_np_abs": np.abs,
    "_np_where": np.where,
    "_np_putmask": np.putmask,
    "_np_full": np.full,
    "_np_zeros": np.zeros,
    "_np_packbits": np.packbits,
    "_np_result_type": np.result_type,
    "_np_cnz": np.count_nonzero,
    "_np_floor_divide": np.floor_divide,
    "_np_remainder": np.remainder,
    "_np_land": np.logical_and,
    "_np_lor": np.logical_or,
    "_np_lxor": np.logical_xor,
    "_np_lnot": np.logical_not,
    "_np_band": np.bitwise_and,
    "_np_bor": np.bitwise_or,
    "_np_bxor": np.bitwise_xor,
    "_np_bnot": np.bitwise_not,
    "_np_shl": np.left_shift,
    "_np_shr": np.right_shift,
    "_AC": _ACCESS_CACHE,
    "_ca": _check_access,
    "_il": _int_like,
    "_cu": counter_uniform,
    "_pr": _promote,
    "_nf": _numeric_fallback,
    "_bf": _buffer_fallback,
    "_ban": _buffer_as_numeric,
    "_nab": _not_a_buffer,
    "_uns": _unsupported_operand,
}


# --------------------------------------------------------------------------- plans
def _resolve_plan(plan: tuple, segment: Segment,
                  terminator: Optional[ControlStep], label: str,
                  warp_size: int) -> tuple:
    """Evaluate a binding plan against a (possibly cloned) segment.

    Each plan item names where one bound value comes from; index ``-1``
    refers to the folded terminator's instruction.
    """
    body = segment.body
    values = []
    for item in plan:
        kind = item[0]
        if kind == "inst":
            index = item[1]
            values.append(terminator.instruction if index < 0
                          else body[index].instruction)
        elif kind == "const":
            _, index, operand_index = item
            instruction = (terminator.instruction if index < 0
                           else body[index].instruction)
            values.append(_const_array(instruction.operands[operand_index].value,
                                       warp_size))
        elif kind == "handler":
            values.append(_ARITHMETIC[item[1]])
        elif kind == "operand":
            _, index, operand_index = item
            instruction = (terminator.instruction if index < 0
                           else body[index].instruction)
            values.append(instruction.operands[operand_index])
        elif kind == "pc_target":
            values.append((terminator.target, 0))
        elif kind == "pc_true":
            values.append((terminator.true_target, 0))
        elif kind == "pc_false":
            values.append((terminator.false_target, 0))
        elif kind == "pc_rc":
            values.append((terminator.reconvergence, 0))
        elif kind == "pc_after":
            values.append((label, segment.start + len(body)))
        elif kind == "pc_next":
            values.append((label, segment.start + len(body) + 1))
        elif kind == "lanes":
            lanes = np.arange(warp_size)
            lanes.flags.writeable = False
            values.append(lanes)
        else:  # pragma: no cover - plans only contain the kinds above
            raise AssertionError(f"unknown plan item {item!r}")
    return tuple(values)


def _pricing_signature(arch: GpuArch) -> tuple:
    """The memory-pricing constants the generated source bakes as literals.

    Part of the structural cache key: segments from two architectures may
    share a compiled factory only when every baked pricing constant --
    geometry *and* latencies -- matches (a P100 and a G80 segment of the
    same shape must not share wrong baked costs).
    """
    return (arch.memory_segment_size, arch.shared_banks,
            arch.global_latency, arch.global_store_latency,
            arch.global_per_transaction, arch.shared_latency,
            arch.shared_store_latency, arch.shared_conflict_penalty,
            arch.alu_latency)


def _segment_signature(segment: Segment, terminator: Optional[ControlStep],
                       warp_size: int, pricing: tuple) -> tuple:
    """Structural identity of a segment's generated source.

    Two segments with equal signatures generate character-identical
    source for both variants, so they share one compiled factory; the
    signature covers exactly what the source bakes in as literals --
    opcodes, destination/operand register names, costs, the folded
    terminator's shape, the arch's memory pricing -- while instructions,
    constants and branch targets travel through the bound tuple.
    """
    def operand_shape(instruction):
        return tuple(
            ("r", op.name) if isinstance(op, Reg)
            else ("c",) if isinstance(op, Const) else ("o",)
            for op in instruction.operands)

    body_sig = tuple(
        (d.instruction.opcode, d.instruction.dest,
         operand_shape(d.instruction), d.static_cost)
        for d in segment.body)
    term_sig = None
    if terminator is not None:
        reconvergence = terminator.reconvergence
        term_sig = (terminator.kind, terminator.static_cost, reconvergence,
                    terminator.true_target == reconvergence,
                    terminator.false_target == reconvergence,
                    operand_shape(terminator.instruction))
    return (warp_size, pricing, segment.static_cycles, body_sig, term_sig)


# --------------------------------------------------------------------------- the compiler
class _Shadow:
    """Compile-time state of one register cached in segment locals."""

    __slots__ = ("var", "kind", "base")

    def __init__(self, var: str, kind: str, base: Optional[str] = None):
        self.var = var          # local holding the (possibly unmerged) value
        self.kind = kind        # "array" | "buffer"
        self.base = base        # masked mode: local holding the pre-segment
        #                         register value a dirty write merges against
        #                         at flush time; None when the shadow is clean


class _SegmentCompiler:
    """Generates the source + binding plan of one compiled segment.

    ``full`` selects the activation shape: the fully active warp (plain
    register rebinding, constant ballot bits) or the partial mask
    (deferred ``np.where`` merges against the pre-segment register
    values, except for the segment's local registers, which are stored
    unmerged).
    """

    def __init__(self, segment: Segment, warp_size: int, full: bool,
                 arch: GpuArch, terminator: Optional[ControlStep] = None):
        self.segment = segment
        self.warp_size = warp_size
        self.full = full
        self.arch = arch
        self.terminator = terminator
        self.lines: List[str] = []
        self.plan: List[tuple] = []
        self.shadows: Dict[str, _Shadow] = {}
        self._inst_slots: Dict[int, str] = {}
        self._counter = itertools.count()
        self._needs_memory_cost = False
        self._needs_dynamic_cycles = False
        self._active_var: Optional[str] = None
        self._mask_bytes_var: Optional[str] = None

    # -- small utilities ---------------------------------------------------
    def temp(self, prefix: str = "_t") -> str:
        return f"{prefix}{next(self._counter)}"

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def bind(self, prefix: str, provenance: tuple) -> str:
        """Reserve one slot of the factory's bound tuple."""
        name = f"{prefix}{next(self._counter)}"
        self.plan.append((name, provenance))
        return name

    def inst(self, source_index: int) -> str:
        """The slot holding instruction *source_index* (``-1``: the folded
        terminator's), bound on first use: only trap paths, the access-memo
        miss call and oracle fallbacks read the instruction object."""
        name = self._inst_slots.get(source_index)
        if name is None:
            name = self._inst_slots[source_index] = self.bind(
                "_I", ("inst", source_index))
        return name

    def as_bool(self, value: str) -> str:
        """Expression for *value* as a bool array, uncopied when it is one."""
        return f"({value} if {value}.dtype is _BOOL else {value}.astype(bool))"

    def active_lanes(self) -> str:
        """Expression for the active lane count (memory pricing)."""
        if self.full:
            return str(self.warp_size)
        if self._active_var is None:
            self._active_var = "_act"
            self.emit("_act = int(_np_cnz(mask))")
        return self._active_var

    # -- operand resolution ------------------------------------------------
    def numeric(self, operand, source_index: int, operand_index: int,
                merged: bool = False) -> str:
        """Emit code resolving *operand* as a numeric array; return the
        expression.  ``merged`` asks for the true register value even if
        the shadow holds a deferred-merge value (cross-lane consumers)."""
        if isinstance(operand, Const):
            return self.bind("_C", ("const", source_index, operand_index))
        if isinstance(operand, Reg):
            name = operand.name
            shadow = self.shadows.get(name)
            if shadow is not None:
                if shadow.kind == "array":
                    if (merged and shadow.base is not None
                            and not self.rebinds(name)):
                        out = self.temp("_mv")
                        self.merge(out, shadow.var, shadow.base)
                        return out
                    return shadow.var
                # A buffer handle where a numeric value is required: trap.
                out = self.temp()
                self.emit(f"{out} = _ban(ex, {name!r}, {self.inst(source_index)})")
                return out
            var = self.temp("_s")
            self.emit(f"{var} = R.get({name!r})")
            self.emit(f"if {var}.__class__ is not _nd:")
            self.emit(f"    {var} = _nf(ex, {name!r}, "
                      f"{self.inst(source_index)}, {var})")
            self.shadows[name] = _Shadow(var, "array")
            return var
        op_var = self.bind("_O", ("operand", source_index, operand_index))
        out = self.temp()
        self.emit(f"{out} = _uns(ex, {op_var}, {self.inst(source_index)})")
        return out

    def buffer(self, operand, source_index: int, operand_index: int) -> str:
        """Emit code resolving *operand* as a buffer handle."""
        if isinstance(operand, Reg):
            name = operand.name
            shadow = self.shadows.get(name)
            if shadow is not None:
                if shadow.kind == "buffer":
                    return shadow.var
                out = self.temp()
                self.emit(f"{out} = _nab(ex, {self.inst(source_index)})")
                return out
            var = self.temp("_s")
            self.emit(f"{var} = R.get({name!r})")
            self.emit(f"if {var}.__class__ is not _BH:")
            self.emit(f"    {var} = _bf(ex, {name!r}, "
                      f"{self.inst(source_index)}, {var})")
            self.shadows[name] = _Shadow(var, "buffer")
            return var
        if isinstance(operand, Const):
            out = self.temp()
            self.emit(f"{out} = _nab(ex, {self.inst(source_index)})")
            return out
        op_var = self.bind("_O", ("operand", source_index, operand_index))
        out = self.temp()
        self.emit(f"{out} = _uns(ex, {op_var}, {self.inst(source_index)})")
        return out

    # -- register writes ---------------------------------------------------
    def rebinds(self, dest: str) -> bool:
        """Whether a write of *dest* rebinds the register without a merge:
        every write in the full shape, a segment-local one in the masked
        shape."""
        return self.full or dest in self.segment.local_registers

    def write(self, dest: str, value_var: str) -> None:
        if self.rebinds(dest):
            self._write_full(dest, value_var)
        else:
            self._write_masked(dest, value_var)

    def _write_full(self, dest: str, value_var: str) -> None:
        """Shadowed equivalent of ``write_register(dest, value, mask)``
        under a full mask.

        Also the masked shape's write of a segment-local register: the
        merged value a masked write would store has exactly this dtype, and
        its inactive lanes are never observed."""
        shadow = self.shadows.get(dest)
        if shadow is not None:
            if shadow.kind == "array":
                self.emit(f"if {shadow.var}.dtype != {value_var}.dtype:")
                self.emit(f"    {value_var} = _pr({shadow.var}, {value_var})")
            # A buffer-handle shadow is simply rebound (no promotion),
            # exactly like write_register with a handle existing.
            self.emit(f"{shadow.var} = {value_var}")
            shadow.kind = "array"
            shadow.base = "dirty"
            return
        existing = self.temp("_e")
        self.emit(f"{existing} = R.get({dest!r})")
        self.emit(f"if ({existing} is not None and {existing}.__class__ is not _BH"
                  f" and {existing}.dtype != {value_var}.dtype):")
        self.emit(f"    {value_var} = _pr({existing}, {value_var})")
        var = self.temp("_s")
        self.emit(f"{var} = {value_var}")
        self.shadows[dest] = _Shadow(var, "array", base="dirty")

    def _write_masked(self, dest: str, value_var: str) -> None:
        """Deferred-merge equivalent of ``write_register(dest, value, mask)``:
        the shadow keeps the unmerged value; the pre-segment register value
        is captured (and dtype-promoted in lockstep, so the promotion chain
        matches the per-write merges exactly) for the flush-time merge."""
        shadow = self.shadows.get(dest)
        if shadow is not None and shadow.kind == "array":
            base = shadow.base
            if base is None:
                # Clean shadow: the current register value becomes the base.
                base = self.temp("_b")
                self.emit(f"{base} = {shadow.var}")
            self.emit(f"if {shadow.var}.dtype != {value_var}.dtype:")
            self.emit(f"    _ct = _np_result_type({shadow.var}.dtype, "
                      f"{value_var}.dtype)")
            self.emit(f"    {base} = {base}.astype(_ct)")
            self.emit(f"    if {value_var}.dtype != _ct:")
            self.emit(f"        {value_var} = {value_var}.astype(_ct)")
            self.emit(f"{shadow.var} = {value_var}")
            shadow.base = base
            return
        if shadow is not None:  # buffer-handle shadow: base is zeros
            base = self.temp("_b")
            self.emit(f"{base} = _np_zeros({self.warp_size}, "
                      f"dtype={value_var}.dtype)")
            self.emit(f"{shadow.var} = {value_var}")
            shadow.kind = "array"
            shadow.base = base
            return
        existing = self.temp("_e")
        base = self.temp("_b")
        self.emit(f"{existing} = R.get({dest!r})")
        self.emit(f"if {existing} is None or {existing}.__class__ is _BH:")
        self.emit(f"    {base} = _np_zeros({self.warp_size}, "
                  f"dtype={value_var}.dtype)")
        self.emit("else:")
        self.emit(f"    {base} = {existing}")
        self.emit(f"    if {base}.dtype != {value_var}.dtype:")
        self.emit(f"        _ct = _np_result_type({base}.dtype, "
                  f"{value_var}.dtype)")
        self.emit(f"        {base} = {base}.astype(_ct)")
        self.emit(f"        if {value_var}.dtype != _ct:")
        self.emit(f"            {value_var} = {value_var}.astype(_ct)")
        var = self.temp("_s")
        self.emit(f"{var} = {value_var}")
        self.shadows[dest] = _Shadow(var, "array", base=base)

    def flush_dirty(self) -> None:
        """Write every dirty shadow back to the register file (and, in
        masked mode, perform its deferred merge); shadows stay usable."""
        for name, shadow in self.shadows.items():
            if shadow.kind != "array" or shadow.base is None:
                continue
            if self.rebinds(name):
                self.emit(f"R[{name!r}] = {shadow.var}")
            else:
                merged = self.temp("_m")
                self.merge(merged, shadow.var, shadow.base)
                self.emit(f"R[{name!r}] = {merged}")
                self.emit(f"{shadow.var} = {merged}")
            shadow.base = None

    def merge(self, out: str, value: str, base: str) -> None:
        """``out = np.where(mask, value, base)`` as a masked store into a
        copy of *base*: the two have one dtype by construction (a masked
        write promotes them in lockstep), and the store is the cheaper
        call on one warp."""
        self.emit(f"{out} = {base}.copy()")
        self.emit(f"_np_putmask({out}, mask, {value})")

    def drop_shadow(self, name: Optional[str]) -> None:
        if name is not None:
            self.shadows.pop(name, None)

    # -- dynamic (memory) pricing ------------------------------------------
    def memory_cost(self, source_index: int, info_expr: str) -> None:
        """Price through the live cost model (the instructions run on the
        oracle: atomics and unknown opcodes)."""
        self._needs_memory_cost = True
        self.emit(f"warp.cycles += _mc({self.inst(source_index)}, "
                  f"{self.active_lanes()}, {info_expr})")

    def bounds_stats(self, handle: str, index: str, source_index: int) -> tuple:
        """Emit the bounds check, index conversion and pricing count of one
        access through the process-wide access memo; return the locals
        holding the converted active-lane indices and the transaction or
        conflict count.

        The key holds everything the outcome depends on: the handle's
        geometry key, the baked segment size and bank count, the index
        dtype and bytes and, in the masked shape, the mask bytes (only the
        active lanes are checked).  Equal keys give equal outcomes, so a
        hit skips the check, the ``index[mask]`` gather and the pricing
        count; a miss runs them (:func:`_check_access`), and an access
        that traps is never stored.
        """
        arch = self.arch
        geometry = f"{arch.memory_segment_size}, {arch.shared_banks}"
        key = self.temp("_k")
        entry = self.temp("_ae")
        active = self.temp("_ai")
        count = self.temp("_n")
        masked = "" if self.full else f", {self.mask_bytes()}"
        lanes = index if self.full else f"{index}[mask]"
        self.emit(f"{key} = ({handle}.geometry_key, {geometry}, "
                  f"{index}.dtype, {index}.tobytes(){masked})")
        self.emit(f"{entry} = _AC.get({key})")
        self.emit(f"if {entry} is None:")
        self.emit(f"    {entry} = _ca({key}, {handle}, {lanes}, "
                  f"{self.inst(source_index)}, {geometry})")
        self.emit(f"{active}, {count} = {entry}")
        return active, count

    def mask_bytes(self) -> str:
        """Expression for the mask's bytes (masked-shape memo keys)."""
        if self._mask_bytes_var is None:
            self._mask_bytes_var = "_mb"
            self.emit("_mb = mask.tobytes()")
        return self._mask_bytes_var

    def inline_memory_price(self, handle: str, count: str,
                            is_store: bool) -> None:
        """Inline the pricing of one bounds-checked load/store access.

        Emits the exact arithmetic of :meth:`CostModel.price_access` with
        the arch's latencies baked as literals (the structural cache key
        covers them via :func:`_pricing_signature`) on the memoized
        transaction or conflict *count*, accumulating the cycles into one
        per-segment local that is charged to the warp at segment end.
        Exact: every latency is an integer, so the reordered float64 sums
        match the reference's per-access charges bit for bit.
        """
        arch = self.arch
        self._needs_dynamic_cycles = True
        gbase = float(arch.global_store_latency if is_store
                      else arch.global_latency)
        sbase = float(arch.shared_store_latency if is_store
                      else arch.shared_latency)
        self.emit(f"if {handle}.space == 'global':")
        self.emit(f"    _dyn += {gbase!r} if {count} <= 1 else "
                  f"{gbase!r} + {arch.global_per_transaction} * ({count} - 1)")
        self.emit(f"elif {handle}.space == 'shared':")
        self.emit(f"    _dyn += {sbase!r} if {count} <= 1 else "
                  f"{sbase!r} + {arch.shared_conflict_penalty} * ({count} - 1)")
        self.emit("else:")
        self.emit(f"    _dyn += {float(arch.alu_latency)!r}")

    # -- per-instruction bodies --------------------------------------------
    def oracle_fallback(self, decoded, source_index: int) -> None:
        """Run the instruction on the oracle's ``_execute_straightline``
        (atomics and unknown opcodes); shadows are flushed so it sees a
        coherent register file, and its destination shadow is dropped."""
        self.flush_dirty()
        inst_var = self.inst(source_index)
        if decoded.static_cost is None:
            info = self.temp("_mi")
            self.emit(f"{info} = ex._execute_straightline({inst_var}, mask)")
            self.drop_shadow(decoded.instruction.dest)
            self.memory_cost(source_index, info)
        else:
            self.emit(f"ex._execute_straightline({inst_var}, mask)")
            self.drop_shadow(decoded.instruction.dest)

    def compile_instruction(self, decoded, source_index: int) -> None:
        instruction = decoded.instruction
        opcode = instruction.opcode
        ws = self.warp_size

        def numeric(operand_index, merged=False):
            return self.numeric(instruction.operands[operand_index], source_index,
                                operand_index, merged=merged)

        if opcode in _ARITHMETIC:
            operands = [numeric(i) for i in range(len(instruction.operands))]
            value = self.temp("_v")
            if opcode == "add":
                self.emit(f"{value} = {operands[0]} + {operands[1]}")
            elif opcode == "sub":
                self.emit(f"{value} = {operands[0]} - {operands[1]}")
            elif opcode == "mul":
                self.emit(f"{value} = {operands[0]} * {operands[1]}")
            elif opcode == "cmp.eq":
                self.emit(f"{value} = {operands[0]} == {operands[1]}")
            elif opcode == "cmp.ne":
                self.emit(f"{value} = {operands[0]} != {operands[1]}")
            elif opcode == "cmp.lt":
                self.emit(f"{value} = {operands[0]} < {operands[1]}")
            elif opcode == "cmp.le":
                self.emit(f"{value} = {operands[0]} <= {operands[1]}")
            elif opcode == "cmp.gt":
                self.emit(f"{value} = {operands[0]} > {operands[1]}")
            elif opcode == "cmp.ge":
                self.emit(f"{value} = {operands[0]} >= {operands[1]}")
            elif opcode == "min":
                self.emit(f"{value} = _np_minimum({operands[0]}, {operands[1]})")
            elif opcode == "max":
                self.emit(f"{value} = _np_maximum({operands[0]}, {operands[1]})")
            elif opcode == "neg":
                self.emit(f"{value} = -{operands[0]}")
            elif opcode == "abs":
                self.emit(f"{value} = _np_abs({operands[0]})")
            elif opcode == "mov":
                # Register arrays are never written in place (writes
                # rebind; parameters, constants and identities are
                # read-only), so the copy the oracle makes is not needed.
                self.emit(f"{value} = {operands[0]}")
            elif opcode == "ftoi":
                self.emit(f"{value} = {operands[0]}.astype(_INT)")
            elif opcode == "itof":
                self.emit(f"{value} = {operands[0]}.astype(_FLOAT)")
            elif opcode == "select":
                self.emit(f"{value} = _np_where({self.as_bool(operands[0])}, "
                          f"{operands[1]}, {operands[2]})")
            elif opcode == "fma":
                self.emit(f"{value} = {operands[0]} * {operands[1]} + {operands[2]}")
            elif opcode in ("div", "rem"):
                self._emit_division(opcode, operands, value, source_index)
            elif opcode in ("and", "or", "xor"):
                logical, bitwise = {
                    "and": ("_np_land", "_np_band"),
                    "or": ("_np_lor", "_np_bor"),
                    "xor": ("_np_lxor", "_np_bxor"),
                }[opcode]
                a, b = operands
                self.emit(f"if {a}.dtype == bool and {b}.dtype == bool:")
                self.emit(f"    {value} = {logical}({a}, {b})")
                self.emit("else:")
                self.emit(f"    {value} = {bitwise}(_il({a}), _il({b}))")
            elif opcode == "not":
                a, = operands
                self.emit(f"if {a}.dtype == bool:")
                self.emit(f"    {value} = _np_lnot({a})")
                self.emit("else:")
                self.emit(f"    {value} = _np_bnot(_il({a}))")
            elif opcode == "shl":
                self.emit(f"{value} = _np_shl(_il({operands[0]}), "
                          f"_il({operands[1]}))")
            elif opcode == "shr":
                self.emit(f"{value} = _np_shr(_il({operands[0]}), "
                          f"_il({operands[1]}))")
            else:
                # A future arithmetic opcode this compiler does not know
                # yet: call the shared handler so tiers cannot drift.
                handler = self.bind("_H", ("handler", opcode))
                args = ", ".join(operands) + ("," if len(operands) == 1 else "")
                self.emit(f"{value} = {handler}(ex, {self.inst(source_index)}, "
                          f"({args}))")
            self.write(instruction.dest, value)
            return

        if opcode in _IDENTITY_OPCODES:
            # Identity arrays are read-only, so they are stored uncopied.
            value = self.temp("_v")
            self.emit(f"{value} = _idn[{opcode!r}]")
            self.write(instruction.dest, value)
            return

        if opcode == "load":
            handle = self.buffer(instruction.operands[0], source_index, 0)
            index = numeric(1)
            value = self.temp("_v")
            active, count = self.bounds_stats(handle, index, source_index)
            if self.full:
                self.emit(f"{value} = {handle}.array[{active}]")
            else:
                self.emit(f"{value} = _np_zeros({ws}, dtype={handle}.array.dtype)")
                self.emit(f"{value}[mask] = {handle}.array[{active}]")
            self.write(instruction.dest, value)
            if decoded.static_cost is None:
                self.inline_memory_price(handle, count, is_store=False)
            return

        if opcode in ("store", "memset"):
            handle = self.buffer(instruction.operands[0], source_index, 0)
            index = numeric(1)
            value = numeric(2)
            active, count = self.bounds_stats(handle, index, source_index)
            if self.full:
                self.emit(f"{handle}.array[{active}] = "
                          f"{value}.astype({handle}.array.dtype)")
            else:
                self.emit(f"{handle}.array[{active}] = "
                          f"{value}[mask].astype({handle}.array.dtype)")
            if decoded.static_cost is None:
                self.inline_memory_price(handle, count, is_store=True)
            return

        if opcode == "activemask":
            value = self.temp("_v")
            if ws != 32:
                self.emit(f"{value} = _np_full({ws}, 0, dtype=_INT)")
            elif self.full:
                # All 32 lanes active: the ballot bits are a constant.
                self.emit(f"{value} = _np_full({ws}, 4294967295, dtype=_INT)")
            else:
                self.emit(f"{value} = _np_full({ws}, int(_np_packbits("
                          f"mask[::-1]).view(\">u4\")[0]), dtype=_INT)")
            self.write(instruction.dest, value)
            return

        if opcode == "ballot.sync":
            predicate = numeric(1)
            value = self.temp("_v")
            if ws == 32:
                voters = self.temp("_vt")
                self.emit(f"{voters} = mask & {predicate}.astype(bool)")
                self.emit(f"{value} = _np_full({ws}, int(_np_packbits("
                          f"{voters}[::-1]).view(\">u4\")[0]), dtype=_INT)")
            else:
                self.emit(f"{value} = _np_full({ws}, 0, dtype=_INT)")
            self.write(instruction.dest, value)
            return

        if opcode in ("shfl.sync", "shfl.up.sync", "shfl.down.sync"):
            # Both operands must see the merged register values: the value
            # is gathered across lanes, and the lane/delta operand shapes
            # the gather's indices at *every* position -- an unmerged
            # inactive-lane delta could index out of range where the
            # oracle's merged register stays in bounds.
            value = numeric(1, merged=True)
            lane = numeric(2, merged=True)
            lanes = self.temp("_ln")
            if opcode == "shfl.sync":
                # minimum(maximum(x, 0), ws-1) == clip(x, 0, ws-1) on the
                # int64 lane indices, without np.clip's getlimits overhead.
                self.emit(f"{lanes} = _np_minimum(_np_maximum("
                          f"{lane}.astype(_INT), 0), {ws - 1})")
            elif opcode == "shfl.up.sync":
                self.emit(f"{lanes} = {self.lanes_var()} - {lane}.astype(_INT)")
                self.emit(f"{lanes} = _np_where({lanes} < 0, "
                          f"{self.lanes_var()}, {lanes})")
            else:
                self.emit(f"{lanes} = {self.lanes_var()} + {lane}.astype(_INT)")
                self.emit(f"{lanes} = _np_where({lanes} >= {ws}, "
                          f"{self.lanes_var()}, {lanes})")
            result = self.temp("_v")
            self.emit(f"{result} = {value}[{lanes}]")
            self.write(instruction.dest, result)
            return

        if opcode == "syncwarp":
            # Resolving the mask operand is the only observable effect
            # (it traps on undefined/buffer operands).
            numeric(0)
            return

        if opcode == "rand.uniform":
            seed = numeric(0)
            step = numeric(1)
            salt = numeric(2)
            value = self.temp("_v")
            self.emit(f"{value} = _cu({seed}.astype(_INT), {step}.astype(_INT), "
                      f"{salt}.astype(_INT))")
            self.write(instruction.dest, value)
            return

        if opcode == "nop":
            return

        # Atomics and anything else (including unimplemented opcodes,
        # which trap with the interpreter's exact message).
        self.oracle_fallback(decoded, source_index)

    def lanes_var(self) -> str:
        if "_lanes" not in (name for name, _ in self.plan):
            self.plan.append(("_lanes", ("lanes",)))
        return "_lanes"

    def _emit_division(self, opcode: str, operands: List[str], value: str,
                       source_index: int) -> None:
        """Inline the ``div``/``rem`` handler: active-lane zero trap, then
        the runtime dtype dispatch (operands of the segment's executor are
        always plain arrays, so the handler's ``np.asarray`` is a no-op;
        its ``active_mask`` is exactly this segment's ``mask``).  The trap
        test counts zero lanes: on one warp a count is several times
        cheaper than ``ndarray.any``."""
        numerator, denominator = operands
        zero = self.temp("_z")
        self.emit(f"{zero} = {denominator} == 0")
        if self.full:
            self.emit(f"if _np_cnz({zero}):")
        else:
            self.emit(f"if _np_cnz({zero} & mask):")
        self.emit(f"    ex._trap(\"division by zero\", {self.inst(source_index)})")
        safe = self.temp("_sf")
        self.emit(f"{safe} = _np_where({zero}, 1, {denominator})")
        if opcode == "div":
            self.emit(f"if {numerator}.dtype.kind == \"f\" "
                      f"or {denominator}.dtype.kind == \"f\":")
            self.emit(f"    {value} = {numerator} / {safe}")
            self.emit("else:")
            self.emit(f"    {value} = _np_floor_divide({numerator}, {safe})")
        else:
            self.emit(f"{value} = _np_remainder(_il({numerator}), _il({safe}))")

    # -- the folded terminator ----------------------------------------------
    def compile_terminator(self) -> None:
        """Emit the step that ends the kernel (after the register flush)
        and leave ``top.pc`` where execution continues: past the segment,
        or the folded terminator's transfer -- the same divergence
        discipline as the oracle's :meth:`~WarpExecutor._branch` -- or
        past a folded barrier, where the kernel returns True."""
        step = self.terminator
        if step is None or step.kind == STEP_RET:
            self.emit(f"top.pc = {self.bind('_pc', ('pc_after',))}")
            if step is not None:
                self.emit("warp.retire_lanes(mask)")
            return
        if step.kind == STEP_BR:
            self.emit(f"top.pc = {self.bind('_pc', ('pc_target',))}")
            return
        if step.kind == STEP_BARRIER:
            self.emit(f"top.pc = {self.bind('_pc', ('pc_next',))}")
            self.emit("return True")
            return
        # condbr: the uniform outcomes are decided by comparing the taken
        # lanes' bytes (bools are 0/1 bytes) with all-zeros and with the
        # mask's (all-ones in the full shape); the warp size is part of
        # the structural key, so both literals are baked.
        cond = self.temp("_cond")
        self.emit(f"{cond} = "
                  f"{self.as_bool(self.numeric(step.instruction.operands[0], -1, 0))}")
        pc_true = self.bind("_pc", ("pc_true",))
        pc_false = self.bind("_pc", ("pc_false",))
        if self.full:
            taken, everyone = cond, repr(b"\x01" * self.warp_size)
        else:
            taken, everyone = self.temp("_tk"), self.mask_bytes()
            self.emit(f"{taken} = mask & {cond}")
        outcome = self.temp("_tb")
        self.emit(f"{outcome} = {taken}.tobytes()")
        self.emit(f"if {outcome} == {everyone}:")
        self.emit(f"    top.pc = {pc_true}")
        self.emit(f"elif {outcome} == {bytes(self.warp_size)!r}:")
        self.emit(f"    top.pc = {pc_false}")
        self.emit("else:")
        not_taken = f"~{cond}" if self.full else f"mask ^ {taken}"
        reconvergence = step.reconvergence
        if reconvergence is None:
            # No common post-dominator: run each side to completion under
            # its own mask.
            self.emit(f"    top.pc = {pc_false}")
            self.emit(f"    top.mask = {not_taken}")
            self.emit(f"    warp.stack.append(_SE({pc_true}, {taken}, None))")
            return
        # Wait at the reconvergence block.  A side whose target is that
        # block would be popped before it runs, so it is not pushed.
        self.emit(f"    top.pc = {self.bind('_pc', ('pc_rc',))}")
        if step.false_target != reconvergence:
            self.emit(f"    warp.stack.append(_SE({pc_false}, {not_taken}, "
                      f"{reconvergence!r}))")
        if step.true_target != reconvergence:
            self.emit(f"    warp.stack.append(_SE({pc_true}, {taken}, "
                      f"{reconvergence!r}))")

    # -- whole segment ------------------------------------------------------
    def generate(self) -> Tuple[str, tuple]:
        """Produce the factory source and its binding plan."""
        segment = self.segment
        body = segment.body
        terminator = self.terminator
        static_cycles = segment.static_cycles
        count = len(body)
        if terminator is not None:
            # Fold the terminator's launch-invariant cost into the
            # aggregate (integer cycle costs, so the reordering is exact).
            count += 1
            static_cycles += terminator.static_cost

        prelude = ["R = warp.registers",
                   f"warp.instructions_executed += {count}"]
        if static_cycles:
            prelude.append(f"warp.cycles += {static_cycles!r}")

        for source_index, decoded in enumerate(body):
            self.compile_instruction(decoded, source_index)
        if self._needs_dynamic_cycles:
            self.emit("warp.cycles += _dyn")
        self.flush_dirty()
        self.compile_terminator()

        if any(inst.opcode in _IDENTITY_OPCODES
               for inst in (d.instruction for d in body)):
            prelude.insert(1, "_idn = ex._identity_values")
        if self._needs_memory_cost:
            prelude.insert(1, "_mc = ex.cost_model._memory_cost")
        if self._needs_dynamic_cycles:
            prelude.append("_dyn = 0.0")

        names = [name for name, _ in self.plan]
        unpack = []
        if names:
            unpack = ["(" + ", ".join(names) + ("," if len(names) == 1 else "")
                      + ") = _bound"]
        source = "\n".join(
            ["def _factory(_bound):"]
            + ["    " + line for line in unpack]
            + ["    def _segment_kernel(ex, warp, top, mask):"]
            + ["        " + line for line in prelude + self.lines]
            + ["    return _segment_kernel"])
        return source, tuple(item for _, item in self.plan)


def _build_factory(source: str):
    namespace = dict(_BASE_ENV)
    code = compile(source, _SOURCE_FILENAME, "exec")
    exec(code, namespace)  # noqa: S102 - the source is generated above
    return namespace["_factory"]


def compile_segment(segment: Segment, warp_size: int, label: str,
                    arch: GpuArch, terminator: Optional[ControlStep],
                    full: bool):
    """Compile one activation shape -- *full* warp or partial mask -- of
    one exact segment into its kernel.  The masked shape's source also
    depends on which registers it stores unmerged
    (``segment.local_registers``)."""
    signature = (_segment_signature(segment, terminator, warp_size,
                                    _pricing_signature(arch)),
                 full, None if full else segment.local_registers)
    cached = _SEGMENT_CACHE.get(signature)
    if cached is None:
        if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_LIMIT:
            _SEGMENT_CACHE.clear()
        source, plan = _SegmentCompiler(segment, warp_size, full, arch,
                                        terminator).generate()
        cached = _SEGMENT_CACHE[signature] = (_build_factory(source), plan)
    factory, plan = cached
    return factory(_resolve_plan(plan, segment, terminator, label, warp_size))


def _jit_record(segment: Segment, warp_size: int, label: str, arch: GpuArch,
                terminator: Optional[ControlStep]) -> list:
    """The JIT record of one step: ``[full-mask kernel, masked kernel,
    instruction count, compile]``, the count including the folded
    terminator or barrier.  Both kernel slots start as ``None``; the run
    loop fills a slot on its first execution with ``compile(full)``
    (:func:`compile_segment`), so a shape that never runs is never
    generated.  Nothing in a record refers back to it, so a discarded
    variant's decoded program is freed by reference counting, not left
    to the cyclic garbage collector."""
    def compile_shape(full: bool):
        return compile_segment(segment, warp_size, label, arch, terminator, full)

    return [None, None, len(segment.body) + (1 if terminator is not None else 0),
            compile_shape]


def _folded_terminator(steps: list, position: int) -> Optional[ControlStep]:
    """The step compiled together with the exact segment at *position*
    (the mega-closure form): the control step or barrier that follows
    it (segments are maximal), unless its cost is not an integer."""
    following = steps[position + 1] if position + 1 < len(steps) else None
    if following is not None and float(following.static_cost).is_integer():
        return following
    return None


def _observed_registers(decoded: DecodedFunction) -> set:
    """Registers whose inactive lanes some instruction may observe.

    A read observes them when it does not follow a write of the register
    in the same segment (or, for a folded terminator, in the segment it
    is folded into), and a cross-lane opcode observes every register it
    reads.  A segment's other written registers are its *local*
    registers: each of their reads sees the value written under the same
    mask earlier in the same segment execution, at the active lanes only.
    """
    observed = set()
    for block in decoded.blocks.values():
        steps = block.steps
        folded = None
        for position, step in enumerate(steps):
            if step.kind != STEP_SEGMENT:
                if step is not folded:
                    observed.update(op.name for op in step.instruction.operands
                                    if isinstance(op, Reg))
                continue
            written = set()
            for decoded_instruction in step.body:
                instruction = decoded_instruction.instruction
                cross_lane = instruction.opcode in _CROSS_LANE_OPCODES
                observed.update(
                    op.name for op in instruction.operands
                    if isinstance(op, Reg)
                    and (cross_lane or op.name not in written))
                if instruction.dest is not None:
                    written.add(instruction.dest)
            folded = _folded_terminator(steps, position) if step.exact else None
            if folded is not None:
                observed.update(op.name for op in folded.instruction.operands
                                if isinstance(op, Reg) and op.name not in written)
    return observed


def attach_jit(decoded: DecodedFunction, arch: GpuArch) -> None:
    """Give *decoded* its pc-keyed map of JIT records (idempotent).

    Nothing is compiled here: each record's two activation shapes compile
    on their first execution (:func:`_jit_record`).  Every exact segment
    gets a record at its start, compiled together with the control step
    or barrier that directly follows it (the mega-closure form); every
    control step and barrier with an integer cost also gets a
    single-instruction record of its own -- an empty segment with the
    step folded in -- so blocks with no preceding straight-line segment
    (loop latches, header tests, bare returns) and entries landing on the
    step execute compiled too.  Each exact segment also learns its local
    registers (:func:`_observed_registers`), which its masked shape
    stores unmerged.  *arch* supplies the memory pricing the generated
    source bakes in (covered by the structural cache key).
    """
    if decoded.records is not None:
        return
    warp_size = decoded.warp_size
    observed = _observed_registers(decoded)
    records = {}
    for label, block in decoded.blocks.items():
        steps = block.steps
        for position, step in enumerate(steps):
            if step.kind == STEP_SEGMENT:
                if not step.exact:
                    continue
                step.local_registers = frozenset(
                    d.instruction.dest for d in step.body
                    if d.instruction.dest is not None
                    and d.instruction.dest not in observed)
                records[(label, step.start)] = _jit_record(
                    step, warp_size, label, arch,
                    _folded_terminator(steps, position))
            elif float(step.static_cost).is_integer():
                # An empty segment starting at the step: the folded
                # terminator's pc_after is the step's own index.
                records[(label, step.start)] = _jit_record(
                    Segment(step.start), warp_size, label, arch, step)
    decoded.records = records


def jit_function(function: Function, arch: GpuArch) -> DecodedFunction:
    """Decode *function* and attach its JIT records, memoised with the same
    fingerprint scheme as :func:`~repro.gpu.decoded.decode_function` --
    a GEVO mutation invalidates exactly the touched function's decoding,
    and the compiled segments die with it."""
    decoded = decode_function(function, arch)
    attach_jit(decoded, arch)
    return decoded


# --------------------------------------------------------------------------- structural keys
def _const_class(value) -> str:
    """The dtype class a constant operand decodes to (see ``_const_array``)."""
    if isinstance(value, bool):
        return "b"
    return "i" if isinstance(value, int) else "f"


def structural_function_key(function: Function, arch: GpuArch) -> tuple:
    """Whole-function extension of the segment structural key.

    Two functions with equal keys decode to programs of identical shape
    -- same blocks, opcodes, destinations, register operand names,
    branch targets, uids, source locations and baked costs -- and differ
    at most in the *values* of constant operands (within the same dtype
    class).  That is exactly the co-batchable relation: such clones can
    execute one batched launch with per-row constant columns
    (:mod:`repro.gpu.batched`), just as they already share one compiled
    segment factory here.  The key includes the arch's warp size and
    cost/pricing signature for the same reason the segment key does.
    """
    blocks = []
    for label in function.block_order():
        instructions = []
        for inst in function.blocks[label].instructions:
            operands = tuple(
                ("r", op.name) if isinstance(op, Reg)
                else ("c", _const_class(op.value)) if isinstance(op, Const)
                else ("o", repr(op))
                for op in inst.operands)
            instructions.append((
                inst.uid, inst.opcode, inst.dest, operands,
                tuple(sorted((k, v) for k, v in inst.attrs.items()
                             if isinstance(v, (str, int, float, bool)))),
                str(inst.loc) if inst.loc is not None else None,
            ))
        blocks.append((label, tuple(instructions)))
    return (
        function.name,
        tuple((p.name, p.kind) for p in function.params),
        tuple((s.name, s.dtype, s.size) for s in function.shared),
        tuple(blocks),
        arch.warp_size,
        arch.cost_signature(),
        _pricing_signature(arch),
    )


def structural_module_key(module, arch: GpuArch) -> tuple:
    """Structural co-batching key of a whole module (all functions)."""
    return tuple(structural_function_key(module.get_function(name), arch)
                 for name in module.function_order())
