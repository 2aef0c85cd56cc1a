"""Fluent builder for authoring mini-IR kernels in Python.

The builder keeps a *current block* into which emitted instructions are
appended, allocates fresh virtual-register names, tracks an optional
current source line (so every emitted instruction carries a
:class:`~repro.ir.instructions.SourceLoc`, mirroring the debug-info
instrumentation the paper adds to Clang), and offers structured-control
helpers (``for_range``, ``if_then``, ``if_then_else``) that lower to
explicit basic blocks and branches.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Sequence

from ..errors import IRError
from .function import BasicBlock, Function, Module, Param, SharedDecl
from .instructions import Instruction, SourceLoc
from .values import Const, Reg, as_value


class KernelBuilder:
    """Build one :class:`~repro.ir.function.Function` incrementally."""

    def __init__(
        self,
        name: str,
        params: Sequence[Param] = (),
        shared: Sequence[SharedDecl] = (),
        source_file: Optional[str] = None,
    ):
        self.function = Function(name, params=list(params), shared=list(shared))
        self.source_file = source_file or f"{name}.cu"
        self._current: Optional[BasicBlock] = None
        self._line: Optional[int] = None
        self._tmp_counter = 0
        self._label_counter = 0
        self._last_emitted: Optional[Instruction] = None

    # -- low-level plumbing ------------------------------------------------------
    def block(self, label: str) -> BasicBlock:
        """Create a new block and make it current."""
        blk = self.function.add_block(BasicBlock(label))
        self._current = blk
        return blk

    @property
    def current_block(self) -> BasicBlock:
        if self._current is None:
            raise IRError("no current block; call block() first")
        return self._current

    def fresh_label(self, hint: str = "bb") -> str:
        self._label_counter += 1
        return f"{hint}.{self._label_counter}"

    def fresh_reg(self, hint: str = "t") -> str:
        self._tmp_counter += 1
        return f"{hint}{self._tmp_counter}"

    def loc(self, line: int) -> None:
        """Set the source line attached to subsequently emitted instructions."""
        self._line = line

    def _source_loc(self) -> Optional[SourceLoc]:
        if self._line is None:
            return None
        return SourceLoc(self.source_file, self._line)

    def const(self, value) -> Const:
        return Const(value)

    def reg(self, name: str) -> Reg:
        return Reg(name)

    # -- generic emission -----------------------------------------------------------
    def emit(self, opcode: str, *operands, dest: Optional[str] = None, **attrs) -> Optional[Reg]:
        """Emit an instruction into the current block.

        Returns the destination :class:`Reg` when the opcode produces one.
        When ``dest`` is omitted a fresh temporary name is allocated.
        """
        from .opcodes import opcode_info

        info = opcode_info(opcode)
        if info.has_dest and dest is None:
            dest = self.fresh_reg()
        inst = Instruction(
            opcode,
            dest=dest,
            operands=[as_value(op) for op in operands],
            attrs=attrs,
            loc=self._source_loc(),
        )
        self.current_block.append(inst)
        self._last_emitted = inst
        return Reg(dest) if dest is not None else None

    @property
    def last_emitted(self) -> Optional[Instruction]:
        """The most recently emitted instruction (useful for recording edit targets)."""
        return self._last_emitted

    # -- arithmetic -------------------------------------------------------------------
    def add(self, a, b, dest=None) -> Reg:
        return self.emit("add", a, b, dest=dest)

    def sub(self, a, b, dest=None) -> Reg:
        return self.emit("sub", a, b, dest=dest)

    def mul(self, a, b, dest=None) -> Reg:
        return self.emit("mul", a, b, dest=dest)

    def div(self, a, b, dest=None) -> Reg:
        return self.emit("div", a, b, dest=dest)

    def rem(self, a, b, dest=None) -> Reg:
        return self.emit("rem", a, b, dest=dest)

    def min(self, a, b, dest=None) -> Reg:
        return self.emit("min", a, b, dest=dest)

    def max(self, a, b, dest=None) -> Reg:
        return self.emit("max", a, b, dest=dest)

    def and_(self, a, b, dest=None) -> Reg:
        return self.emit("and", a, b, dest=dest)

    def or_(self, a, b, dest=None) -> Reg:
        return self.emit("or", a, b, dest=dest)

    def xor(self, a, b, dest=None) -> Reg:
        return self.emit("xor", a, b, dest=dest)

    def shl(self, a, b, dest=None) -> Reg:
        return self.emit("shl", a, b, dest=dest)

    def shr(self, a, b, dest=None) -> Reg:
        return self.emit("shr", a, b, dest=dest)

    def neg(self, a, dest=None) -> Reg:
        return self.emit("neg", a, dest=dest)

    def abs(self, a, dest=None) -> Reg:
        return self.emit("abs", a, dest=dest)

    def mov(self, a, dest=None) -> Reg:
        return self.emit("mov", a, dest=dest)

    def select(self, cond, a, b, dest=None) -> Reg:
        return self.emit("select", cond, a, b, dest=dest)

    def fma(self, a, b, c, dest=None) -> Reg:
        return self.emit("fma", a, b, c, dest=dest)

    # -- comparisons ----------------------------------------------------------------
    def eq(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.eq", a, b, dest=dest)

    def ne(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.ne", a, b, dest=dest)

    def lt(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.lt", a, b, dest=dest)

    def le(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.le", a, b, dest=dest)

    def gt(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.gt", a, b, dest=dest)

    def ge(self, a, b, dest=None) -> Reg:
        return self.emit("cmp.ge", a, b, dest=dest)

    # -- memory ---------------------------------------------------------------------
    def load(self, base, index, dest=None) -> Reg:
        return self.emit("load", base, index, dest=dest)

    def store(self, base, index, value) -> None:
        self.emit("store", base, index, value)

    def memset(self, base, index, value) -> None:
        self.emit("memset", base, index, value)

    def atomic_add(self, base, index, value, dest=None) -> Reg:
        return self.emit("atomic.add", base, index, value, dest=dest)

    def atomic_max(self, base, index, value, dest=None) -> Reg:
        return self.emit("atomic.max", base, index, value, dest=dest)

    def atomic_exch(self, base, index, value, dest=None) -> Reg:
        return self.emit("atomic.exch", base, index, value, dest=dest)

    def atomic_cas(self, base, index, compare, value, dest=None) -> Reg:
        return self.emit("atomic.cas", base, index, compare, value, dest=dest)

    # -- thread identity / warp intrinsics --------------------------------------------
    def tid_x(self, dest=None) -> Reg:
        return self.emit("tid.x", dest=dest)

    def tid_y(self, dest=None) -> Reg:
        return self.emit("tid.y", dest=dest)

    def bid_x(self, dest=None) -> Reg:
        return self.emit("bid.x", dest=dest)

    def bid_y(self, dest=None) -> Reg:
        return self.emit("bid.y", dest=dest)

    def bdim_x(self, dest=None) -> Reg:
        return self.emit("bdim.x", dest=dest)

    def bdim_y(self, dest=None) -> Reg:
        return self.emit("bdim.y", dest=dest)

    def gdim_x(self, dest=None) -> Reg:
        return self.emit("gdim.x", dest=dest)

    def gdim_y(self, dest=None) -> Reg:
        return self.emit("gdim.y", dest=dest)

    def laneid(self, dest=None) -> Reg:
        return self.emit("laneid", dest=dest)

    def warpid(self, dest=None) -> Reg:
        return self.emit("warpid", dest=dest)

    def syncthreads(self) -> None:
        self.emit("syncthreads")

    def syncwarp(self, mask) -> None:
        self.emit("syncwarp", mask)

    def activemask(self, dest=None) -> Reg:
        return self.emit("activemask", dest=dest)

    def ballot_sync(self, mask, predicate, dest=None) -> Reg:
        return self.emit("ballot.sync", mask, predicate, dest=dest)

    def shfl_sync(self, mask, value, src_lane, dest=None) -> Reg:
        return self.emit("shfl.sync", mask, value, src_lane, dest=dest)

    def shfl_up_sync(self, mask, value, delta, dest=None) -> Reg:
        return self.emit("shfl.up.sync", mask, value, delta, dest=dest)

    def shfl_down_sync(self, mask, value, delta, dest=None) -> Reg:
        return self.emit("shfl.down.sync", mask, value, delta, dest=dest)

    def rand_uniform(self, seed, step, salt, dest=None) -> Reg:
        return self.emit("rand.uniform", seed, step, salt, dest=dest)

    # -- control flow --------------------------------------------------------------------
    def branch(self, target: str) -> None:
        self.emit("br", target=target)

    def cbranch(self, cond, true_target: str, false_target: str) -> None:
        self.emit("condbr", cond, true_target=true_target, false_target=false_target)

    def ret(self) -> None:
        self.emit("ret")

    # -- structured-control helpers --------------------------------------------------------
    @contextlib.contextmanager
    def for_range(self, var: str, start, stop, step=1) -> Iterator[Reg]:
        """Emit a counted loop; the body is authored inside the ``with`` block.

        Lowers to ``header`` / ``body`` / ``exit`` blocks with the induction
        variable ``var``.  After the ``with`` block exits, the builder's
        current block is the loop exit.
        """
        header = self.fresh_label(f"{var}.header")
        body = self.fresh_label(f"{var}.body")
        exit_label = self.fresh_label(f"{var}.exit")
        self.mov(start, dest=var)
        self.branch(header)
        self.block(header)
        cond = self.lt(Reg(var), stop)
        self.cbranch(cond, body, exit_label)
        self.block(body)
        try:
            yield Reg(var)
        finally:
            self.add(Reg(var), step, dest=var)
            self.branch(header)
            self.block(exit_label)

    @contextlib.contextmanager
    def if_then(self, cond) -> Iterator[Instruction]:
        """Emit an if-without-else region; the body goes inside the ``with``.

        Yields the ``condbr`` instruction so callers can record its uid as a
        mutation / edit target.
        """
        then_label = self.fresh_label("then")
        merge_label = self.fresh_label("endif")
        self.cbranch(cond, then_label, merge_label)
        branch_instruction = self._last_emitted
        self.block(then_label)
        try:
            yield branch_instruction
        finally:
            if self.current_block.terminator is None:
                self.branch(merge_label)
            self.block(merge_label)

    def if_then_else(self, cond):
        """Emit an if/else region.

        Returns ``(then_cm, else_cm)`` -- two context managers that must be
        entered in that order::

            then_cm, else_cm = b.if_then_else(cond)
            with then_cm:
                ...
            with else_cm:
                ...
        """
        then_label = self.fresh_label("then")
        else_label = self.fresh_label("else")
        merge_label = self.fresh_label("endif")
        self.cbranch(cond, then_label, else_label)
        builder = self

        @contextlib.contextmanager
        def then_cm():
            builder.block(then_label)
            try:
                yield
            finally:
                if builder.current_block.terminator is None:
                    builder.branch(merge_label)

        @contextlib.contextmanager
        def else_cm():
            builder.block(else_label)
            try:
                yield
            finally:
                if builder.current_block.terminator is None:
                    builder.branch(merge_label)
                builder.block(merge_label)

        return then_cm(), else_cm()

    # -- finalisation -------------------------------------------------------------------------
    def build(self) -> Function:
        """Return the finished function.

        Any block missing a terminator receives an implicit ``ret``; this
        keeps hand-written kernels concise while guaranteeing the verifier's
        structural invariants.
        """
        for label in self.function.block_order():
            block = self.function.blocks[label]
            if block.terminator is None:
                block.append(Instruction("ret", loc=self._source_loc()))
        return self.function


def build_module(name: str, *functions: Function) -> Module:
    """Assemble a module from already-built functions."""
    module = Module(name)
    for func in functions:
        module.add_function(func)
    return module
