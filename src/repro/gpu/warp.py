"""Warp state for the SIMT interpreter.

A warp is a group of (up to) 32 threads executed in lock step.  The state
consists of a per-lane register file (numpy arrays of width ``warp_size``),
an execution status, a cycle counter, and the SIMT *reconvergence stack*
that implements branch divergence: when the lanes of a warp disagree on a
conditional branch, both sides execute serially under partial masks and
re-join at the immediate post-dominator of the branching block, exactly the
mechanism the paper's Section VI-A analysis relies on to explain why the
hand-tuned register-shuffle exchange loses to plain shared memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .memory import BufferHandle

#: A program counter: (block label, instruction index within the block).
ProgramCounter = Tuple[str, int]

#: Register values are either per-lane numeric arrays or uniform buffer handles.
RegisterValue = Union[np.ndarray, BufferHandle]


class WarpStatus(enum.Enum):
    """Scheduling status of a warp within its block."""

    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    DONE = "done"


@dataclass
class StackEntry:
    """One entry of the SIMT reconvergence stack."""

    pc: ProgramCounter
    mask: np.ndarray
    reconvergence: Optional[str]
    #: JIT-tier cache of "every lane active": masks are immutable and
    #: rebound on every change, so fullness is memoised by object identity
    #: (``mask_obj is mask``) instead of re-reducing per segment execution.
    mask_obj: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    mask_full: bool = field(default=False, repr=False, compare=False)

    def active_lane_count(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class ThreadIdentity:
    """Per-lane thread/block coordinates for one warp.

    Identities are immutable (consumers copy before mutating), so one
    instance can be shared by every launch with the same geometry -- see
    :meth:`GpuDevice._thread_identity`.
    """

    tid_x: np.ndarray
    tid_y: np.ndarray
    bid_x: np.ndarray
    bid_y: np.ndarray
    bdim_x: np.ndarray
    bdim_y: np.ndarray
    gdim_x: np.ndarray
    gdim_y: np.ndarray
    lane_id: np.ndarray
    warp_id: np.ndarray
    valid: np.ndarray
    #: Lazily built opcode -> per-lane array map served to the interpreters
    #: (``tid.x`` reads etc.); built once per identity instead of once per
    #: warp executor.
    _register_values: Optional[Dict[str, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def register_values(self) -> Dict[str, np.ndarray]:
        values = self._register_values
        if values is None:
            values = {
                "tid.x": self.tid_x, "tid.y": self.tid_y,
                "bid.x": self.bid_x, "bid.y": self.bid_y,
                "bdim.x": self.bdim_x, "bdim.y": self.bdim_y,
                "gdim.x": self.gdim_x, "gdim.y": self.gdim_y,
                "laneid": self.lane_id, "warpid": self.warp_id,
            }
            self._register_values = values
        return values


def scalar_dtype(value: float) -> type:
    """The scalar-parameter dtype rule: a finite integral value becomes
    int64 lanes, everything else -- fractional, ``±inf``, ``nan`` --
    float64.  Shared by the solo launch and the batched row stacking."""
    return np.int64 if float(value).is_integer() else np.float64


def broadcast_scalar_arrays(scalar_bindings: Dict[str, float],
                            warp_size: int) -> Dict[str, np.ndarray]:
    """Read-only per-lane broadcast arrays for scalar kernel parameters.

    Applies :func:`scalar_dtype`; the device caches the result per
    distinct scalar tuple and shares it across warps and launches --
    safe because register writes rebind, never mutate in place.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in scalar_bindings.items():
        dtype = scalar_dtype(value)
        array = np.full(warp_size, value, dtype=dtype)
        array.flags.writeable = False
        arrays[name] = array
    return arrays


def build_thread_identity(
    warp_index: int,
    block_coords: Tuple[int, int],
    block_dim: Tuple[int, int],
    grid_dim: Tuple[int, int],
    warp_size: int = 32,
) -> ThreadIdentity:
    """Compute the identity arrays for warp *warp_index* of one block.

    Threads are linearised row-major (``ty * bdim_x + tx``), matching CUDA's
    warp formation order, and lanes beyond the block's thread count are
    marked invalid (never active).
    """
    bx, by = block_dim
    total_threads = bx * by
    lanes = np.arange(warp_size, dtype=np.int64)
    linear = warp_index * warp_size + lanes
    valid = linear < total_threads
    safe_linear = np.where(valid, linear, 0)
    tid_x = safe_linear % bx
    tid_y = safe_linear // bx
    return ThreadIdentity(
        tid_x=tid_x.astype(np.int64),
        tid_y=tid_y.astype(np.int64),
        bid_x=np.full(warp_size, block_coords[0], dtype=np.int64),
        bid_y=np.full(warp_size, block_coords[1], dtype=np.int64),
        bdim_x=np.full(warp_size, bx, dtype=np.int64),
        bdim_y=np.full(warp_size, by, dtype=np.int64),
        gdim_x=np.full(warp_size, grid_dim[0], dtype=np.int64),
        gdim_y=np.full(warp_size, grid_dim[1], dtype=np.int64),
        lane_id=lanes,
        warp_id=np.full(warp_size, warp_index, dtype=np.int64),
        valid=valid,
    )


@dataclass
class WarpState:
    """Mutable execution state of one warp."""

    warp_index: int
    identity: ThreadIdentity
    entry_label: str
    warp_size: int = 32
    registers: Dict[str, RegisterValue] = field(default_factory=dict)
    stack: List[StackEntry] = field(default_factory=list)
    status: WarpStatus = WarpStatus.RUNNING
    cycles: float = 0.0
    instructions_executed: int = 0
    exited_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.exited_mask is None:
            self.exited_mask = np.zeros(self.warp_size, dtype=bool)
        if not self.stack:
            initial_mask = self.identity.valid.copy()
            self.stack.append(StackEntry(pc=(self.entry_label, 0),
                                         mask=initial_mask,
                                         reconvergence=None))
        if not np.count_nonzero(self.identity.valid):
            self.status = WarpStatus.DONE
            self.stack.clear()

    # -- mask / stack helpers -------------------------------------------------------
    @property
    def active_mask(self) -> np.ndarray:
        """Mask of lanes active at the current top-of-stack (all false when done)."""
        if not self.stack:
            return np.zeros(self.warp_size, dtype=bool)
        return self.stack[-1].mask

    def retire_lanes(self, mask: np.ndarray) -> None:
        """Mark lanes as having executed ``ret``; prune them from every stack entry."""
        self.exited_mask |= mask
        for entry in self.stack:
            entry.mask = entry.mask & ~mask
        while self.stack and not np.count_nonzero(self.stack[-1].mask):
            self.stack.pop()
        if not self.stack:
            self.status = WarpStatus.DONE

    def pop_reconverged(self) -> None:
        """Pop stack entries whose program counter reached their reconvergence block."""
        while self.stack:
            top = self.stack[-1]
            if top.reconvergence is not None and top.pc == (top.reconvergence, 0):
                self.stack.pop()
            else:
                break
        if not self.stack:
            self.status = WarpStatus.DONE

    def write_register(self, name: str, value: np.ndarray, mask: np.ndarray) -> None:
        """Write *value* into register *name* for the lanes selected by *mask*."""
        if isinstance(value, BufferHandle):
            # Buffer handles are uniform values; a masked write of a handle
            # simply rebinds the name (matches how pointer-typed registers
            # behave in practice: every lane holds the same pointer).
            self.registers[name] = value
            return
        value = np.asarray(value)
        existing = self.registers.get(name)
        if isinstance(existing, BufferHandle) or existing is None:
            base = np.zeros(self.warp_size, dtype=value.dtype)
        else:
            base = existing
        if base.dtype != value.dtype:
            common = np.result_type(base.dtype, value.dtype)
            base = base.astype(common)
            value = value.astype(common)
        self.registers[name] = np.where(mask, value, base)

    def write_register_full(self, name: str, value: np.ndarray) -> None:
        """Write *value* under a fully-active mask.

        Equivalent to :meth:`write_register` with an all-true mask -- the
        merge with the previous contents keeps nothing, so the masked
        ``np.where`` collapses to storing *value* (promoted against the
        existing register's dtype exactly as the merge would).  *value*
        must be a freshly produced array the caller does not retain; the
        decoded fast path's handlers guarantee this.
        """
        if isinstance(value, BufferHandle):
            self.registers[name] = value
            return
        existing = self.registers.get(name)
        if (existing is not None and not isinstance(existing, BufferHandle)
                and existing.dtype != value.dtype):
            common = np.result_type(existing.dtype, value.dtype)
            if value.dtype != common:
                value = value.astype(common)
        self.registers[name] = value

    def snapshot_cycles(self) -> float:
        return self.cycles
