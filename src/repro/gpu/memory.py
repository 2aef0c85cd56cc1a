"""Memory spaces of the simulated GPU.

Three spaces exist, mirroring the CUDA model described in Section II-B of
the paper:

* **global** memory -- kernel parameters of kind ``buffer``; shared by all
  blocks, backed by the numpy arrays the host passes to ``launch`` and
  mutated in place (like ``cudaMemcpy``-managed device buffers).
* **shared** memory -- per-block arrays declared by the kernel, visible to
  every thread in the block, *not* zero-initialised (so a kernel that reads
  before writing gets the poison fill value; see the ADEPT-V0 analysis in
  Section VI-C).
* **registers** -- per-thread virtual registers, handled by the warp state
  in :mod:`repro.gpu.warp`.

A :class:`BufferHandle` is the runtime value bound to a buffer parameter or
shared-array name; loads and stores resolve their base operand to such a
handle.  Out-of-bounds accesses raise :class:`KernelTrap`, the simulator's
analogue of the segmentation fault the paper observes when SIMCoV's
boundary check is removed on a large grid (Section VI-D).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import KernelTrap, LaunchError
from ..ir.function import Function

#: Poison value used to fill uninitialised shared memory.  Chosen to be
#: loud: any computation that consumes it will produce visibly wrong
#: output and fail validation, rather than silently succeeding the way a
#: zero fill would.
SHARED_POISON = float("nan")

# Bound once: every executed memory instruction validates its index
# vector, so the finiteness test counts instead of calling ``np.all`` and
# the extrema call the ufunc reductions without ``ndarray.min/max``'s
# Python wrappers.
_count_nonzero = np.count_nonzero
_isfinite = np.isfinite
_min_reduce = np.minimum.reduce
_max_reduce = np.maximum.reduce

GLOBAL_SPACE = "global"
SHARED_SPACE = "shared"


class BufferHandle:
    """Runtime handle for a global or shared memory array."""

    __slots__ = ("name", "space", "array", "geometry_key")

    def __init__(self, name: str, space: str, array: np.ndarray):
        if space not in (GLOBAL_SPACE, SHARED_SPACE):
            raise LaunchError(f"unknown memory space {space!r}")
        if array.ndim != 1:
            raise LaunchError(
                f"buffer {name!r} must be one-dimensional (flatten host arrays before launch)"
            )
        self.name = name
        self.space = space
        self.array = array
        #: Everything besides the indices that the bounds check, the index
        #: conversion and the access pricing read: two handles with equal
        #: keys accept the same indices and convert and price them alike
        #: (only trap messages name the buffer).  The JIT's access memo
        #: keys on it.
        self.geometry_key: tuple = (space, int(array.shape[0]))

    @property
    def size(self) -> int:
        return int(self.array.shape[0])

    def check_bounds(self, indices: np.ndarray, instruction=None) -> np.ndarray:
        """Validate *indices* and return them as ``int64``.

        Raises :class:`KernelTrap` on any out-of-bounds or non-finite index,
        which the GEVO fitness harness interprets as a failed test case.
        """
        return self.check_bounds_stats(indices, instruction)[0]

    def check_bounds_stats(self, indices: np.ndarray, instruction=None):
        """Validate *indices*; return ``(idx, lo, hi)`` with the extrema.

        The bounds check has to reduce the index vector to its min/max
        anyway, and the memory-pricing fast paths
        (:func:`transactions_from_stats` / :func:`conflicts_from_stats`)
        are keyed on exactly those extrema -- fusing the two means one
        reduction pass per executed memory instruction instead of three.
        ``lo``/``hi`` are Python ints; an empty access returns ``(0, -1)``
        (the sentinel both pricing helpers treat as "no lanes").
        """
        idx = np.asarray(indices)
        if idx.dtype.kind == "f":
            if _count_nonzero(_isfinite(idx)) != idx.size:
                raise KernelTrap(
                    f"non-finite index into {self.space} buffer {self.name!r}",
                    instruction=instruction,
                )
        idx = idx.astype(np.int64, copy=False)
        if not idx.size:
            return idx, 0, -1
        lo = int(_min_reduce(idx))
        hi = int(_max_reduce(idx))
        if lo < 0 or hi >= self.size:
            bad = lo if lo < 0 else hi
            raise KernelTrap(
                f"out-of-bounds access to {self.space} buffer {self.name!r} "
                f"(index {bad}, size {self.size})",
                instruction=instruction,
            )
        return idx, lo, hi

    def __repr__(self) -> str:
        return f"<BufferHandle {self.space}:{self.name}[{self.size}]>"


class ArenaBufferHandle(BufferHandle):
    """A buffer living inside a unified global-memory arena.

    Real GPUs place every ``cudaMalloc`` allocation in one address space, so
    a slightly out-of-bounds access usually reads a neighbouring allocation
    instead of faulting; only accesses that leave mapped memory fault.  This
    handle reproduces that: indices outside the logical buffer but inside
    the arena resolve to whatever lives there, indices outside the arena
    trap.  Section VI-D of the paper (SIMCoV's boundary-check removal
    passing small-grid tests but segfaulting on large grids) depends on
    exactly this behaviour.
    """

    __slots__ = ("offset", "logical_size", "arena")

    def __init__(self, name: str, arena: np.ndarray, offset: int, logical_size: int):
        super().__init__(name, GLOBAL_SPACE, arena)
        self.arena = arena
        self.offset = int(offset)
        self.logical_size = int(logical_size)
        # The converted indices and their segments shift with the offset,
        # and the bounds check reads the arena length.
        self.geometry_key = (GLOBAL_SPACE, self.logical_size, self.offset,
                             int(arena.shape[0]))

    @property
    def size(self) -> int:
        return self.logical_size

    def logical_view(self) -> np.ndarray:
        """The slice of the arena corresponding to the logical buffer."""
        return self.arena[self.offset:self.offset + self.logical_size]

    def check_bounds_stats(self, indices: np.ndarray, instruction=None):
        idx = np.asarray(indices)
        if idx.dtype.kind == "f":
            if _count_nonzero(_isfinite(idx)) != idx.size:
                raise KernelTrap(
                    f"non-finite index into global buffer {self.name!r}",
                    instruction=instruction)
        idx = idx.astype(np.int64, copy=False) + self.offset
        if not idx.size:
            return idx, 0, -1
        lo = int(_min_reduce(idx))
        hi = int(_max_reduce(idx))
        if lo < 0 or hi >= self.arena.shape[0]:
            raise KernelTrap(
                f"illegal memory access: buffer {self.name!r} index "
                f"{lo - self.offset}..{hi - self.offset} leaves the "
                f"mapped device arena (logical size {self.logical_size})",
                instruction=instruction)
        return idx, lo, hi


class GlobalMemory:
    """The device's global memory: named buffers bound to host numpy arrays.

    Two modes exist:

    * the default mode gives every buffer its own allocation with strict
      bounds checking (any out-of-bounds access traps);
    * ``unified_arena=True`` packs all buffers into one float64 arena with
      guard regions, reproducing the CUDA single-address-space behaviour
      that the SIMCoV boundary-check study relies on.  :meth:`bind` only
      reserves each buffer's offset; :meth:`finalize_arena` allocates the
      arena once, copies each host array in once and builds the handles,
      and :meth:`sync_back` copies the results back.
    """

    def __init__(self, unified_arena: bool = False, guard_elements: int = 24):
        self._buffers: Dict[str, BufferHandle] = {}
        self.unified_arena = unified_arena
        self.guard_elements = int(guard_elements)
        self._arena: np.ndarray = np.zeros(0, dtype=np.float64)
        #: Arena mode: name -> (offset, host array) of each bound buffer,
        #: and the end of the last one (the tail guard follows it).
        self._layout: Dict[str, Tuple[int, np.ndarray]] = {}
        self._arena_end = 0

    def bind(self, name: str, array: np.ndarray) -> None:
        """Bind a host array as a global buffer (device-resident, in place).

        :meth:`get` returns its handle; in arena mode, once
        :meth:`finalize_arena` has laid the arena out.
        """
        if not isinstance(array, np.ndarray):
            raise LaunchError(
                f"buffer argument {name!r} must be a numpy array, got {type(array)!r}"
            )
        arr = array if array.ndim == 1 else array.reshape(-1)
        if self.unified_arena:
            offset = self._arena_end + self.guard_elements
            self._layout[name] = (offset, arr)
            self._arena_end = offset + arr.shape[0]
        else:
            self._buffers[name] = BufferHandle(name, GLOBAL_SPACE, arr)

    def finalize_arena(self) -> None:
        """Lay the arena out once every buffer is bound: a zero-filled guard
        region before each buffer and after the last, each host array copied
        in at its offset, one handle per buffer."""
        if not self.unified_arena:
            return
        arena = np.zeros(self._arena_end + self.guard_elements, dtype=np.float64)
        for name, (offset, host) in self._layout.items():
            arena[offset:offset + host.shape[0]] = host
            self._buffers[name] = ArenaBufferHandle(name, arena, offset,
                                                    host.shape[0])
        self._arena = arena

    def sync_back(self) -> None:
        """Copy arena contents back into the host arrays (arena mode only)."""
        if not self.unified_arena:
            return
        for name, (_, host) in self._layout.items():
            host[...] = self._buffers[name].logical_view().astype(host.dtype)

    def get(self, name: str) -> BufferHandle:
        try:
            return self._buffers[name]
        except KeyError:
            raise LaunchError(f"no global buffer bound for parameter {name!r}") from None

    def total_bytes(self) -> int:
        if self.unified_arena:
            return int(self._arena.nbytes)
        return sum(h.array.nbytes for h in self._buffers.values())


class SharedMemoryBlock:
    """The shared memory of one thread block.

    One array is allocated per ``shared`` declaration of the kernel,
    filled with poison (NaN, or a large negative int), matching hardware
    semantics where shared memory contents are undefined at kernel start.
    """

    def __init__(self, function: Function):
        self._arrays: Dict[str, BufferHandle] = {}
        self.bytes_allocated = 0
        for decl in function.shared:
            if decl.dtype == "int":
                array = np.full(decl.size, np.iinfo(np.int64).min // 2, dtype=np.int64)
            else:
                array = np.full(decl.size, SHARED_POISON, dtype=np.float64)
            self._arrays[decl.name] = BufferHandle(decl.name, SHARED_SPACE, array)
            self.bytes_allocated += array.nbytes

    def get(self, name: str) -> BufferHandle:
        try:
            return self._arrays[name]
        except KeyError:
            raise KernelTrap(f"kernel references undeclared shared array {name!r}") from None

    def handles(self) -> Dict[str, BufferHandle]:
        return dict(self._arrays)


def coalesced_transactions(indices: np.ndarray, segment_size: int = 32) -> int:
    """Number of memory transactions a warp access generates.

    Global memory accesses are serviced in segments of
    ``segment_size`` elements (callers pass ``GpuArch.memory_segment_size``
    -- the default only serves standalone use); a fully coalesced access
    touches one segment, a strided or scattered access touches up to one
    per lane.  The cost model charges per transaction, which is how the
    simulator reproduces the benefit of coalesced access patterns.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return 0
    return transactions_from_stats(idx, int(idx.min()), int(idx.max()), segment_size)


def transactions_from_stats(idx: np.ndarray, lo: int, hi: int, segment_size: int) -> int:
    """:func:`coalesced_transactions` given precomputed index extrema.

    The hot tiers obtain ``(lo, hi)`` for free from the fused bounds check
    (``BufferHandle.check_bounds_stats``); when the extrema land in at most
    two adjacent segments the count is exact without sorting -- which is
    the overwhelmingly common case for coalesced kernels.  An empty access
    is encoded as ``(lo, hi) == (0, -1)`` and prices to 0 transactions.
    """
    span = hi // segment_size - lo // segment_size
    if span <= 1:
        # Both extrema exist in the access, so a 0-segment span is exactly
        # one transaction and a 1-segment span exactly two (and the empty
        # sentinel gives span == -1 -> 0).
        return span + 1
    # Equivalent to np.unique(...).size, without the wrapper overhead (this
    # runs once per executed global-memory instruction).
    segments = idx // segment_size
    segments.sort()
    return int(np.count_nonzero(segments[1:] != segments[:-1])) + 1


def bank_conflicts(indices: np.ndarray, num_banks: int = 32) -> int:
    """Worst-case shared-memory bank conflict degree for a warp access.

    Returns the maximum number of lanes that hit the same bank (1 means
    conflict free); the cost model charges the excess serialisation.
    ``num_banks`` must be positive (bank ids are ``index % num_banks``,
    non-negative for any index the bounds check lets through); callers
    pass ``GpuArch.shared_banks``, the default only serves standalone use.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return 1
    return conflicts_from_stats(idx, int(idx.min()), int(idx.max()), num_banks)


def conflicts_from_stats(idx: np.ndarray, lo: int, hi: int, num_banks: int) -> int:
    """:func:`bank_conflicts` given precomputed index extrema.

    A contiguous ascending access (the ``tile[tid]`` pattern) is provably
    conflict free up to the bank wrap-around, so the common case skips the
    bincount.  Contiguity needs both the range check *and* the adjacent
    deltas (``[0, 1, 1, 3]`` has ``hi - lo == n - 1`` without being
    contiguous).  The empty sentinel ``(0, -1)`` prices to degree 1.
    """
    n = idx.size
    if n <= 1:
        return 1
    if hi - lo == n - 1 and _count_nonzero(idx[1:] == idx[:-1] + 1) == n - 1:
        # n consecutive addresses: each bank is hit ceil(n / num_banks) times.
        return -(-n // num_banks)
    # Equivalent to np.unique(..., return_counts=True)[1].max(): the zero
    # counts np.bincount adds for untouched banks never win the max.
    return int(np.bincount(idx % num_banks).max())
