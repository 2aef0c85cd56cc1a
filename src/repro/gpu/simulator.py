"""Kernel launch and block/warp scheduling for the simulated GPU.

:class:`GpuDevice` is the host-facing entry point: it binds host numpy
arrays as global buffers, runs every thread block of the launch through
the SIMT interpreter (the segment JIT by default, or the tree-walking
oracle), applies the block-level scheduling model (warps of a
block round-robin between ``__syncthreads`` barriers; blocks fill the
device in waves limited by the architecture's concurrent-block capacity),
and converts the resulting cycle counts into milliseconds.

Both tiers return the same cycles, times, instruction and warp counts,
buffers, RNG streams and traps.  Cost-model counters and per-instruction
profiles are reports of the oracle tier only: an oracle launch fills
``LaunchResult.counters``, ``LaunchResult.profile`` and
:attr:`GpuDevice.last_profile`, while a JIT launch -- the tier every
search evaluation runs on -- leaves them empty.

This module is the stand-in for the paper's physical P100 / 1080Ti / V100
machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import KernelTrap, LaunchError
from ..ir.analysis import immediate_postdominators
from ..ir.function import Function, Module
from .arch import GpuArch, P100, check_interpreter_tier
from .batched import BatchAbort, batchable_function, execute_batched
from .interpreter import WarpExecutor
from .jitted import jit_function, structural_function_key
from .memory import GlobalMemory, SharedMemoryBlock
from .profiler import ProfileCollector
from .timing import CostModel, cycles_to_milliseconds
from .warp import WarpState, WarpStatus, broadcast_scalar_arrays, build_thread_identity

#: Fixed host-side overhead charged per kernel launch, in cycles.
LAUNCH_OVERHEAD_CYCLES = 400.0

#: Bound on the per-device cache of shared scalar-parameter broadcast
#: arrays (one entry per distinct scalar-argument tuple seen).
_SCALAR_CACHE_LIMIT = 128

Dim = Union[int, Tuple[int, int]]


def _as_dim(value: Dim) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, 1)
    x, y = value
    return (int(x), int(y))


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    kernel: str
    arch: GpuArch
    grid: Tuple[int, int]
    block: Tuple[int, int]
    cycles: float
    time_ms: float
    blocks_executed: int
    warps_executed: int
    instructions_executed: int
    #: Per-instruction profile and cost-model counters: oracle reports,
    #: empty after a JIT launch.
    profile: ProfileCollector = field(
        default_factory=lambda: ProfileCollector(enabled=False))
    counters: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (f"<LaunchResult {self.kernel} on {self.arch.name}: "
                f"{self.time_ms:.3f} ms ({self.cycles:.0f} cycles)>")


@dataclass
class BlockResult:
    """Execution summary of one thread block."""

    block_coords: Tuple[int, int]
    cycles: float
    warps: int
    instructions: int


class GpuDevice:
    """A simulated GPU able to launch mini-IR kernels."""

    def __init__(
        self,
        arch: GpuArch = P100,
        *,
        max_instructions_per_warp: int = 1_000_000,
        unified_memory_arena: bool = False,
        arena_guard_elements: int = 24,
        fast_path: Optional[str] = None,
    ):
        self.arch = arch
        self.max_instructions_per_warp = max_instructions_per_warp
        #: Which of the two bit-for-bit-equivalent interpreter tiers this
        #: device executes through: the segment ``"jit"`` or the
        #: tree-walking ``"oracle"``.  ``fast_path`` names one and defaults
        #: to the architecture's ``fast_path``.
        self.interpreter_tier = check_interpreter_tier(
            arch.fast_path if fast_path is None else fast_path)
        #: Shared read-only scalar-parameter broadcast arrays, built once
        #: per distinct scalar-argument tuple instead of once per warp per
        #: launch (drivers re-launch the same kernel with the same scalars
        #: once per test case / simulation step).
        self._scalar_array_cache: Dict[tuple, Dict[str, np.ndarray]] = {}
        #: Shared per-warp thread identities, keyed by launch geometry --
        #: identities are immutable, so repeated launches of the same grid
        #: skip rebuilding ~10 numpy arrays per warp per launch.
        self._identity_cache: Dict[tuple, "ThreadIdentity"] = {}
        #: When set, all global buffers of a launch live in one float64
        #: arena (CUDA-like single address space); slightly out-of-bounds
        #: accesses read neighbouring allocations instead of trapping.
        self.unified_memory_arena = unified_memory_arena
        self.arena_guard_elements = arena_guard_elements

    # -- public API ---------------------------------------------------------------
    def launch(
        self,
        kernel: Union[Function, Module],
        grid: Dim,
        block: Dim,
        args: Dict[str, object],
        *,
        kernel_name: Optional[str] = None,
        max_instructions_per_warp: Optional[int] = None,
    ) -> LaunchResult:
        """Launch *kernel* over ``grid`` x ``block`` threads.

        ``args`` maps parameter names to numpy arrays (buffer parameters,
        modified in place) or Python numbers (scalar parameters).  Traps
        inside the kernel propagate as :class:`KernelTrap`.
        """
        function = self._select_kernel(kernel, kernel_name)
        grid_dim = _as_dim(grid)
        block_dim = _as_dim(block)
        self._validate_launch(function, grid_dim, block_dim, args)

        global_memory = GlobalMemory(unified_arena=self.unified_memory_arena,
                                     guard_elements=self.arena_guard_elements)
        scalar_bindings: Dict[str, float] = {}
        buffer_names: List[str] = []
        for param in function.params:
            if param.kind == "buffer":
                global_memory.bind(param.name, args[param.name])
                buffer_names.append(param.name)
            else:
                scalar_bindings[param.name] = float(args[param.name])
        global_memory.finalize_arena()
        global_bindings = {name: global_memory.get(name) for name in buffer_names}

        if self.interpreter_tier == "jit":
            decoded = jit_function(function, self.arch)
            postdominators = decoded.postdominators
        else:
            decoded = None
            postdominators = immediate_postdominators(function)
        scalar_arrays = self._shared_scalar_arrays(scalar_bindings)
        # Only the oracle reports: a JIT launch hands its executors a
        # disabled profiler and drops the counters its oracle steps bump.
        oracle = decoded is None
        profiler = ProfileCollector(enabled=oracle)
        #: Most recent launch's profile (empty after a JIT launch); read
        #: back by the hotspot report without threading the collector
        #: through every fitness result.
        self.last_profile = profiler
        cost_model = CostModel(self.arch)
        budget = max_instructions_per_warp or self.max_instructions_per_warp

        block_results: List[BlockResult] = []
        total_instructions = 0
        total_warps = 0
        for by in range(grid_dim[1]):
            for bx in range(grid_dim[0]):
                result = self._run_block(
                    function, (bx, by), block_dim, grid_dim,
                    global_bindings, scalar_bindings,
                    postdominators, cost_model, profiler, budget, decoded,
                    scalar_arrays=scalar_arrays,
                )
                block_results.append(result)
                total_instructions += result.instructions
                total_warps += result.warps

        global_memory.sync_back()
        kernel_cycles = self._schedule_blocks(block_results)
        cycles = kernel_cycles + LAUNCH_OVERHEAD_CYCLES
        return LaunchResult(
            kernel=function.name,
            arch=self.arch,
            grid=grid_dim,
            block=block_dim,
            cycles=cycles,
            time_ms=cycles_to_milliseconds(cycles, self.arch),
            blocks_executed=len(block_results),
            warps_executed=total_warps,
            instructions_executed=total_instructions,
            profile=profiler,
            counters=dict(cost_model.counters) if oracle else {},
        )

    def launch_batched(
        self,
        rows: Sequence[Tuple[Union[Function, Module], Dict[str, object]]],
        grid: Dim,
        block: Dim,
        *,
        kernel_name: Optional[str] = None,
        max_instructions_per_warp: Optional[int] = None,
    ) -> List[Union[LaunchResult, Exception]]:
        """Launch N structurally identical rows in one stacked pass.

        Each row is a ``(kernel, args)`` pair with the shared ``grid`` x
        ``block`` geometry: the SimCov fitness grid passes one module
        with per-row scalar parameters, the engine's clone batching
        passes per-row mutated modules that share a structural key.  The
        return value is one entry per row, in order: a
        :class:`LaunchResult`, or the :class:`KernelTrap` /
        :class:`LaunchError` that row's solo launch raised.

        Bit-for-bit equivalence with per-row :meth:`launch` calls is the
        contract (cycles, instruction counts, RNG streams, buffers,
        traps); stacked rows are JIT results, with no counters and an
        empty profile.  Whenever the batched model cannot honour it -- a
        non-batchable kernel, mismatched structural keys, any would-trap
        condition, cross-row buffer aliasing -- the affected launch
        falls back to per-row solo execution before any host array is
        touched, so the fallback is trivially equivalent.
        """
        rows = list(rows)
        if len(rows) < 2 or self.interpreter_tier == "oracle":
            return self._solo_rows(rows, grid, block, kernel_name,
                                   max_instructions_per_warp)
        grid_dim = _as_dim(grid)
        block_dim = _as_dim(block)
        try:
            functions = [self._select_kernel(kernel, kernel_name)
                         for kernel, _ in rows]
            for function, (_, args) in zip(functions, rows):
                self._validate_launch(function, grid_dim, block_dim, args)
        except LaunchError:
            return self._solo_rows(rows, grid, block, kernel_name,
                                   max_instructions_per_warp)
        template = functions[0]
        if not batchable_function(template, self.arch):
            return self._solo_rows(rows, grid, block, kernel_name,
                                   max_instructions_per_warp)
        if any(function is not template for function in functions):
            key = structural_function_key(template, self.arch)
            for function in functions[1:]:
                if (function is not template
                        and structural_function_key(function, self.arch) != key):
                    return self._solo_rows(rows, grid, block, kernel_name,
                                           max_instructions_per_warp)

        warp_size = self.arch.warp_size
        budget = max_instructions_per_warp or self.max_instructions_per_warp

        def identity_of(warp_index, block_coords):
            return self._thread_identity(warp_index, block_coords, block_dim,
                                         grid_dim, warp_size)

        try:
            outcome = execute_batched(
                functions, [args for _, args in rows], grid_dim, block_dim,
                self.arch,
                unified_arena=self.unified_memory_arena,
                guard_elements=self.arena_guard_elements,
                budget=budget,
                identity_of=identity_of,
            )
        except BatchAbort:
            return self._solo_rows(rows, grid, block, kernel_name,
                                   max_instructions_per_warp)

        blocks_executed = outcome["blocks_executed"]
        warps_executed = blocks_executed * outcome["warps_per_block"]
        results: List[Union[LaunchResult, Exception]] = []
        for row, function in enumerate(functions):
            cycles = float(outcome["cycles"][row]) + LAUNCH_OVERHEAD_CYCLES
            results.append(LaunchResult(
                kernel=function.name,
                arch=self.arch,
                grid=grid_dim,
                block=block_dim,
                cycles=cycles,
                time_ms=cycles_to_milliseconds(cycles, self.arch),
                blocks_executed=blocks_executed,
                warps_executed=warps_executed,
                instructions_executed=int(outcome["instructions"][row]),
            ))
        # Sequential solo launches leave the last row's (empty) profile on
        # the device; mirror that.
        self.last_profile = results[-1].profile
        return results

    def _solo_rows(self, rows, grid, block, kernel_name,
                   max_instructions_per_warp):
        """Per-row fallback: solo launches with per-row trap capture."""
        outcomes: List[Union[LaunchResult, Exception]] = []
        for kernel, args in rows:
            try:
                outcomes.append(self.launch(
                    kernel, grid, block, args, kernel_name=kernel_name,
                    max_instructions_per_warp=max_instructions_per_warp))
            except (KernelTrap, LaunchError) as error:
                outcomes.append(error)
        return outcomes

    # -- internals ------------------------------------------------------------------
    def _shared_scalar_arrays(self, scalar_bindings: Dict[str, float]) -> Dict[str, np.ndarray]:
        """Read-only per-lane broadcast arrays for the scalar parameters.

        Built once per distinct scalar-argument tuple and shared by every
        warp of every launch (the arrays are never mutated in place --
        register writes rebind), with the exact dtype rule the per-warp
        construction used.
        """
        if not scalar_bindings:
            return {}
        key = tuple(sorted(scalar_bindings.items()))
        arrays = self._scalar_array_cache.get(key)
        if arrays is None:
            if len(self._scalar_array_cache) >= _SCALAR_CACHE_LIMIT:
                self._scalar_array_cache.clear()
            arrays = broadcast_scalar_arrays(scalar_bindings,
                                             self.arch.warp_size)
            self._scalar_array_cache[key] = arrays
        return arrays

    def _thread_identity(self, warp_index, block_coords, block_dim, grid_dim,
                         warp_size):
        """Memoised :func:`build_thread_identity` (identities are immutable)."""
        key = (warp_index, block_coords, block_dim, grid_dim, warp_size)
        identity = self._identity_cache.get(key)
        if identity is None:
            if len(self._identity_cache) >= _SCALAR_CACHE_LIMIT * 32:
                self._identity_cache.clear()
            identity = build_thread_identity(warp_index, block_coords,
                                             block_dim, grid_dim, warp_size)
            self._identity_cache[key] = identity
        return identity

    @staticmethod
    def _select_kernel(kernel: Union[Function, Module], kernel_name: Optional[str]) -> Function:
        if isinstance(kernel, Function):
            return kernel
        if isinstance(kernel, Module):
            if kernel_name is None:
                names = kernel.function_order()
                if len(names) != 1:
                    raise LaunchError(
                        "module has multiple kernels; pass kernel_name to select one"
                    )
                kernel_name = names[0]
            return kernel.get_function(kernel_name)
        raise LaunchError(f"cannot launch object of type {type(kernel)!r}")

    def _validate_launch(self, function: Function, grid: Tuple[int, int],
                         block: Tuple[int, int], args: Dict[str, object]) -> None:
        if grid[0] <= 0 or grid[1] <= 0 or block[0] <= 0 or block[1] <= 0:
            raise LaunchError(f"grid {grid} and block {block} dimensions must be positive")
        threads = block[0] * block[1]
        if threads > self.arch.max_threads_per_block:
            raise LaunchError(
                f"block of {threads} threads exceeds the architecture limit "
                f"of {self.arch.max_threads_per_block}"
            )
        missing = [p.name for p in function.params if p.name not in args]
        if missing:
            raise LaunchError(f"missing kernel arguments: {missing}")
        for param in function.params:
            if param.kind == "buffer" and not isinstance(args[param.name], np.ndarray):
                raise LaunchError(f"argument {param.name!r} must be a numpy array")

    def _run_block(
        self,
        function: Function,
        block_coords: Tuple[int, int],
        block_dim: Tuple[int, int],
        grid_dim: Tuple[int, int],
        global_bindings,
        scalar_bindings,
        postdominators,
        cost_model: CostModel,
        profiler: ProfileCollector,
        budget: int,
        decoded=None,
        scalar_arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> BlockResult:
        warp_size = self.arch.warp_size
        threads = block_dim[0] * block_dim[1]
        num_warps = max(1, math.ceil(threads / warp_size))
        shared = SharedMemoryBlock(function)
        if shared.bytes_allocated > self.arch.shared_memory_per_block:
            raise LaunchError(
                f"kernel {function.name!r} requests {shared.bytes_allocated} bytes of shared "
                f"memory, above the {self.arch.shared_memory_per_block}-byte limit"
            )

        executors: List[WarpExecutor] = []
        for warp_index in range(num_warps):
            identity = self._thread_identity(warp_index, block_coords, block_dim,
                                             grid_dim, warp_size)
            warp = WarpState(warp_index=warp_index, identity=identity,
                             entry_label=function.entry_label, warp_size=warp_size)
            executors.append(WarpExecutor(
                function, warp, shared, global_bindings, scalar_bindings,
                postdominators, cost_model, profiler, max_instructions=budget,
                decoded=decoded, scalar_arrays=scalar_arrays,
            ))

        self._run_warps_to_completion(executors)
        warps = [executor.warp for executor in executors]
        block_cycles = max((w.cycles for w in warps), default=0.0)
        instructions = sum(w.instructions_executed for w in warps)
        return BlockResult(block_coords=block_coords, cycles=block_cycles,
                           warps=num_warps, instructions=instructions)

    def _run_warps_to_completion(self, executors: Sequence[WarpExecutor]) -> None:
        """Round-robin warps of one block between barriers until all finish."""
        barrier_cost = float(self.arch.barrier_latency)
        while True:
            statuses = [executor.warp.status for executor in executors]
            if all(status is WarpStatus.DONE for status in statuses):
                return
            ran_any = False
            for executor in executors:
                if executor.warp.status is WarpStatus.RUNNING:
                    executor.run()
                    ran_any = True
            waiting = [executor.warp for executor in executors
                       if executor.warp.status is WarpStatus.AT_BARRIER]
            if waiting:
                # Barrier release: every waiting warp resumes at the cycle count
                # of the slowest participant (this round-up is what makes the
                # redundant-init + __syncthreads pattern of ADEPT-V0 so costly).
                release_cycle = max(w.cycles for w in waiting) + barrier_cost
                for warp in waiting:
                    warp.cycles = release_cycle
                    warp.status = WarpStatus.RUNNING
                continue
            if not ran_any:
                # No warp could make progress and none is at a barrier: done.
                return

    def _schedule_blocks(self, block_results: Sequence[BlockResult]) -> float:
        """Fill the device in waves of ``concurrent_blocks`` blocks."""
        if not block_results:
            return 0.0
        concurrent = max(1, self.arch.concurrent_blocks)
        cycles = 0.0
        for start in range(0, len(block_results), concurrent):
            wave = block_results[start:start + concurrent]
            cycles += max(result.cycles for result in wave)
        return cycles
