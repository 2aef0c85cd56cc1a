"""Simulated GPU: architectures, SIMT execution, timing and profiling.

This package substitutes for the physical NVIDIA GPUs used in the paper.
The usual entry point is::

    from repro.gpu import GpuDevice, get_arch

    device = GpuDevice(get_arch("P100"))
    result = device.launch(kernel, grid=8, block=64, args={"x": host_array, "n": 512})
    print(result.time_ms)
"""

from .arch import ARCHITECTURES, EVALUATION_ORDER, GTX1080TI, INTERPRETER_TIERS, P100, V100, GpuArch, architecture_table, available_archs, check_interpreter_tier, get_arch, parse_arch_list, register_arch
from .decoded import DecodedBlock, DecodedFunction, DecodedInstruction, decode_function
from .jitted import attach_jit, jit_function
from .memory import BufferHandle, GlobalMemory, SharedMemoryBlock, bank_conflicts, coalesced_transactions
from .profiler import InstructionProfile, ProfileCollector
from .simulator import LAUNCH_OVERHEAD_CYCLES, BlockResult, GpuDevice, LaunchResult
from .timing import CostModel, MemoryAccessInfo, cycles_to_milliseconds
from .warp import ThreadIdentity, WarpState, WarpStatus, build_thread_identity

__all__ = [
    "ARCHITECTURES",
    "BlockResult",
    "BufferHandle",
    "CostModel",
    "DecodedBlock",
    "DecodedFunction",
    "DecodedInstruction",
    "EVALUATION_ORDER",
    "GTX1080TI",
    "GlobalMemory",
    "GpuArch",
    "GpuDevice",
    "INTERPRETER_TIERS",
    "InstructionProfile",
    "LAUNCH_OVERHEAD_CYCLES",
    "LaunchResult",
    "MemoryAccessInfo",
    "P100",
    "ProfileCollector",
    "SharedMemoryBlock",
    "ThreadIdentity",
    "V100",
    "WarpState",
    "WarpStatus",
    "architecture_table",
    "attach_jit",
    "available_archs",
    "bank_conflicts",
    "build_thread_identity",
    "check_interpreter_tier",
    "coalesced_transactions",
    "cycles_to_milliseconds",
    "decode_function",
    "get_arch",
    "jit_function",
    "parse_arch_list",
    "register_arch",
]
