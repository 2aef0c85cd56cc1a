"""Section VI-D: SIMCoV boundary-check removal vs zero padding.

Three variants of the diffusion code are compared:

* the original kernels (boundary checks present);
* the GEVO-discovered boundary-check removal (fast, passes the small
  fitness grid, faults on the larger held-out grid);
* the developers' manual fix: pad the grid with zero cells and drop the
  checks (slightly smaller win, safe everywhere).
"""

from __future__ import annotations

from ..gevo import apply_edits
from ..gpu import GpuDevice, get_arch
from ..workloads.simcov import (
    SimCovParams,
    SimCovWorkloadAdapter,
    boundary_check_removal_edits,
    build_padded_spread_kernel,
    run_padded_spread,
    run_reference,
)
from .registry import ExperimentResult, register


@register("boundary")
def boundary(arch_name: str = "P100") -> ExperimentResult:
    """Reproduce the Section VI-D comparison on one GPU."""
    arch = get_arch(arch_name)
    adapter = SimCovWorkloadAdapter(arch)
    result = ExperimentResult(
        experiment="Section VI-D",
        description="Boundary-check removal vs zero padding in SIMCoV",
    )

    baseline = adapter.baseline()
    baseline_validation = adapter.validate(adapter.original_module())
    result.add_row(variant="original (checked)", fitness_ms=baseline.runtime_ms,
                   improvement=0.0, passes_fitness=baseline.valid,
                   passes_heldout=baseline_validation.valid)

    removal_edits = boundary_check_removal_edits(adapter.kernels)
    removed_module = apply_edits(adapter.original_module(), removal_edits).module
    removed = adapter.evaluate(removed_module)
    removed_validation = adapter.validate(removed_module)
    result.add_row(variant="GEVO boundary removal", fitness_ms=removed.runtime_ms,
                   improvement=(baseline.runtime_ms - removed.runtime_ms) / baseline.runtime_ms,
                   passes_fitness=removed.valid,
                   passes_heldout=removed_validation.valid)

    # Padding comparison on the diffusion kernel alone (the hot code path):
    # one diffusion step of the virion field with each strategy.
    params = adapter.fitness_params
    reference_state = run_reference(params)
    device = GpuDevice(arch, unified_memory_arena=True)
    padded_module = build_padded_spread_kernel()
    padded = run_padded_spread(device, params, reference_state.virions,
                               params.virion_diffusion, params.virion_decay,
                               module=padded_module)
    checked_kernel_ms = _single_spread_time(adapter, params, reference_state, removed=False)
    removed_kernel_ms = _single_spread_time(adapter, params, reference_state, removed=True)
    result.add_row(variant="spread kernel: checked", fitness_ms=checked_kernel_ms,
                   improvement=0.0, passes_fitness=True, passes_heldout=True)
    result.add_row(variant="spread kernel: checks removed", fitness_ms=removed_kernel_ms,
                   improvement=(checked_kernel_ms - removed_kernel_ms) / checked_kernel_ms,
                   passes_fitness=True, passes_heldout=False)
    result.add_row(variant="spread kernel: zero padding", fitness_ms=padded.kernel_time_ms,
                   improvement=(checked_kernel_ms - padded.kernel_time_ms) / checked_kernel_ms,
                   passes_fitness=True, passes_heldout=True)

    result.add_note("Paper reference: boundary removal ~20% improvement but segfaults on the "
                    "2500x2500 held-out grid; zero padding ~14% improvement with negligible "
                    "memory increase.")
    result.add_note("The paper also reports 31% of the diffusion kernel's instructions are "
                    "boundary-comparison logic; the equivalent measurement is the static "
                    "instruction share in tests/workloads/test_simcov.py::TestSimCovGpu::"
                    "test_boundary_logic_is_large_instruction_share.")
    return result


def _single_spread_time(adapter: SimCovWorkloadAdapter, params: SimCovParams,
                        state, removed: bool) -> float:
    """Time one launch of the virion diffusion kernel with/without checks."""
    module = adapter.original_module()
    if removed:
        module = apply_edits(module, boundary_check_removal_edits(
            adapter.kernels, kernel_names=("simcov_spread_virions",))).module
    import math

    import numpy as np

    from ..workloads.simcov.kernels import BLOCK_THREADS
    device = adapter.driver.device
    grid = max(1, math.ceil(params.cells / BLOCK_THREADS))
    virions = state.virions.copy()
    virions_next = np.zeros_like(virions)
    launch = device.launch(module, grid=grid, block=BLOCK_THREADS, args={
        "virions": virions, "virions_next": virions_next,
        "n_cells": params.cells, "width": params.width, "height": params.height,
        "diffusion": params.virion_diffusion, "decay": params.virion_decay,
    }, kernel_name="simcov_spread_virions")
    return launch.time_ms
