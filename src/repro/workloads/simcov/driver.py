"""Host-side driver and GEVO adapter for the SIMCoV workload.

The driver owns the simulation state arrays, launches the eight kernels in
order for every time step (with the buffer swaps the double-buffered
kernels require), and accumulates the total simulated kernel time, which is
GEVO's fitness.  The device is configured with the unified global-memory
arena so that slightly out-of-bounds accesses behave like they do on real
CUDA hardware (read a neighbouring allocation) -- the behaviour the
boundary-check study of Section VI-D depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...errors import KernelTrap, LaunchError
from ...gevo.fitness import CaseResult, FitnessResult, WorkloadAdapter
from ...gpu import GpuArch, GpuDevice, P100
from ...ir import Module
from .kernels import SimCovKernels, build_simcov_kernels
from .params import SimCovParams
from .reference import run_reference
from .state import SimCovState
from .validation import states_close

#: Guard region (in elements) of the simulated device allocator.  Chosen so
#: that the fitness grid's out-of-bounds rows stay inside mapped memory
#: while the wider validation grid's do not (Section VI-D).
ARENA_GUARD_ELEMENTS = 24


@dataclass
class SimCovRunResult:
    """Result of one GPU SIMCoV run."""

    state: SimCovState
    kernel_time_ms: float
    launches: int
    stats: np.ndarray
    summaries: List[Dict[str, float]] = field(default_factory=list)


class SimCovDriver:
    """Launches the SIMCoV kernels over a simulation."""

    def __init__(self, kernels: Optional[SimCovKernels] = None,
                 device: Optional[GpuDevice] = None, arch: GpuArch = P100):
        self.kernels = kernels or build_simcov_kernels()
        self.device = device or GpuDevice(
            arch, unified_memory_arena=True,
            arena_guard_elements=ARENA_GUARD_ELEMENTS)

    # -- execution -------------------------------------------------------------------
    def run(self, params: SimCovParams, module: Optional[Module] = None,
            record_summaries: bool = False) -> SimCovRunResult:
        """Run the simulation described by *params* using *module*."""
        module = module if module is not None else self.kernels.module
        state = SimCovState.initial(params)
        grid = max(1, math.ceil(params.cells / self.kernels.block_threads))
        block = self.kernels.block_threads
        total_time = 0.0
        launches = 0
        stats = np.zeros(4, dtype=np.float64)
        summaries: List[Dict[str, float]] = []

        def launch(kernel_name: str, args: Dict[str, object]) -> None:
            nonlocal total_time, launches
            result = self.device.launch(module, grid=grid, block=block, args=args,
                                        kernel_name=kernel_name)
            total_time += result.time_ms
            launches += 1

        sites = params.infection_cells()
        launch("simcov_init", {
            "epithelial": state.epithelial, "timer": state.timer,
            "virions": state.virions, "chemokine": state.chemokine,
            "tcells": state.tcells, "n_cells": params.cells,
            "site_a": sites[0], "site_b": sites[-1],
            "initial_virions": params.initial_virions,
        })

        for step_index in range(params.steps):
            launch("simcov_extravasate", {
                "tcells": state.tcells, "chemokine": state.chemokine,
                "n_cells": params.cells, "seed": params.seed, "step": step_index,
                "threshold": params.chemokine_extravasate_threshold,
                "probability": params.extravasate_probability,
            })
            state.tcells_next[:] = 0.0
            launch("simcov_move_tcells", {
                "tcells": state.tcells, "tcells_next": state.tcells_next,
                "n_cells": params.cells, "width": params.width, "height": params.height,
                "seed": params.seed, "step": step_index,
            })
            state.swap_tcell_buffers()
            launch("simcov_update_epithelial", {
                "epithelial": state.epithelial, "timer": state.timer,
                "virions": state.virions, "tcells": state.tcells,
                "n_cells": params.cells,
                "infect_threshold": params.infectivity_threshold,
                "incubation_period": params.incubation_period,
                "apoptosis_period": params.apoptosis_period,
            })
            launch("simcov_produce", {
                "epithelial": state.epithelial, "virions": state.virions,
                "chemokine": state.chemokine, "n_cells": params.cells,
                "virion_production": params.virion_production,
                "chemokine_production": params.chemokine_production,
            })
            for _ in range(params.diffusion_substeps):
                launch("simcov_spread_virions", {
                    "virions": state.virions, "virions_next": state.virions_next,
                    "n_cells": params.cells, "width": params.width, "height": params.height,
                    "diffusion": params.virion_diffusion, "decay": params.virion_decay,
                })
                launch("simcov_spread_chemokine", {
                    "chemokine": state.chemokine, "chemokine_next": state.chemokine_next,
                    "n_cells": params.cells, "width": params.width, "height": params.height,
                    "diffusion": params.chemokine_diffusion, "decay": params.chemokine_decay,
                })
                state.swap_diffusion_buffers()
            # The application samples its observables once per reporting
            # interval, not every step; launch the reduction on the last step.
            if step_index == params.steps - 1:
                stats[:] = 0.0
                launch("simcov_statistics", {
                    "virions": state.virions, "chemokine": state.chemokine,
                    "tcells": state.tcells, "epithelial": state.epithelial,
                    "stats": stats, "n_cells": params.cells,
                })
            state.step += 1
            if record_summaries:
                summaries.append(state.summary())

        return SimCovRunResult(state=state, kernel_time_ms=total_time,
                               launches=launches, stats=stats, summaries=summaries)

    def run_batched(self, rows) -> List[object]:
        """Run N independent simulations in lockstep batched launches.

        ``rows`` is a sequence of ``(params, module)`` pairs (``module``
        may be ``None`` for the unmutated kernels).  When every row
        shares the launch geometry (grid size, step and substep counts),
        the per-step kernel sequences align and each of the launch
        points becomes one :meth:`GpuDevice.launch_batched` call over
        the still-running rows; rows whose launch traps drop out of the
        batch with their exception recorded and do not perturb siblings.
        Returns one entry per row, in order: a :class:`SimCovRunResult`
        or the :class:`KernelTrap` / :class:`LaunchError` the solo run
        would have raised.
        """
        rows = list(rows)
        outcomes: List[object] = [None] * len(rows)
        first = rows[0][0] if rows else None
        aligned = len(rows) >= 2 and all(
            p.cells == first.cells and p.width == first.width
            and p.height == first.height and p.steps == first.steps
            and p.diffusion_substeps == first.diffusion_substeps
            for p, _ in rows)
        if not aligned:
            for index, (params, module) in enumerate(rows):
                outcomes[index] = self._run_or_error(params, module)
            return outcomes

        modules = [module if module is not None else self.kernels.module
                   for _, module in rows]
        all_params = [params for params, _ in rows]
        states = [SimCovState.initial(params) for params in all_params]
        grid = max(1, math.ceil(first.cells / self.kernels.block_threads))
        block = self.kernels.block_threads
        total_time = [0.0] * len(rows)
        launches = [0] * len(rows)
        stats = [np.zeros(4, dtype=np.float64) for _ in rows]
        active = list(range(len(rows)))

        def launch(kernel_name: str, args_of) -> None:
            nonlocal active
            if not active:
                return
            results = self.device.launch_batched(
                [(modules[index], args_of(index)) for index in active],
                grid=grid, block=block, kernel_name=kernel_name)
            survivors = []
            for index, result in zip(active, results):
                if isinstance(result, Exception):
                    outcomes[index] = result
                else:
                    total_time[index] += result.time_ms
                    launches[index] += 1
                    survivors.append(index)
            active = survivors

        sites = [params.infection_cells() for params in all_params]
        launch("simcov_init", lambda i: {
            "epithelial": states[i].epithelial, "timer": states[i].timer,
            "virions": states[i].virions, "chemokine": states[i].chemokine,
            "tcells": states[i].tcells, "n_cells": all_params[i].cells,
            "site_a": sites[i][0], "site_b": sites[i][-1],
            "initial_virions": all_params[i].initial_virions,
        })

        for step_index in range(first.steps):
            launch("simcov_extravasate", lambda i: {
                "tcells": states[i].tcells, "chemokine": states[i].chemokine,
                "n_cells": all_params[i].cells, "seed": all_params[i].seed,
                "step": step_index,
                "threshold": all_params[i].chemokine_extravasate_threshold,
                "probability": all_params[i].extravasate_probability,
            })
            for index in active:
                states[index].tcells_next[:] = 0.0
            launch("simcov_move_tcells", lambda i: {
                "tcells": states[i].tcells, "tcells_next": states[i].tcells_next,
                "n_cells": all_params[i].cells, "width": all_params[i].width,
                "height": all_params[i].height,
                "seed": all_params[i].seed, "step": step_index,
            })
            for index in active:
                states[index].swap_tcell_buffers()
            launch("simcov_update_epithelial", lambda i: {
                "epithelial": states[i].epithelial, "timer": states[i].timer,
                "virions": states[i].virions, "tcells": states[i].tcells,
                "n_cells": all_params[i].cells,
                "infect_threshold": all_params[i].infectivity_threshold,
                "incubation_period": all_params[i].incubation_period,
                "apoptosis_period": all_params[i].apoptosis_period,
            })
            launch("simcov_produce", lambda i: {
                "epithelial": states[i].epithelial, "virions": states[i].virions,
                "chemokine": states[i].chemokine, "n_cells": all_params[i].cells,
                "virion_production": all_params[i].virion_production,
                "chemokine_production": all_params[i].chemokine_production,
            })
            for _ in range(first.diffusion_substeps):
                launch("simcov_spread_virions", lambda i: {
                    "virions": states[i].virions,
                    "virions_next": states[i].virions_next,
                    "n_cells": all_params[i].cells, "width": all_params[i].width,
                    "height": all_params[i].height,
                    "diffusion": all_params[i].virion_diffusion,
                    "decay": all_params[i].virion_decay,
                })
                launch("simcov_spread_chemokine", lambda i: {
                    "chemokine": states[i].chemokine,
                    "chemokine_next": states[i].chemokine_next,
                    "n_cells": all_params[i].cells, "width": all_params[i].width,
                    "height": all_params[i].height,
                    "diffusion": all_params[i].chemokine_diffusion,
                    "decay": all_params[i].chemokine_decay,
                })
                for index in active:
                    states[index].swap_diffusion_buffers()
            if step_index == first.steps - 1:
                for index in active:
                    stats[index][:] = 0.0
                launch("simcov_statistics", lambda i: {
                    "virions": states[i].virions, "chemokine": states[i].chemokine,
                    "tcells": states[i].tcells, "epithelial": states[i].epithelial,
                    "stats": stats[i], "n_cells": all_params[i].cells,
                })
            for index in active:
                states[index].step += 1

        for index in active:
            outcomes[index] = SimCovRunResult(
                state=states[index], kernel_time_ms=total_time[index],
                launches=launches[index], stats=stats[index], summaries=[])
        return outcomes

    def _run_or_error(self, params: SimCovParams, module: Optional[Module]):
        try:
            return self.run(params, module=module)
        except (KernelTrap, LaunchError) as exc:
            return exc


class SimCovWorkloadAdapter(WorkloadAdapter):
    """GEVO adapter: fitness = total kernel time, validity = tolerance check.

    The fitness run uses the small grid (the stand-in for the paper's
    100x100 fitness grid); :meth:`validate` re-runs the variant on the
    larger held-out grid, where unsafe out-of-bounds optimizations fault.
    """

    def __init__(self, arch: GpuArch = P100,
                 fitness_params: Optional[SimCovParams] = None,
                 validation_params: Optional[SimCovParams] = None,
                 relative_tolerance: float = 0.15):
        self.arch = arch
        self.driver = SimCovDriver(arch=arch)
        self.fitness_params = fitness_params or SimCovParams.fitness()
        self.validation_params = validation_params or SimCovParams.validation()
        self.relative_tolerance = relative_tolerance
        self.name = f"SIMCoV on {arch.name}"
        self._reference_fitness = run_reference(self.fitness_params)
        self._reference_validation = run_reference(self.validation_params)

    # -- WorkloadAdapter interface ----------------------------------------------------
    def original_module(self) -> Module:
        return self.driver.kernels.module

    @property
    def kernels(self) -> SimCovKernels:
        return self.driver.kernels

    @property
    def device(self) -> GpuDevice:
        """The driver's device (what :func:`emit_module_hotspots` runs on)."""
        return self.driver.device

    def evaluate(self, module: Module) -> FitnessResult:
        case = self._run_case(module, self.fitness_params, self._reference_fitness,
                              name="fitness-grid")
        return FitnessResult.from_cases([case])

    def evaluate_batched(self, modules) -> List[FitnessResult]:
        """Fitness of N co-batchable variants in one stacked pass.

        Bit-for-bit equivalent to mapping :meth:`evaluate` over
        *modules* (the batched launch path falls back to solo runs for
        anything it cannot reproduce exactly, including trapped rows).
        """
        outcomes = self.driver.run_batched(
            [(self.fitness_params, module) for module in modules])
        return [FitnessResult.from_cases([self._case_from_outcome(
                    outcome, self._reference_fitness, "fitness-grid")])
                for outcome in outcomes]

    def validate(self, module: Module) -> FitnessResult:
        case = self._run_case(module, self.validation_params, self._reference_validation,
                              name="held-out-grid")
        return FitnessResult.from_cases([case])

    # -- helpers -----------------------------------------------------------------------
    def _run_case(self, module: Module, params: SimCovParams,
                  reference: SimCovState, name: str) -> CaseResult:
        try:
            result = self.driver.run(params, module=module)
        except (KernelTrap, LaunchError) as exc:
            # Built here: a local holding the trap would form a cycle
            # through its traceback, which holds this frame.
            return self._case_from_outcome(exc, reference, name)
        return self._case_from_outcome(result, reference, name)

    def _case_from_outcome(self, outcome, reference: SimCovState,
                           name: str) -> CaseResult:
        if isinstance(outcome, Exception):
            return CaseResult(name=name, passed=False, runtime_ms=math.inf,
                              message=str(outcome))
        ok, report = states_close(outcome.state, reference, self.relative_tolerance)
        if ok:
            return CaseResult(name=name, passed=True, runtime_ms=outcome.kernel_time_ms)
        worst = max(report, key=report.get)
        return CaseResult(
            name=name, passed=False, runtime_ms=outcome.kernel_time_ms,
            message=(f"output deviates from the fixed-seed ground truth: field {worst!r} "
                     f"relative error {report[worst]:.3f} exceeds {self.relative_tolerance}"))
