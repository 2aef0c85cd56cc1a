"""Figure 6: distribution of improvements across repeated GEVO runs.

The paper performs ten independent runs per workload on the P100 and plots
the per-generation speedup envelope; the reproduction performs a (much)
scaled-down version of the same protocol -- fewer and smaller runs, with
the mutation operator biased towards the recorded edit vocabulary so the
discovery dynamics fit in the available budget (see EXPERIMENTS.md) -- and
reports the per-run final speedups plus the min / mean / max statistics the
paper quotes (1.10-1.33x, mean 1.20x for ADEPT-V1; 1.18-1.35x, mean 1.28x
for SIMCoV).
"""

from __future__ import annotations

from typing import List

from ..gevo import GevoConfig, run_repeated_searches
from ..gpu import get_arch
from ..runtime import EvaluationEngine, make_executor
from ..workloads.adept import AdeptWorkloadAdapter, adept_v1_discovered_edits, search_pairs
from ..workloads.simcov import SimCovParams, SimCovWorkloadAdapter, simcov_discovered_edits
from .registry import ExperimentResult, register


def _summarise(result: ExperimentResult, workload: str, speedups: List[float],
               generations: int) -> None:
    if not speedups:
        result.add_row(workload=workload, runs=0)
        return
    result.add_row(
        workload=workload,
        runs=len(speedups),
        generations=generations,
        best=max(speedups),
        worst=min(speedups),
        mean=sum(speedups) / len(speedups),
        final_speedups=", ".join(f"{value:.3f}" for value in speedups),
    )


@register("figure6")
def figure6(runs: int = 3, population_size: int = 10, generations: int = 8,
            arch_name: str = "P100", include_simcov: bool = True,
            candidate_probability: float = 0.35, jobs: int = 1) -> ExperimentResult:
    """Reproduce (scaled) Figure 6: speedup distribution over repeated runs.

    One evaluation engine per workload is shared across the repeated runs,
    so variants rediscovered by several seeds are simulated once; with
    ``jobs > 1`` each generation is evaluated across a process pool.
    """
    arch = get_arch(arch_name)
    config = GevoConfig.quick(population_size=population_size, generations=generations)
    result = ExperimentResult(
        experiment="Figure 6",
        description="Distribution of GEVO improvements across repeated runs",
    )

    adept_adapter = AdeptWorkloadAdapter("v1", arch, fitness_cases=[search_pairs()])
    adept_candidates = adept_v1_discovered_edits(adept_adapter.kernel)
    with EvaluationEngine(adept_adapter, executor=make_executor(jobs)) as engine:
        adept_results = run_repeated_searches(
            adept_adapter, config, runs, base_seed=100,
            candidate_edits=adept_candidates, candidate_probability=candidate_probability,
            engine=engine)
    _summarise(result, "ADEPT-V1", [r.speedup for r in adept_results], generations)

    if include_simcov:
        simcov_adapter = SimCovWorkloadAdapter(arch, fitness_params=SimCovParams.quick())
        simcov_candidates = simcov_discovered_edits(simcov_adapter.kernels)
        with EvaluationEngine(simcov_adapter, executor=make_executor(jobs)) as engine:
            simcov_results = run_repeated_searches(
                simcov_adapter, config, runs, base_seed=200,
                candidate_edits=simcov_candidates, candidate_probability=candidate_probability,
                engine=engine)
        _summarise(result, "SIMCoV", [r.speedup for r in simcov_results], generations)

    result.add_note("Paper reference (10 runs, paper-scale budgets): ADEPT-V1 "
                    "1.10-1.33x mean 1.20x; SIMCoV 1.18-1.35x mean 1.28x.")
    result.add_note("Runs here are scaled down drastically (see EXPERIMENTS.md); the point "
                    "preserved is the run-to-run variation and that repeated runs pay off.")
    return result
