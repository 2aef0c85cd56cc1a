"""Figure 4: ADEPT performance on the three GPU generations.

For each architecture the experiment measures the simulated kernel runtime
of ADEPT-V0, ADEPT-V0 + the GEVO-discovered edits, ADEPT-V1 and ADEPT-V1 +
the GEVO-discovered edits, and reports the speedups normalised to ADEPT-V0
(the paper's normalisation) as well as the V1-relative speedup of the V1
GEVO variant (the headline 1.28x / 1.31x / 1.17x numbers).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..gevo import apply_edits
from ..gpu import EVALUATION_ORDER, get_arch
from ..workloads.adept import (
    AdeptWorkloadAdapter,
    adept_v0_discovered_edits,
    adept_v1_discovered_edits,
    search_pairs,
)
from .registry import ExperimentResult, register


def _measure_version(version: str, arch_name: str, pairs) -> Dict[str, float]:
    """Baseline and GEVO-optimized runtime of one ADEPT version on one GPU."""
    adapter = AdeptWorkloadAdapter(version, get_arch(arch_name), fitness_cases=[list(pairs)])
    baseline = adapter.baseline()
    if version == "v0":
        edits = adept_v0_discovered_edits(adapter.kernel)
    else:
        edits = adept_v1_discovered_edits(adapter.kernel)
    optimized_module = apply_edits(adapter.original_module(), edits).module
    optimized = adapter.evaluate(optimized_module)
    return {
        "baseline_ms": baseline.runtime_ms,
        "gevo_ms": optimized.runtime_ms,
        "baseline_valid": baseline.valid,
        "gevo_valid": optimized.valid,
    }


@register("figure4")
def figure4(architectures: Optional[Sequence[str]] = None,
            pairs=None) -> ExperimentResult:
    """Reproduce Figure 4 (scaled pair set: :func:`search_pairs`)."""
    architectures = list(architectures or EVALUATION_ORDER)
    pairs = list(pairs) if pairs is not None else search_pairs()
    result = ExperimentResult(
        experiment="Figure 4",
        description="ADEPT speedups normalised to ADEPT-V0 on each GPU",
    )
    for arch_name in architectures:
        v0 = _measure_version("v0", arch_name, pairs)
        v1 = _measure_version("v1", arch_name, pairs)
        v0_time = v0["baseline_ms"]
        result.add_row(
            gpu=arch_name,
            adept_v0_ms=v0_time,
            speedup_v0=1.0,
            speedup_v0_gevo=v0_time / v0["gevo_ms"],
            speedup_v1=v0_time / v1["baseline_ms"],
            speedup_v1_gevo=v0_time / v1["gevo_ms"],
            v1_gevo_over_v1=v1["baseline_ms"] / v1["gevo_ms"],
            all_valid=all([v0["baseline_valid"], v0["gevo_valid"],
                           v1["baseline_valid"], v1["gevo_valid"]]),
        )
    result.add_note("Paper reference: V0-GEVO 32.8x/32x/18.4x over V0; "
                    "V1-GEVO 1.28x/1.31x/1.17x over V1 (P100/1080Ti/V100).")
    result.add_note("Runtimes come from the simulator's cycle model on a scaled synthetic "
                    "pair set; compare shapes and ratios, not absolute milliseconds.")
    return result
