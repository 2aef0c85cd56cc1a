"""Host-side driver and GEVO adapter for the ADEPT workload.

The driver plays the role of ADEPT's host code after the paper's
modification: it owns the device buffers, launches the (possibly
GEVO-modified) kernel module, and checks results against the CPU
Smith-Waterman reference.  The :class:`AdeptWorkloadAdapter` wraps this as
the :class:`~repro.gevo.fitness.WorkloadAdapter` interface used by the
GEVO search, the baselines and the analysis algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...errors import KernelTrap, LaunchError, ValidationError
from ...gevo.fitness import CaseResult, FitnessResult, WorkloadAdapter
from ...gpu import GpuArch, GpuDevice, P100
from ...ir import Module
from .kernel_v0 import build_adept_v0
from .kernel_v1 import AdeptKernel, build_adept_v1, _round_up_to_warp
from .sequences import EncodedBatch, SequencePair, encode_batch, fitness_pairs, heldout_pairs
from .smith_waterman import batch_alignment_scores


@dataclass
class AdeptRunResult:
    """Result of aligning one batch on the simulated GPU."""

    scores: np.ndarray
    best_score: int
    kernel_time_ms: float
    launch_results: List[object]


class AdeptDriver:
    """Launches an ADEPT kernel module over a batch of sequence pairs."""

    def __init__(self, kernel: AdeptKernel, device: Optional[GpuDevice] = None):
        self.kernel = kernel
        self.device = device or GpuDevice(P100)

    @classmethod
    def for_version(cls, version: str, pairs: Sequence[SequencePair],
                    device: Optional[GpuDevice] = None,
                    warp_size: int = 32) -> "AdeptDriver":
        """Build the kernel sized for *pairs* and wrap it in a driver."""
        batch = encode_batch(pairs)
        block_threads = _round_up_to_warp(batch.max_query_length, warp_size)
        if version == "v0":
            kernel = build_adept_v0(block_threads, batch.max_reference_length, warp_size)
        elif version == "v1":
            kernel = build_adept_v1(block_threads, batch.max_reference_length, warp_size)
        else:
            raise ValidationError(f"unknown ADEPT version {version!r} (expected 'v0' or 'v1')")
        return cls(kernel, device)

    # -- execution -------------------------------------------------------------------
    def run(self, pairs: Sequence[SequencePair],
            module: Optional[Module] = None) -> AdeptRunResult:
        """Align *pairs* using *module* (defaults to the unmodified kernel)."""
        module = module if module is not None else self.kernel.module
        batch = encode_batch(pairs)
        if batch.max_query_length > self.kernel.block_threads:
            raise LaunchError(
                f"batch contains a query of length {batch.max_query_length} but the kernel "
                f"was built for at most {self.kernel.block_threads} threads per block")
        if batch.max_reference_length > self.kernel.max_reference_length:
            raise LaunchError(
                f"batch contains a reference of length {batch.max_reference_length} but the "
                f"kernel caches at most {self.kernel.max_reference_length} characters")
        scores = np.zeros(batch.pair_count, dtype=np.int64)
        args = self._kernel_args(batch, scores)
        launches = []
        main = self.device.launch(module, grid=batch.pair_count,
                                  block=self.kernel.block_threads, args=args,
                                  kernel_name=self.kernel.main_kernel_name)
        launches.append(main)
        total_time = main.time_ms
        best_score = int(scores.max()) if scores.size else 0
        if "adept_v1_reduce" in module.function_order():
            best_out = np.zeros(1, dtype=np.int64)
            reduce_launch = self.device.launch(
                module, grid=1, block=64,
                args={"scores": scores, "best_out": best_out,
                      "n_pairs": batch.pair_count},
                kernel_name="adept_v1_reduce")
            launches.append(reduce_launch)
            total_time += reduce_launch.time_ms
            best_score = int(best_out[0])
        return AdeptRunResult(scores=scores, best_score=best_score,
                              kernel_time_ms=total_time, launch_results=launches)

    @staticmethod
    def _kernel_args(batch: EncodedBatch, scores: np.ndarray) -> Dict[str, object]:
        return {
            "seq_a": batch.seq_a, "seq_b": batch.seq_b,
            "offsets_a": batch.offsets_a, "offsets_b": batch.offsets_b,
            "lens_a": batch.lengths_a, "lens_b": batch.lengths_b,
            "scores": scores,
        }


class AdeptWorkloadAdapter(WorkloadAdapter):
    """GEVO adapter: fitness = kernel time, validity = 100% score accuracy."""

    def __init__(self, version: str = "v1",
                 arch: GpuArch = P100,
                 fitness_cases: Optional[Sequence[Sequence[SequencePair]]] = None,
                 validation_pairs: Optional[Sequence[SequencePair]] = None,
                 device: Optional[GpuDevice] = None):
        self.version = version
        self.arch = arch
        self.device = device or GpuDevice(arch)
        if fitness_cases is None:
            pairs = fitness_pairs()
            # Two fitness cases with different length regimes (single- and
            # multi-warp blocks), mirroring the paper's multiple test cases.
            fitness_cases = [pairs[: len(pairs) // 2], pairs[len(pairs) // 2:]]
        self.fitness_cases: List[List[SequencePair]] = [list(case) for case in fitness_cases]
        self.validation_pairs = list(validation_pairs) if validation_pairs is not None \
            else heldout_pairs()
        all_pairs = [pair for case in self.fitness_cases for pair in case] + self.validation_pairs
        self.driver = AdeptDriver.for_version(version, all_pairs, self.device)
        # Indexed like fitness_cases: object ids would not survive pickling
        # the adapter to a process-pool worker.
        self._expected = [batch_alignment_scores(case) for case in self.fitness_cases]
        self._expected_validation = batch_alignment_scores(self.validation_pairs)
        self.name = f"ADEPT-{version.upper()} on {self.arch.name}"

    # -- WorkloadAdapter interface ----------------------------------------------------
    def original_module(self) -> Module:
        return self.driver.kernel.module

    @property
    def kernel(self) -> AdeptKernel:
        return self.driver.kernel

    def evaluate(self, module: Module) -> FitnessResult:
        cases = []
        for index, case_pairs in enumerate(self.fitness_cases):
            cases.append(self._run_case(module, case_pairs, self._expected[index],
                                        name=f"fitness-{index}"))
        return FitnessResult.from_cases(cases)

    def validate(self, module: Module) -> FitnessResult:
        case = self._run_case(module, self.validation_pairs,
                              self._expected_validation, name="held-out")
        return FitnessResult.from_cases([case])

    # -- helpers -----------------------------------------------------------------------
    def _run_case(self, module: Module, pairs: Sequence[SequencePair],
                  expected: np.ndarray, name: str) -> CaseResult:
        try:
            result = self.driver.run(pairs, module=module)
        except (KernelTrap, LaunchError) as exc:
            return CaseResult(name=name, passed=False, runtime_ms=math.inf, message=str(exc))
        if np.array_equal(result.scores, expected):
            return CaseResult(name=name, passed=True, runtime_ms=result.kernel_time_ms)
        mismatches = int(np.count_nonzero(result.scores != expected))
        return CaseResult(
            name=name, passed=False, runtime_ms=result.kernel_time_ms,
            message=f"{mismatches}/{len(expected)} alignment scores differ from the "
                    "CPU Smith-Waterman reference")
