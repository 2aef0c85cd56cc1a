"""A tiny self-contained workload for experimentation, tests and the quickstart.

The kernel computes ``out[i] = 3 * x[i] + y[i]`` but -- like the naive
codes the paper studies -- carries obvious inefficiencies: a redundant
re-load of ``x[i]``, a defensive ``__syncthreads`` that synchronises
nothing, and a recomputation of an already-available value.  GEVO can find
all three with single deletion edits, which makes this workload ideal for
demonstrating the full pipeline (search, minimization, epistasis analysis)
in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import KernelTrap, LaunchError
from ..gevo.edits import Edit, InstructionDelete
from ..gevo.fitness import CaseResult, FitnessResult, WorkloadAdapter
from ..gpu import GpuArch, GpuDevice, P100
from ..ir import KernelBuilder, Module, Param, build_module


@dataclass
class ToyKernel:
    """The built toy kernel plus its deliberately wasteful instruction uids."""

    module: Module
    edit_targets: Dict[str, int]


def build_toy_kernel() -> ToyKernel:
    """Build the ``saxpy_wasteful`` kernel."""
    targets: Dict[str, int] = {}
    b = KernelBuilder(
        "saxpy_wasteful",
        params=[Param("x", "buffer"), Param("y", "buffer"),
                Param("out", "buffer"), Param("n", "scalar")],
        source_file="saxpy_wasteful.cu",
    )
    b.block("entry")
    b.loc(3)
    tid = b.tid_x(dest="tid")
    bid = b.bid_x(dest="bid")
    bdim = b.bdim_x(dest="bdim")
    gid = b.add(b.mul(bid, bdim), tid, dest="gid")
    in_bounds = b.lt(gid, b.reg("n"), dest="in_bounds")
    with b.if_then(in_bounds):
        b.loc(6)
        xv = b.load(b.reg("x"), gid, dest="xv")
        # Waste #1: reload the same element (result unused).
        b.load(b.reg("x"), gid, dest="xv_again")
        targets["redundant_load"] = b.last_emitted.uid
        yv = b.load(b.reg("y"), gid, dest="yv")
        # Waste #2: a barrier that synchronises nothing.
        b.syncthreads()
        targets["useless_barrier"] = b.last_emitted.uid
        scaled = b.mul(xv, 3, dest="scaled")
        # Waste #3: recompute the scaled value (result unused).
        b.mul(xv, 3, dest="scaled_again")
        targets["recomputation"] = b.last_emitted.uid
        total = b.add(scaled, yv, dest="total")
        b.store(b.reg("out"), gid, total)
    b.ret()
    return ToyKernel(module=build_module("toy", b.build()), edit_targets=targets)


def toy_discovered_edits(kernel: ToyKernel) -> List[Edit]:
    """The three independent deletion edits GEVO finds on the toy kernel."""
    return [InstructionDelete(uid) for uid in kernel.edit_targets.values()]


class ToyWorkloadAdapter(WorkloadAdapter):
    """Minimal :class:`WorkloadAdapter`: fitness = runtime, validity = exact output."""

    def __init__(self, arch: GpuArch = P100, elements: int = 256, seed: int = 3):
        self.arch = arch
        # Searches never read launch profiles (emit_module_hotspots turns
        # profiling on for its one evaluation).
        self.device = GpuDevice(arch, profile=False)
        self.kernel = build_toy_kernel()
        rng = np.random.default_rng(seed)
        self.x = rng.normal(size=elements)
        self.y = rng.normal(size=elements)
        self.expected = 3.0 * self.x + self.y
        self.elements = elements
        self.name = f"toy saxpy on {arch.name}"

    def original_module(self) -> Module:
        return self.kernel.module

    def evaluate(self, module: Module) -> FitnessResult:
        out = np.zeros(self.elements)
        blocks = max(1, math.ceil(self.elements / 64))
        try:
            launch = self.device.launch(module, grid=blocks, block=64,
                                        args={"x": self.x, "y": self.y,
                                              "out": out, "n": self.elements},
                                        kernel_name="saxpy_wasteful")
        except (KernelTrap, LaunchError) as exc:
            return FitnessResult.from_cases(
                [CaseResult("saxpy", False, math.inf, str(exc))])
        passed = bool(np.allclose(out, self.expected))
        message = "" if passed else "output differs from 3*x + y"
        return FitnessResult.from_cases(
            [CaseResult("saxpy", passed, launch.time_ms, message)])

    def evaluate_batched(self, modules: List[Module]) -> List[FitnessResult]:
        """Fitness of N co-batchable variants in one stacked pass.

        Bit-for-bit equivalent to mapping :meth:`evaluate` over *modules*
        (the original kernel's barrier keeps it on the solo fallback;
        barrier-deleting variants take the batched path).
        """
        blocks = max(1, math.ceil(self.elements / 64))
        outs = [np.zeros(self.elements) for _ in modules]
        rows = [(module, {"x": self.x, "y": self.y, "out": out, "n": self.elements})
                for module, out in zip(modules, outs)]
        outcomes = self.device.launch_batched(rows, grid=blocks, block=64,
                                              kernel_name="saxpy_wasteful")
        results = []
        for outcome, out in zip(outcomes, outs):
            if isinstance(outcome, Exception):
                results.append(FitnessResult.from_cases(
                    [CaseResult("saxpy", False, math.inf, str(outcome))]))
                continue
            passed = bool(np.allclose(out, self.expected))
            message = "" if passed else "output differs from 3*x + y"
            results.append(FitnessResult.from_cases(
                [CaseResult("saxpy", passed, outcome.time_ms, message)]))
        return results
