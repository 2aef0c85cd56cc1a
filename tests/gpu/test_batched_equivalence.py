"""Differential battery: batched launches against per-row solo launches.

``GpuDevice.launch_batched`` stacks N candidates into ``(N, lanes)``
NumPy state and must be **bit-for-bit** equivalent to launching every row
on its own: identical cycle counts, instruction and warp counts, output
buffers, seeded RNG streams, and trap outcomes (a trapped row falls back
to a solo re-run without perturbing its siblings).  Cost-model counters
and profiles are oracle reports, so a stacked row, like a solo JIT
launch, carries neither.  The battery mirrors
``test_fast_path_equivalence.py``: every workload, every architecture,
discovered and seeded-random edit sets, hypothesis-generated mixed
batches, divergent/masked rows, and the structural-key grouping the
engine's clone batching relies on.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelTrap, LaunchError
from repro.gevo import apply_edits
from repro.gevo.edits import InstructionDelete, OperandReplace
from repro.gevo.mutation import EditGenerator
from repro.gpu import EVALUATION_ORDER, GpuDevice, get_arch
from repro.gpu.batched import batchable_function
from repro.gpu.jitted import structural_module_key
from repro.ir import KernelBuilder, Param, build_module
from repro.ir.values import Const
from repro.workloads.toy import ToyWorkloadAdapter, build_toy_kernel, toy_discovered_edits


def _copy_args(args):
    return {name: (value.copy() if isinstance(value, np.ndarray) else value)
            for name, value in args.items()}


def assert_batched_equals_solo(rows, grid, block, arch, *, kernel_name=None,
                               **device_kwargs):
    """One batched launch vs per-row solo launches, everything compared."""
    batched_device = GpuDevice(arch, **device_kwargs)
    batched_args = [_copy_args(args) for _, args in rows]
    batched = batched_device.launch_batched(
        [(module, args) for (module, _), args in zip(rows, batched_args)],
        grid, block, kernel_name=kernel_name)

    solo_device = GpuDevice(arch, **device_kwargs)
    for index, (module, args) in enumerate(rows):
        solo_args = _copy_args(args)
        try:
            solo = solo_device.launch(module, grid, block, solo_args,
                                      kernel_name=kernel_name)
        except (KernelTrap, LaunchError) as error:
            outcome = batched[index]
            assert isinstance(outcome, Exception), (index, outcome)
            assert type(outcome) is type(error), index
            assert str(outcome) == str(error), index
            continue
        outcome = batched[index]
        assert not isinstance(outcome, Exception), (index, outcome)
        assert outcome.cycles == solo.cycles, index
        assert outcome.time_ms == solo.time_ms, index
        assert outcome.instructions_executed == solo.instructions_executed, index
        assert outcome.warps_executed == solo.warps_executed, index
        assert outcome.blocks_executed == solo.blocks_executed, index
        for name, value in solo_args.items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(
                    batched_args[index][name], value,
                    err_msg=f"buffer {name!r} differs on row {index}")
    return batched


def record_stacked_batches(monkeypatch):
    """Record the row count of every batch that runs stacked from now on."""
    from repro.gpu import simulator

    stacked = []
    execute_batched = simulator.execute_batched

    def recording(*args, **kwargs):
        outcome = execute_batched(*args, **kwargs)
        stacked.append(len(args[0]))
        return outcome

    monkeypatch.setattr(simulator, "execute_batched", recording)
    return stacked


def _toy_args(elements, seed=7, n=None):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=elements), "y": rng.normal(size=elements),
            "out": np.zeros(elements), "n": elements if n is None else n}


# --------------------------------------------------------------------------- grid batching
@pytest.mark.parametrize("arch_name", EVALUATION_ORDER)
def test_scalar_parameter_rows_equivalent_on_every_arch(arch_name):
    """One program, per-row scalar parameters: the SimCov fitness-grid shape.

    Different ``n`` per row drives the bounds-check CONDBR differently in
    every row, so the same batch holds uniform-taken, uniform-skipped and
    divergent rows at once.
    """
    kernel = build_toy_kernel()
    variant = apply_edits(kernel.module, toy_discovered_edits(kernel)).module
    arch = get_arch(arch_name)
    rows = [(variant, _toy_args(128, seed=row, n=n))
            for row, n in enumerate([128, 96, 1, 0, 37, 128, 64, 127])]
    assert_batched_equals_solo(rows, 2, 64, arch, kernel_name="saxpy_wasteful")


def test_simcov_fitness_batched_equivalent():
    from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    adapter = SimCovWorkloadAdapter(get_arch("P100"),
                                    fitness_params=SimCovParams.quick())
    module = adapter.original_module()
    mutated = apply_edits(module, []).module
    results = adapter.evaluate_batched([module, mutated, module])
    reference = adapter.evaluate(module)
    for result in results:
        assert result.valid == reference.valid
        assert result.runtime_ms == reference.runtime_ms
        assert [(case.name, case.passed, case.runtime_ms) for case in result.cases] \
            == [(case.name, case.passed, case.runtime_ms) for case in reference.cases]


def test_toy_adapter_batched_equivalent_on_every_arch():
    for arch_name in EVALUATION_ORDER:
        adapter = ToyWorkloadAdapter(get_arch(arch_name), elements=96)
        edits = toy_discovered_edits(adapter.kernel)
        modules = [adapter.original_module()] + [
            apply_edits(adapter.original_module(), [edit]).module
            for edit in edits]
        batched = adapter.evaluate_batched(modules)
        solo = [adapter.evaluate(module) for module in modules]
        for b, s in zip(batched, solo):
            assert b.valid == s.valid, arch_name
            assert b.runtime_ms == s.runtime_ms or (
                math.isinf(b.runtime_ms) and math.isinf(s.runtime_ms)), arch_name


# --------------------------------------------------------------------------- clone batching
def test_const_mutated_clones_share_structural_key_and_agree():
    """GEVO operand-mutation clones (same shape, different baked constants)
    group under one structural key and batch bit-for-bit."""
    kernel = build_toy_kernel()
    barrier_free = apply_edits(
        kernel.module, [InstructionDelete(kernel.edit_targets["useless_barrier"])])
    base = barrier_free.module
    scaled_uid = next(inst.uid for inst in base.instructions()
                      if inst.dest == "scaled")
    arch = get_arch("P100")
    clones = [apply_edits(base, [OperandReplace(scaled_uid, 1, Const(value))]).module
              for value in (3.0, 4.0, -1.0, 0.5)]
    keys = {structural_module_key(module, arch) for module in clones}
    assert len(keys) == 1
    assert all(batchable_function(m.get_function("saxpy_wasteful"), arch)
               for m in clones)
    rows = [(module, _toy_args(64, seed=3)) for module in clones]
    batched = assert_batched_equals_solo(rows, 1, 64, arch,
                                         kernel_name="saxpy_wasteful")
    assert all(not isinstance(outcome, Exception) for outcome in batched)


def test_mismatched_structural_keys_still_agree():
    """A batch whose rows do *not* share a structural key must fall back to
    solo launches transparently -- same results, no grouping assumptions."""
    kernel = build_toy_kernel()
    variants = [apply_edits(kernel.module, [edit]).module
                for edit in toy_discovered_edits(kernel)]
    rows = [(module, _toy_args(64, seed=5)) for module in variants]
    assert_batched_equals_solo(rows, 1, 64, get_arch("P100"),
                               kernel_name="saxpy_wasteful")


# --------------------------------------------------------------------------- random edit sets
def _random_variants(seed, count, length):
    kernel = build_toy_kernel()
    rng = random.Random(seed)
    generator = EditGenerator(kernel.module, rng)
    variants = []
    for _ in range(count):
        edits = []
        for _ in range(rng.randint(1, length)):
            edit = generator.random_edit()
            if edit is not None:
                edits.append(edit)
        variants.append(apply_edits(kernel.module, edits).module)
    return variants


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_mutant_batches_equivalent(seed):
    """Seeded random mutants -- many trap or diverge -- agree per row.

    Trapping rows mid-batch must surface their solo trap (type and
    message) while the surviving rows keep exact results and buffers.
    """
    elements = 150  # partial final warp
    rows = [(variant, _toy_args(elements, seed=seed, n=elements))
            for variant in _random_variants(seed, count=8, length=4)]
    assert_batched_equals_solo(rows, 3, 64, get_arch("P100"),
                               kernel_name="saxpy_wasteful")


@settings(max_examples=10, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=7), min_size=2,
                      max_size=6),
       elements=st.integers(min_value=1, max_value=130))
def test_hypothesis_mixed_batches_equivalent(picks, elements):
    """Hypothesis-built mixed batches: discovered variants, random mutants
    (including trapping ones) and the barrier-carrying original, stacked
    in arbitrary multiplicity and order."""
    kernel = build_toy_kernel()
    edits = toy_discovered_edits(kernel)
    pool = ([kernel.module]
            + [apply_edits(kernel.module, [edit]).module for edit in edits]
            + _random_variants(11, count=4, length=3))
    grid = max(1, math.ceil(elements / 64))
    rows = [(pool[pick], _toy_args(elements, seed=pick, n=elements))
            for pick in picks]
    assert_batched_equals_solo(rows, grid, 64, get_arch("P100"),
                               kernel_name="saxpy_wasteful")


def test_trap_mid_batch_leaves_siblings_exact():
    """An out-of-bounds row traps alone; its siblings match solo runs."""
    kernel = build_toy_kernel()
    variant = apply_edits(kernel.module, toy_discovered_edits(kernel)).module
    good = _toy_args(64, seed=1, n=64)
    bad = dict(_toy_args(8, seed=2), n=256)  # guaranteed OOB
    rows = [(variant, good), (variant, bad), (variant, good)]
    batched = assert_batched_equals_solo(rows, 1, 64, get_arch("P100"),
                                         kernel_name="saxpy_wasteful")
    assert isinstance(batched[1], KernelTrap)
    assert "out-of-bounds" in str(batched[1])
    assert not isinstance(batched[0], Exception)
    assert not isinstance(batched[2], Exception)


# --------------------------------------------------------------------------- atomics
@pytest.mark.parametrize("opcode", ["atomic.add", "atomic.max"])
def test_full_warp_unique_address_atomics_batch_equivalent(monkeypatch, opcode):
    """Full warps with unique addresses take the vectorised atomic path
    (no per-lane loop) and still match every row's solo launch."""
    from .test_fast_path_equivalence import build_atomic_kernel

    stacked = record_stacked_batches(monkeypatch)
    rng = np.random.default_rng(17)
    module = build_atomic_kernel(opcode)
    rows = [(module,
             {"values": rng.normal(size=32), "operand": rng.normal(size=32),
              "addresses": rng.permutation(32).astype(np.float64),
              "old": np.zeros(32), "n": 32})
            for _ in range(3)]
    batched = assert_batched_equals_solo(rows, 1, 32, get_arch("P100"),
                                         kernel_name="atomick")
    assert all(not isinstance(outcome, Exception) for outcome in batched)
    assert stacked == [3]


# --------------------------------------------------------------------------- RNG parity
def test_rand_uniform_streams_equivalent_per_row():
    """Counter-based RNG draws stay per-candidate streams: rows with
    different seed scalars batch into one launch and still reproduce
    their solo streams exactly."""
    b = KernelBuilder("randk", params=[Param("out", "buffer"),
                                       Param("seed", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    draw = b.rand_uniform(b.reg("seed"), tid, 3)
    b.store(b.reg("out"), tid, draw)
    b.ret()
    module = build_module("randm", b.build())
    rows = [(module, {"out": np.zeros(32), "seed": seed})
            for seed in (11, 12, 13, 11)]
    batched = assert_batched_equals_solo(rows, 1, 32, get_arch("P100"),
                                         kernel_name="randk")
    assert all(not isinstance(outcome, Exception) for outcome in batched)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_scalar_row_batches_equivalent(monkeypatch):
    """A row with an ``inf`` scalar stacks with a fractional row (both are
    float64 under the shared dtype rule) and matches its solo launch; the
    integral-dtype test used to raise out of ``launch_batched``."""
    from .test_fast_path_equivalence import build_scalar_module

    stacked = record_stacked_batches(monkeypatch)
    module = build_scalar_module()
    x = np.random.default_rng(5).normal(size=32)
    rows = [(module, {"x": x, "out": np.zeros(32), "low": np.zeros(32), "s": s})
            for s in (1.5, math.inf)]
    batched = assert_batched_equals_solo(rows, 1, 32, get_arch("P100"),
                                         kernel_name="scalark")
    assert all(not isinstance(outcome, Exception) for outcome in batched)
    assert stacked == [2]
    # Stacked rows are JIT results: no counters, an empty profile.
    assert all(outcome.counters == {} and not outcome.profile.instructions
               for outcome in batched)


# --------------------------------------------------------------------------- tier interplay
def test_oracle_tier_batches_fall_back_to_solo():
    """A non-JIT device still honours the batched entry point (solo runs),
    and its rows carry the oracle's reports."""
    kernel = build_toy_kernel()
    rows = [(kernel.module, _toy_args(64, seed=4)) for _ in range(3)]
    batched = assert_batched_equals_solo(rows, 1, 64, get_arch("P100"),
                                         kernel_name="saxpy_wasteful",
                                         fast_path="oracle")
    assert all(outcome.counters and outcome.profile.instructions
               for outcome in batched)


def test_cost_override_arch_batches_equivalent():
    """Memory cost overrides flip loads/stores to static pricing; the
    batched path must price them identically (here: by refusing to batch
    and reproducing the solo results)."""
    arch = get_arch("P100").with_overrides(cost_overrides={"load": 7})
    kernel = build_toy_kernel()
    variant = apply_edits(kernel.module, toy_discovered_edits(kernel)).module
    rows = [(variant, _toy_args(96, seed=row, n=n))
            for row, n in enumerate([96, 40, 96])]
    assert_batched_equals_solo(rows, 2, 64, arch, kernel_name="saxpy_wasteful")
    # The override's evidence is an oracle report.
    oracle = GpuDevice(arch, fast_path="oracle").launch(
        variant, 2, 64, _copy_args(rows[0][1]), kernel_name="saxpy_wasteful")
    assert oracle.counters["override_cycles"] > 0
