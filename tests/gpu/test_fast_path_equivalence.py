"""Differential battery: the segment JIT against the oracle.

The exec-compiled segment JIT (:mod:`repro.gpu.jitted`) must be
**bit-for-bit** equivalent to the tree-walking reference interpreter:
identical cycle counts, instruction and warp counts, output buffers,
seeded RNG streams and trap messages.  Cost-model counters and
per-instruction profiles are oracle reports -- a JIT launch returns
neither -- so every counter-evidence check reads the oracle's launch.
Everything cached in a persisted :class:`FitnessResult` depends on this,
so the battery runs the two tiers against each other on every workload
(toy, ADEPT-V0/V1, SIMCoV), on every architecture, and on seeded random
edit sets that exercise divergence, partial warps, traps and degenerate
control flow.  The steps the JIT leaves to the oracle (atomics, the
segment that straddles the instruction budget) are checked to stay off
the hot path.  The JIT's process-wide access memo is checked by
launching twice on one device (the second launch runs on memo hits),
and its segment-local registers by kernels whose temporaries other
lanes or other blocks read.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelTrap, LaunchError
from repro.gevo import apply_edits
from repro.gevo.mutation import EditGenerator
from repro.gpu import EVALUATION_ORDER, INTERPRETER_TIERS, GpuDevice, get_arch
from repro.workloads.toy import ToyWorkloadAdapter, build_toy_kernel, toy_discovered_edits

#: Oracle first: the comparisons below treat position 0 as the reference.
TIERS = tuple(INTERPRETER_TIERS)


def launch_outcome(device, module, grid, block, args, kernel_name=None):
    """Launch once on fresh buffer copies: ``("ok", result, buffers)`` or
    ``("error", error type, message)``."""
    copies = {name: (value.copy() if isinstance(value, np.ndarray) else value)
              for name, value in args.items()}
    try:
        result = device.launch(module, grid, block, copies, kernel_name=kernel_name)
    except (KernelTrap, LaunchError) as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result, copies)


def launch_tiers(module, grid, block, args, arch, *, kernel_name=None,
                 tiers=TIERS, **device_kwargs):
    """Launch on every tier (fresh buffer copies) and return the outcomes."""
    return {tier: launch_outcome(GpuDevice(arch, fast_path=tier, **device_kwargs),
                                 module, grid, block, args, kernel_name)
            for tier in tiers}


def assert_same_outcome(candidate, reference, tier):
    """One launch outcome equals the oracle's: the trap, or the cycles,
    time, instruction and warp counts and every output buffer."""
    assert candidate[0] == reference[0], (tier, candidate, reference)
    if reference[0] == "error":
        assert candidate[1:] == reference[1:], tier
        return
    _, tier_result, tier_buffers = candidate
    _, ref_result, ref_buffers = reference
    assert tier_result.cycles == ref_result.cycles, tier
    assert tier_result.time_ms == ref_result.time_ms, tier
    assert tier_result.instructions_executed == ref_result.instructions_executed, tier
    assert tier_result.warps_executed == ref_result.warps_executed, tier
    for name, buffer in ref_buffers.items():
        if isinstance(buffer, np.ndarray):
            np.testing.assert_array_equal(
                tier_buffers[name], buffer,
                err_msg=f"buffer {name!r} differs on tier {tier!r}")


def assert_equivalent_launch(module, grid, block, args, arch, *,
                             kernel_name=None, **device_kwargs):
    """Every tier matches the oracle; returns the oracle's
    :class:`LaunchResult` (the one with counters), or ``None`` on a trap."""
    outcomes = launch_tiers(module, grid, block, args, arch,
                            kernel_name=kernel_name, **device_kwargs)
    reference = outcomes["oracle"]
    for tier in TIERS[1:]:
        assert_same_outcome(outcomes[tier], reference, tier)
    if reference[0] == "error":
        return None
    return reference[1]


def case_tuples(result):
    return [(case.name, case.passed, case.runtime_ms, case.message)
            for case in result.cases]


def assert_equivalent_fitness(make_adapter, module=None):
    """Evaluate *module* (default: the original) on one adapter per tier;
    ``make_adapter`` takes the tier name."""
    adapters = {tier: make_adapter(tier) for tier in TIERS}
    target = module if module is not None else adapters["jit"].original_module()
    results = {tier: adapter.evaluate(target)
               for tier, adapter in adapters.items()}
    for tier in TIERS[1:]:
        assert_same_fitness(results[tier], results["oracle"], tier)
    return results["jit"]


def assert_same_fitness(result, reference, tier):
    assert result.valid == reference.valid, tier
    assert result.runtime_ms == reference.runtime_ms or (
        math.isinf(result.runtime_ms)
        and math.isinf(reference.runtime_ms)), tier
    assert case_tuples(result) == case_tuples(reference), tier


# --------------------------------------------------------------------------- workloads
@pytest.mark.parametrize("arch_name", EVALUATION_ORDER)
def test_toy_workload_equivalent_on_every_arch(arch_name):
    arch = get_arch(arch_name)
    assert_equivalent_fitness(
        lambda tier: ToyWorkloadAdapter(arch.with_overrides(fast_path=tier)))


@pytest.mark.parametrize("arch_name", ["P100", "V100"])
def test_adept_v1_workload_equivalent(arch_name):
    from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs

    arch = get_arch(arch_name)
    result = assert_equivalent_fitness(
        lambda tier: AdeptWorkloadAdapter(
            "v1", arch.with_overrides(fast_path=tier),
            fitness_cases=[search_pairs()]))
    assert result.valid


def test_adept_v0_workload_equivalent():
    from repro.workloads.adept import AdeptWorkloadAdapter, generate_pairs

    pairs = generate_pairs(1, reference_length=36, query_length=22, seed=5)
    result = assert_equivalent_fitness(
        lambda tier: AdeptWorkloadAdapter(
            "v0", get_arch("P100").with_overrides(fast_path=tier),
            fitness_cases=[pairs]))
    assert result.valid


def test_simcov_workload_equivalent():
    from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    result = assert_equivalent_fitness(
        lambda tier: SimCovWorkloadAdapter(
            get_arch("P100").with_overrides(fast_path=tier),
            fitness_params=SimCovParams.quick()))
    assert result.valid


def test_adept_discovered_edits_equivalent():
    """The recorded GEVO edit set (divergence-heavy rewrite) stays identical."""
    from repro.workloads.adept import (
        AdeptWorkloadAdapter,
        adept_v1_discovered_edits,
        search_pairs,
    )

    def make(tier):
        return AdeptWorkloadAdapter("v1", get_arch("P100").with_overrides(fast_path=tier),
                                    fitness_cases=[search_pairs()])

    adapter = make("jit")
    edits = adept_v1_discovered_edits(adapter.driver.kernel)
    variant = apply_edits(adapter.original_module(), edits).module
    assert_equivalent_fitness(make, module=variant)


# --------------------------------------------------------------------------- random edit sets
def _random_variants(seed, count, length, module=None):
    """Seeded random edit-set variants of *module* (default: the toy)."""
    if module is None:
        module = build_toy_kernel().module
    rng = random.Random(seed)
    generator = EditGenerator(module, rng)
    variants = []
    for _ in range(count):
        edits = []
        for _ in range(rng.randint(1, length)):
            edit = generator.random_edit()
            if edit is not None:
                edits.append(edit)
        variants.append(apply_edits(module, edits).module)
    return variants


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_toy_edit_sets_equivalent(seed):
    """Random mutants -- many trap or diverge -- agree bit-for-bit.

    This sweeps the ugly corners: deleted terminators (falling off a
    block), deleted bounds checks (out-of-bounds traps), moved barriers
    (divergent syncthreads), undefined registers, and partial-warp masks.
    """
    elements = 150  # not a multiple of the block size: partial final warp
    rng = np.random.default_rng(seed)
    x = rng.normal(size=elements)
    y = rng.normal(size=elements)
    arch = get_arch("P100")
    for variant in _random_variants(seed, count=8, length=4):
        out = np.zeros(elements)
        assert_equivalent_launch(
            variant, 3, 64, {"x": x, "y": y, "out": out, "n": elements},
            arch, kernel_name="saxpy_wasteful")


@settings(max_examples=15, deadline=None)
@given(subset=st.sets(st.integers(min_value=0, max_value=2)),
       elements=st.integers(min_value=1, max_value=130))
def test_discovered_edit_subsets_equivalent(subset, elements):
    """Hypothesis: every subset of the toy's discovered edits, at odd sizes."""
    kernel = build_toy_kernel()
    edits = toy_discovered_edits(kernel)
    chosen = [edits[i] for i in sorted(subset)]
    variant = apply_edits(kernel.module, chosen).module
    rng = np.random.default_rng(7)
    x = rng.normal(size=elements)
    y = rng.normal(size=elements)
    out = np.zeros(elements)
    grid = max(1, math.ceil(elements / 64))
    assert_equivalent_launch(
        variant, grid, 64, {"x": x, "y": y, "out": out, "n": elements},
        get_arch("P100"), kernel_name="saxpy_wasteful")


# --------------------------------------------------------------------------- seeded RNG streams
def test_rand_uniform_stream_equivalent():
    """Kernels drawing counter-based randomness produce identical streams."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("randk", params=[Param("out", "buffer"), Param("seed", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    draw = b.rand_uniform(b.reg("seed"), tid, 3)
    b.store(b.reg("out"), tid, draw)
    b.ret()
    module = build_module("randm", b.build())
    out = np.zeros(32)
    result = assert_equivalent_launch(module, 1, 32, {"out": out, "seed": 11},
                                      get_arch("P100"), kernel_name="randk")
    assert result is not None


# --------------------------------------------------------------------------- traps and budgets
def test_instruction_budget_trap_equivalent():
    """Both tiers trap the runaway-loop budget with the same message."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("spin", params=[Param("out", "buffer")])
    b.block("entry")
    with b.for_range("i", 0, 1_000_000):
        b.add(b.reg("i"), 0, dest="sink")
    b.ret()
    module = build_module("spin_m", b.build())
    out = np.zeros(32)
    outcomes = launch_tiers(module, 1, 32, {"out": out}, get_arch("P100"),
                            kernel_name="spin",
                            max_instructions_per_warp=5_000)
    assert outcomes["jit"] == outcomes["oracle"]
    assert outcomes["oracle"][0] == "error"
    assert "budget exceeded" in outcomes["oracle"][2]


def test_out_of_bounds_trap_equivalent():
    kernel = build_toy_kernel()
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)  # far smaller than n: guaranteed OOB
    y = rng.normal(size=8)
    out = np.zeros(8)
    outcomes = launch_tiers(
        kernel.module, 4, 64, {"x": x, "y": y, "out": out, "n": 256},
        get_arch("P100"), kernel_name="saxpy_wasteful")
    assert outcomes["jit"] == outcomes["oracle"]
    assert outcomes["oracle"][0] == "error"
    assert "out-of-bounds" in outcomes["oracle"][2]


# --------------------------------------------------------------------------- decode-cache hygiene
def test_decode_cache_invalidated_by_edits():
    """Editing a function after a launch must invalidate its decoding."""
    kernel = build_toy_kernel()
    module = kernel.module
    arch = get_arch("P100")
    rng = np.random.default_rng(1)
    x = rng.normal(size=128)
    y = rng.normal(size=128)
    args = {"x": x, "y": y, "out": np.zeros(128), "n": 128}

    device = GpuDevice(arch, fast_path="jit")
    before = device.launch(module, 2, 64, dict(args, out=np.zeros(128)),
                           kernel_name="saxpy_wasteful")
    # Mutate the already-decoded module in place through a GEVO edit.
    from repro.gevo.edits import InstructionDelete

    InstructionDelete(kernel.edit_targets["useless_barrier"]).apply(module)
    after = device.launch(module, 2, 64, dict(args, out=np.zeros(128)),
                          kernel_name="saxpy_wasteful")
    assert after.cycles < before.cycles
    # And the re-decoded program still matches the reference interpreter.
    reference = GpuDevice(arch, fast_path="oracle").launch(
        module, 2, 64, dict(args, out=np.zeros(128)), kernel_name="saxpy_wasteful")
    assert after.cycles == reference.cycles
    assert after.instructions_executed == reference.instructions_executed


def test_decode_cache_invalidated_by_operand_replace():
    """In-place operand edits (uid survives) must also invalidate the cache."""
    from repro.gevo.edits import OperandReplace
    from repro.ir.values import Const

    kernel = build_toy_kernel()
    module = kernel.module
    arch = get_arch("P100")
    rng = np.random.default_rng(2)
    x = rng.normal(size=64)
    y = rng.normal(size=64)

    device = GpuDevice(arch, fast_path="jit")
    out_before = np.zeros(64)
    device.launch(module, 1, 64, {"x": x, "y": y, "out": out_before, "n": 64},
                  kernel_name="saxpy_wasteful")
    scaled_uid = next(inst.uid for inst in module.instructions()
                      if inst.dest == "scaled")
    OperandReplace(scaled_uid, 1, Const(5)).apply(module)
    out_after = np.zeros(64)
    device.launch(module, 1, 64, {"x": x, "y": y, "out": out_after, "n": 64},
                  kernel_name="saxpy_wasteful")
    np.testing.assert_array_equal(out_after, 5.0 * x + y)

    out_reference = np.zeros(64)
    GpuDevice(arch, fast_path="oracle").launch(
        module, 1, 64, {"x": x, "y": y, "out": out_reference, "n": 64},
        kernel_name="saxpy_wasteful")
    np.testing.assert_array_equal(out_after, out_reference)


def assert_removed_selector_fails(selector, replacement):
    """A removed ``fast_path`` value fails on the device and on the arch,
    naming the tier that replaces it."""
    message = re.escape(f"interpreter tier {selector!r} was removed; "
                        f"use {replacement!r}")
    with pytest.raises(LaunchError, match=message):
        GpuDevice(get_arch("P100"), fast_path=selector)
    with pytest.raises(LaunchError, match=message):
        get_arch("P100").with_overrides(fast_path=selector)


def test_fast_path_default_and_opt_out():
    """The arch defaults to the JIT, a device or arch can pin the oracle,
    and the boolean selectors fail naming their replacement."""
    arch = get_arch("P100")
    assert arch.fast_path == "jit"
    assert GpuDevice(arch).interpreter_tier == "jit"
    assert GpuDevice(arch, fast_path="oracle").interpreter_tier == "oracle"
    oracle_arch = arch.with_overrides(fast_path="oracle")
    assert GpuDevice(oracle_arch).interpreter_tier == "oracle"
    assert GpuDevice(oracle_arch, fast_path="jit").interpreter_tier == "jit"
    assert_removed_selector_fails(True, "jit")
    assert_removed_selector_fails(False, "oracle")


# --------------------------------------------------------------------------- tier selection
def test_interpreter_tier_selection():
    """Tier names select their tier; the removed dispatch tier and the
    old aliases fail naming their replacement, unknown names fail too."""
    arch = get_arch("P100")
    assert INTERPRETER_TIERS == ("oracle", "jit")
    for tier in INTERPRETER_TIERS:
        assert GpuDevice(arch, fast_path=tier).interpreter_tier == tier
        assert GpuDevice(arch.with_overrides(fast_path=tier)).interpreter_tier == tier
    for selector in ("dispatch", "decoded", "fast"):
        assert_removed_selector_fails(selector, "jit")
    assert_removed_selector_fails("reference", "oracle")
    with pytest.raises(LaunchError, match="unknown interpreter tier 'turbo'"):
        GpuDevice(arch, fast_path="turbo")


# --------------------------------------------------------------------------- reports
def _report_scenarios():
    """Launches that exercise every path by which a JIT run reaches the
    oracle: a barrier step (toy), atomics inside compiled segments, and
    non-exact steps run on ``_execute`` (fractional cost overrides)."""
    kernel = build_toy_kernel()
    rng = np.random.default_rng(4)
    n = 48
    yield ("toy", get_arch("P100"), kernel.module, 2, 64,
           {"x": rng.normal(size=128), "y": rng.normal(size=128),
            "out": np.zeros(128), "n": 128}, "saxpy_wasteful")
    yield ("atomic", get_arch("P100"), build_atomic_kernel("atomic.add"), 2, 32,
           {"values": np.zeros(n), "operand": rng.normal(size=n),
            "addresses": rng.integers(0, 6, size=n).astype(np.float64),
            "old": np.zeros(n), "n": n}, "atomick")
    yield ("fractional", get_arch("P100").with_overrides(
               cost_overrides={"mul": 2.5, "condbr": 6.5}),
           _build_branch_module(), 1, 48,
           {"flags": np.where(np.arange(48) % 3 == 0, 1.0, 0.0),
            "out": np.zeros(48)}, "branchk")


def test_reports_are_oracle_only():
    """A JIT launch returns no counters and an empty profile -- its oracle
    steps leak no partial report -- and leaves that empty profile on the
    device; an oracle launch returns both reports, with one profile
    execution per executed instruction."""
    for name, arch, module, grid, block, args, kernel_name in _report_scenarios():
        results = {}
        for tier in TIERS:
            device = GpuDevice(arch, fast_path=tier)
            status, result, _ = launch_outcome(device, module, grid, block, args,
                                               kernel_name)
            assert status == "ok" and device.last_profile is result.profile, (name, tier)
            results[tier] = result
        jit, oracle = results["jit"], results["oracle"]
        assert jit.cycles == oracle.cycles, name
        assert jit.counters == {}, name
        assert not jit.profile.instructions, name
        assert oracle.counters, name
        assert oracle.profile.total_executions() == oracle.instructions_executed, name


# --------------------------------------------------------------------------- the oracle off the hot path
def test_budget_straddling_segment_runs_once_per_instruction_on_the_oracle(
        monkeypatch):
    """A runaway loop whose budget runs out inside its body segment runs
    only that last partial segment on the oracle: at most one
    ``_execute`` call per instruction of the segment, for every budget
    that lands the trap at a different position in the body."""
    from repro.gpu import decode_function
    from repro.gpu.interpreter import STEP_SEGMENT, WarpExecutor
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("spin", params=[Param("out", "buffer")])
    b.block("entry")
    with b.for_range("i", 0, 1_000_000):
        for _ in range(8):
            b.add(b.reg("i"), 1, dest="sink")
    b.ret()
    module = build_module("spin_m", b.build())
    arch = get_arch("P100")
    body = max(len(step.body)
               for block in decode_function(module.get_function("spin"),
                                            arch).blocks.values()
               for step in block.steps if step.kind == STEP_SEGMENT)
    calls = []
    execute = WarpExecutor._execute

    def counting(self, instruction, entry):
        calls[-1] += 1
        return execute(self, instruction, entry)

    monkeypatch.setattr(WarpExecutor, "_execute", counting)
    for budget in range(5_000, 5_000 + body + 2):
        calls.append(0)
        outcome = launch_tiers(module, 1, 32, {"out": np.zeros(32)}, arch,
                               kernel_name="spin", tiers=("jit",),
                               max_instructions_per_warp=budget)["jit"]
        assert outcome[0] == "error" and "budget exceeded" in outcome[2]
        assert calls[-1] <= body, (budget, calls)
    assert max(calls) == body, calls


def test_jit_runs_only_atomics_on_the_oracle(monkeypatch):
    """On the original ADEPT-V1 and SimCov kernels the JIT runs every
    opcode compiled except the atomics, which run on the oracle."""
    from repro.gpu.interpreter import WarpExecutor
    from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs
    from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    opcodes = set()
    straightline = WarpExecutor._execute_straightline

    def recording(self, instruction, mask):
        opcodes.add(instruction.opcode)
        return straightline(self, instruction, mask)

    monkeypatch.setattr(WarpExecutor, "_execute_straightline", recording)
    arch = get_arch("P100")
    adapters = {
        "adept-v1": AdeptWorkloadAdapter("v1", arch, fitness_cases=[search_pairs()]),
        "simcov": SimCovWorkloadAdapter(arch, fitness_params=SimCovParams.quick()),
    }
    for name, adapter in adapters.items():
        opcodes.clear()
        assert adapter.evaluate(adapter.original_module()).valid, name
        assert opcodes, name
        assert all(opcode.startswith("atomic.") for opcode in opcodes), (name, opcodes)


# --------------------------------------------------------------------------- atomics with NaN/Inf
def build_atomic_kernel(opcode):
    """One atomic op per lane: unique addresses when ``addresses`` is the
    lane id, colliding when the caller passes duplicates."""
    from repro.ir import KernelBuilder, Param, build_module

    params = [Param("values", "buffer"), Param("operand", "buffer"),
              Param("addresses", "buffer"), Param("old", "buffer"),
              Param("n", "scalar")]
    if opcode == "atomic.cas":
        params.insert(3, Param("compare", "buffer"))
    b = KernelBuilder("atomick", params=params)
    b.block("entry")
    tid = b.tid_x()
    bid = b.bid_x()
    gid = b.add(b.mul(bid, b.bdim_x()), tid, dest="gid")
    # Guard so a partial final warp exercises the masked atomic path.
    with b.if_then(b.lt(b.reg("gid"), b.reg("n"))):
        address = b.load(b.reg("addresses"), b.reg("gid"))
        value = b.load(b.reg("operand"), b.reg("gid"))
        if opcode == "atomic.max":
            result = b.atomic_max(b.reg("values"), address, value)
        elif opcode == "atomic.cas":
            compare = b.load(b.reg("compare"), b.reg("gid"))
            result = b.atomic_cas(b.reg("values"), address, compare, value)
        elif opcode == "atomic.exch":
            result = b.atomic_exch(b.reg("values"), address, value)
        else:
            result = b.atomic_add(b.reg("values"), address, value)
        b.store(b.reg("old"), b.reg("gid"), result)
    b.ret()
    return build_module("atomicm", b.build())


@pytest.mark.parametrize("opcode", ["atomic.max", "atomic.cas"])
@pytest.mark.parametrize("collide", [False, True])
def test_atomic_nan_inf_equivalent(opcode, collide):
    """atomic.max / atomic.cas with NaN/Inf operands agree across the
    tiers on unique and colliding addresses, under full and partial
    warps."""
    n = 48  # partial final warp
    rng = np.random.default_rng(11)
    values = rng.normal(size=n)
    values[::7] = np.nan
    values[3::11] = np.inf
    operand = rng.normal(size=n)
    operand[::5] = np.nan
    operand[1::9] = -np.inf
    if collide:
        addresses = rng.integers(0, 6, size=n).astype(np.float64)
    else:
        addresses = np.arange(n, dtype=np.float64)
    args = {"values": values, "operand": operand, "addresses": addresses,
            "old": np.zeros(n), "n": n}
    if opcode == "atomic.cas":
        compare = values.copy()
        compare[::3] = rng.normal(size=len(compare[::3]))  # some equal, some not
        args["compare"] = compare
    module = build_atomic_kernel(opcode)
    assert_equivalent_launch(module, 2, 32, args, get_arch("P100"),
                             kernel_name="atomick")


@pytest.mark.parametrize("opcode", ["atomic.add", "atomic.exch"])
def test_atomic_add_exch_nan_equivalent(opcode):
    """atomic.add / atomic.exch with NaN/Inf operands agree too."""
    n = 32
    rng = np.random.default_rng(13)
    values = rng.normal(size=n)
    values[::6] = np.nan
    operand = rng.normal(size=n)
    operand[2::5] = np.inf
    args = {"values": values, "operand": operand,
            "addresses": np.arange(n, dtype=np.float64),
            "old": np.zeros(n), "n": n}
    module = build_atomic_kernel(opcode)
    assert_equivalent_launch(module, 1, 32, args, get_arch("P100"),
                             kernel_name="atomick")


def test_masked_shfl_with_negative_delta_equivalent():
    """A shfl whose delta register was written in the same masked segment
    must behave identically on every tier: the gather's indices are shaped
    by *every* lane of the delta operand, so the JIT has to read it merged
    (an unmerged inactive-lane delta once indexed out of warp range)."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("shflk", params=[Param("x", "buffer"), Param("out", "buffer"),
                                       Param("n", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    with b.if_then(b.lt(tid, b.reg("n"))):
        # delta = -5 on active lanes only; inactive lanes keep the merged 0.
        b.sub(0, 5, dest="delta")
        value = b.load(b.reg("x"), b.reg("tid.x") if False else tid)
        b.shfl_up_sync(-1, value, b.reg("delta"), dest="shifted")
        b.store(b.reg("out"), tid, b.reg("shifted"))
    b.ret()
    module = build_module("shflm", b.build())
    rng = np.random.default_rng(17)
    x = rng.normal(size=32)
    args = {"x": x, "out": np.zeros(32), "n": 27}  # partial mask: lanes 27-31 off
    assert_equivalent_launch(module, 1, 32, args, get_arch("P100"),
                             kernel_name="shflk")


# --------------------------------------------------------------------------- JIT cache hygiene
def test_jit_cache_invalidated_by_edits():
    """Mutating a function invalidates its compiled segments: the re-JITted
    program matches the oracle bit-for-bit after the edit."""
    from repro.gevo.edits import InstructionDelete, OperandReplace
    from repro.gpu import decode_function
    from repro.ir.values import Const

    kernel = build_toy_kernel()
    module = kernel.module
    arch = get_arch("P100")
    rng = np.random.default_rng(5)
    x = rng.normal(size=128)
    y = rng.normal(size=128)
    args = {"x": x, "y": y, "out": np.zeros(128), "n": 128}

    device = GpuDevice(arch, fast_path="jit")
    device.launch(module, 2, 64, dict(args, out=np.zeros(128)),
                  kernel_name="saxpy_wasteful")
    function = module.get_function("saxpy_wasteful")
    before = decode_function(function, arch)
    assert before.jit_ready

    # A structural edit (delete) and an in-place operand edit (uid kept)
    # must both re-decode and re-compile.
    InstructionDelete(kernel.edit_targets["useless_barrier"]).apply(module)
    scaled_uid = next(inst.uid for inst in module.instructions()
                      if inst.dest == "scaled")
    OperandReplace(scaled_uid, 1, Const(7)).apply(module)

    out_jit = np.zeros(128)
    device.launch(module, 2, 64, dict(args, out=out_jit),
                  kernel_name="saxpy_wasteful")
    after = decode_function(function, arch)
    assert after is not before
    assert after.jit_ready
    np.testing.assert_array_equal(out_jit, 7.0 * x + y)

    # And the recompiled program still matches the oracle exactly.
    assert_equivalent_launch(module, 2, 64, args, arch,
                             kernel_name="saxpy_wasteful")


def record_compiled_shapes(monkeypatch):
    """Record the ``full`` flag of every segment kernel compiled from now on."""
    from repro.gpu import jitted

    shapes = []
    compile_segment = jitted.compile_segment

    def recording(segment, warp_size, label, arch, terminator, full):
        shapes.append(full)
        return compile_segment(segment, warp_size, label, arch, terminator,
                               full)

    monkeypatch.setattr(jitted, "compile_segment", recording)
    return shapes


def _toy_args(elements, seed):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=elements), "y": rng.normal(size=elements),
            "out": np.zeros(elements), "n": elements}


def test_full_warp_launch_builds_no_masked_kernel(monkeypatch):
    """JIT kernels compile on first execution, one activation shape at a
    time: a launch whose warps are all fully active compiles no masked
    kernel."""
    shapes = record_compiled_shapes(monkeypatch)
    GpuDevice(get_arch("P100"), fast_path="jit").launch(
        build_toy_kernel().module, 2, 64, _toy_args(128, 21),
        kernel_name="saxpy_wasteful")
    assert shapes and all(shapes)


def test_masked_shape_first_run_on_later_launch_equivalent(monkeypatch):
    """A masked kernel first compiled on a later launch of an already
    JIT-ed function (here: a partial final warp after a full-warp launch)
    still agrees bit-for-bit with the oracle."""
    shapes = record_compiled_shapes(monkeypatch)
    module = build_toy_kernel().module
    arch = get_arch("P100")
    GpuDevice(arch, fast_path="jit").launch(module, 2, 64, _toy_args(128, 23),
                                            kernel_name="saxpy_wasteful")
    assert shapes and all(shapes)
    shapes.clear()
    assert_equivalent_launch(module, 3, 64, _toy_args(150, 23), arch,
                             kernel_name="saxpy_wasteful")
    assert False in shapes


def test_variant_borrows_untouched_kernel_decodings():
    """A GEVO variant keeps the original's kernels its edits do not write,
    so ``jit_function`` hands it the original's decoding objects; only the
    written kernel decodes afresh."""
    from repro.gevo.edits import InstructionDelete
    from repro.gpu import jit_function
    from repro.workloads.simcov import build_simcov_kernels

    module = build_simcov_kernels().module
    arch = get_arch("P100")
    written = "simcov_spread_virions"
    target = next(inst.uid for inst in module.get_function(written).instructions()
                  if not inst.info.pinned)
    variant = apply_edits(module, [InstructionDelete(target)]).module
    for name in module.function_order():
        shared = (jit_function(variant.get_function(name), arch)
                  is jit_function(module.get_function(name), arch))
        assert shared == (name != written), name


# --------------------------------------------------------------------------- arch-aware pricing
def _build_geometry_module():
    """Shared stride-2 + scattered global addressing: prices differently
    on 16-wide/16-bank geometry (G80) than on the 32-wide default."""
    from repro.ir import KernelBuilder, Param, build_module
    from repro.ir.function import SharedDecl

    b = KernelBuilder("geomk", params=[Param("x", "buffer"), Param("out", "buffer")],
                      shared=[SharedDecl("tile", 128)])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    addr = b.mul(tid, 2, dest="addr")
    b.store(b.reg("tile"), addr, b.load(b.reg("x"), tid))
    v = b.load(b.reg("tile"), addr, dest="v")
    w = b.load(b.reg("x"), b.mul(tid, 4, dest="gaddr"), dest="w")
    b.store(b.reg("out"), tid, b.add(v, w))
    b.ret()
    return build_module("geomm", b.build())


@pytest.mark.parametrize("arch_name", ["P100", "G80"])
def test_bank_conflict_kernel_equivalent(arch_name):
    """Equivalence holds on the non-default G80 geometry too."""
    module = _build_geometry_module()
    rng = np.random.default_rng(7)
    x = rng.normal(size=128)
    result = assert_equivalent_launch(module, 1, 32,
                                      {"x": x, "out": np.zeros(32)},
                                      get_arch(arch_name), kernel_name="geomk")
    assert result is not None
    assert result.counters["shared_conflicts"] > 0


def test_geometry_is_observable_end_to_end():
    """The same kernel records more transactions/conflicts on G80 (an
    oracle report)."""
    module = _build_geometry_module()
    rng = np.random.default_rng(7)

    def evidence(arch_name):
        device = GpuDevice(get_arch(arch_name), fast_path="oracle")
        result = device.launch(module, 1, 32,
                               {"x": rng.normal(size=128), "out": np.zeros(32)},
                               kernel_name="geomk")
        return (result.counters["global_transactions"],
                result.counters["shared_conflicts"])

    p100_tx, p100_cf = evidence("P100")
    g80_tx, g80_cf = evidence("G80")
    assert g80_tx > p100_tx
    assert g80_cf > p100_cf


def test_toy_workload_equivalent_on_g80():
    arch = get_arch("G80")
    assert_equivalent_fitness(
        lambda tier: ToyWorkloadAdapter(arch.with_overrides(fast_path=tier)))


# --------------------------------------------------------------------------- solo control blocks
def test_solo_control_blocks_equivalent():
    """Blocks holding only a BR/CONDBR/RET run through compiled steps.

    The divergent CONDBR exercises both the full- and masked-mask compiled
    variants; the empty join block pins the compiled solo-RET's pc
    semantics against the oracle.
    """
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("ctlk", params=[Param("out", "buffer")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    b.eq(b.rem(tid, 2), 1, dest="odd")
    b.branch("decide")
    b.block("decide")           # solo CONDBR, divergent on odd lanes
    b.cbranch(b.reg("odd"), "left", "right")
    b.block("left")
    b.store(b.reg("out"), b.reg("tid"), 1.0)
    b.branch("mid")
    b.block("mid")              # solo BR
    b.branch("join")
    b.block("right")
    b.store(b.reg("out"), b.reg("tid"), 2.0)
    b.branch("join")
    b.block("join")             # solo RET
    b.ret()
    module = build_module("ctlm", b.build())
    for arch_name in ("P100", "G80"):
        result = assert_equivalent_launch(module, 2, 64, {"out": np.zeros(128)},
                                          get_arch(arch_name), kernel_name="ctlk")
        assert result is not None


def test_load_cost_override_equivalent():
    """A cost-overridden load is priced statically exactly once.

    Pins the JIT fix: the compiled path used to charge the override in its
    static prelude *and* run the dynamic pricing, double-charging relative
    to the oracle.
    """
    arch = get_arch("P100").with_overrides(cost_overrides={"load": 7})
    kernel = build_toy_kernel()
    rng = np.random.default_rng(9)
    x = rng.normal(size=256)
    y = rng.normal(size=256)
    result = assert_equivalent_launch(
        kernel.module, 4, 64, {"x": x, "y": y, "out": np.zeros(256), "n": 256},
        arch, kernel_name="saxpy_wasteful")
    assert result is not None
    assert result.counters["override_cycles"] > 0


# --------------------------------------------------------------------------- count boundaries
def _build_branch_module():
    """One CONDBR on a loaded flag, with work on both sides."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("branchk", params=[Param("flags", "buffer"),
                                         Param("out", "buffer")])
    b.block("entry")
    tid = b.tid_x()
    flag = b.load(b.reg("flags"), tid)
    then_cm, else_cm = b.if_then_else(b.gt(flag, 0))
    with then_cm:
        b.store(b.reg("out"), tid, b.mul(flag, 3))
    with else_cm:
        b.store(b.reg("out"), tid, -1.0)
    b.ret()
    return build_module("branchm", b.build())


@pytest.mark.parametrize("block", [32, 48])
@pytest.mark.parametrize("true_lanes", [0, 1, 15, 16, 31, 32])
def test_condbr_at_count_boundaries_equivalent(block, true_lanes):
    """The condition holds on the first *true_lanes* lanes of every warp.

    A block of 32 is one full warp (0, 1, 31 and 32 true lanes are the
    uniform-false, divergent and uniform-true edges of the full shape); a
    block of 48 adds a partial last warp of 16 lanes, which decides under
    the masked shape -- 16 or more true lanes make it uniformly taken even
    though the inactive lanes' condition is false.
    """
    lanes = np.arange(block)
    flags = np.where(lanes % 32 < true_lanes, lanes + 1.0, 0.0)
    result = assert_equivalent_launch(
        _build_branch_module(), 1, block, {"flags": flags, "out": np.zeros(block)},
        get_arch("P100"), kernel_name="branchk")
    assert result is not None


def test_fractional_cost_overrides_run_on_the_oracle_equivalent(monkeypatch):
    """Non-integer baked costs leave a segment, and a terminator, without
    a JIT record: the JIT device runs them instruction by instruction on
    the oracle, between compiled steps, and still agrees bit for bit --
    under full and partial warps, on both sides of a divergent branch."""
    from repro.gpu.interpreter import WarpExecutor

    arch = get_arch("P100").with_overrides(
        cost_overrides={"mul": 2.5, "condbr": 6.5})
    opcodes = set()
    execute = WarpExecutor._execute

    def recording(self, instruction, entry):
        opcodes.add(instruction.opcode)
        return execute(self, instruction, entry)

    monkeypatch.setattr(WarpExecutor, "_execute", recording)
    lanes = np.arange(48)
    flags = np.where(lanes % 3 == 0, lanes + 1.0, 0.0)
    result = assert_equivalent_launch(
        _build_branch_module(), 1, 48, {"flags": flags, "out": np.zeros(48)},
        arch, kernel_name="branchk")
    assert result is not None
    assert result.counters["override_cycles"] > 0
    assert {"mul", "condbr"} <= opcodes


def _build_division_module(opcode):
    """``out[tid] = num[tid] <opcode> den[tid]`` for ``tid < n`` only."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("divk", params=[Param("num", "buffer"), Param("den", "buffer"),
                                      Param("out", "buffer"), Param("n", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    with b.if_then(b.lt(tid, b.reg("n"))):
        numerator = b.load(b.reg("num"), tid)
        denominator = b.load(b.reg("den"), tid)
        quotient = b.div(numerator, denominator) if opcode == "div" \
            else b.rem(numerator, denominator)
        b.store(b.reg("out"), tid, quotient)
    b.ret()
    return build_module("divm", b.build())


@pytest.mark.parametrize("opcode", ["div", "rem"])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("active", [27, 32])
@pytest.mark.parametrize("zero_lane", [None, 5])
def test_division_zero_check_equivalent(opcode, dtype, active, zero_lane):
    """``div``/``rem`` trap only on a zero denominator in an active lane.

    With ``active == 27`` the division runs under a partial mask and lanes
    27-31 hold zero denominators that must not trap; ``zero_lane`` puts
    one zero in an active lane, which traps with the same message on
    every tier, under the full shape too.
    """
    lanes = np.arange(32)
    numerator = (lanes * 7 - 50).astype(dtype)
    denominator = (lanes % 5 + 1).astype(dtype)
    denominator[active:] = 0
    if zero_lane is not None:
        denominator[zero_lane] = 0
    args = {"num": numerator, "den": denominator,
            "out": np.zeros(32, dtype=dtype), "n": active}
    module = _build_division_module(opcode)
    arch = get_arch("P100")
    result = assert_equivalent_launch(module, 1, 32, args, arch, kernel_name="divk")
    if zero_lane is None:
        assert result is not None
        return
    assert result is None
    with pytest.raises(KernelTrap, match="division by zero"):
        GpuDevice(arch, fast_path="oracle").launch(module, 1, 32, args,
                                                   kernel_name="divk")


# --------------------------------------------------------------------------- scalar arguments
def build_scalar_module():
    """A kernel whose arithmetic and branch both read the scalar ``s``."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("scalark", params=[Param("x", "buffer"), Param("out", "buffer"),
                                         Param("low", "buffer"), Param("s", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    value = b.load(b.reg("x"), tid)
    b.store(b.reg("out"), tid, b.add(b.mul(value, b.reg("s")), b.reg("s")))
    with b.if_then(b.lt(value, b.reg("s"))):
        b.store(b.reg("low"), tid, b.min(value, b.reg("s")))
    b.ret()
    return build_module("scalarm", b.build())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scalar", [math.inf, -math.inf, math.nan])
def test_non_finite_scalar_argument_equivalent(scalar):
    """A non-finite scalar argument broadcasts as float64 on every tier
    (the integral-dtype test used to raise on it before any lane ran)."""
    x = np.random.default_rng(5).normal(size=32)
    result = assert_equivalent_launch(
        build_scalar_module(), 1, 32,
        {"x": x, "out": np.zeros(32), "low": np.zeros(32), "s": scalar},
        get_arch("P100"), kernel_name="scalark")
    assert result is not None


# --------------------------------------------------------------------------- access memo
def assert_memo_exact(module, grid, block, args, arch, *, kernel_name,
                      **device_kwargs):
    """Equivalence with the oracle, then two launches on one JIT device from an
    empty access memo: the first fills it, the second runs on its hits
    alone (it adds no entry), and both match the oracle.  Returns the
    oracle outcome."""
    from repro.gpu import jitted

    jitted._ACCESS_CACHE.clear()
    device = GpuDevice(arch, fast_path="jit", **device_kwargs)
    reference = launch_tiers(module, grid, block, args, arch,
                             kernel_name=kernel_name, tiers=("oracle",),
                             **device_kwargs)["oracle"]
    sizes = []
    for launch in ("cold", "warm"):
        outcome = launch_outcome(device, module, grid, block, args, kernel_name)
        assert_same_outcome(outcome, reference, f"jit ({launch} memo)")
        sizes.append(len(jitted._ACCESS_CACHE))
    assert sizes[0] == sizes[1], sizes
    assert_equivalent_launch(module, grid, block, args, arch,
                             kernel_name=kernel_name, **device_kwargs)
    return reference


def test_memo_keeps_equal_indices_on_smaller_shared_array_trapping():
    """Equal index bytes on a larger shared array, memoized first, must
    not let the same access to a smaller one skip its bounds check."""
    from repro.ir import KernelBuilder, Param, build_module
    from repro.ir.function import SharedDecl

    b = KernelBuilder("twok", params=[Param("out", "buffer")],
                      shared=[SharedDecl("big", 64), SharedDecl("small", 16)])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    b.store(b.reg("big"), tid, tid)
    b.store(b.reg("out"), tid, b.load(b.reg("big"), tid))
    b.store(b.reg("small"), tid, tid)
    b.ret()
    module = build_module("twom", b.build())
    reference = assert_memo_exact(module, 1, 32, {"out": np.zeros(32)},
                                  get_arch("P100"), kernel_name="twok")
    assert reference[0] == "error"
    assert "shared buffer 'small' (index 31, size 16)" in reference[2]


def test_memo_tells_integer_from_float_indices_with_equal_bytes():
    """``np.array([5]).view(np.float64)`` is a denormal that converts to
    index 0, not 5: the index dtype belongs to the memo key."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("dtk", params=[Param("ints", "buffer"), Param("floats", "buffer"),
                                     Param("x", "buffer"), Param("out", "buffer")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    as_int = b.load(b.reg("x"), b.load(b.reg("ints"), tid))
    as_float = b.load(b.reg("x"), b.load(b.reg("floats"), tid))
    b.store(b.reg("out"), tid, b.add(b.mul(as_int, 1000.0), as_float))
    b.ret()
    module = build_module("dtm", b.build())
    ints = np.full(32, 5, dtype=np.int64)
    floats = ints.view(np.float64)
    assert int(floats[0]) == 0
    x = np.arange(32, dtype=np.float64) + 1.0
    reference = assert_memo_exact(
        module, 1, 32, {"ints": ints, "floats": floats, "x": x, "out": np.zeros(32)},
        get_arch("P100"), kernel_name="dtk")
    np.testing.assert_array_equal(reference[2]["out"], np.full(32, 6000.0 + 1.0))


def test_memo_prices_arena_buffers_at_their_own_offsets():
    """Two arena buffers of one logical size: the same logical indices
    span two transaction segments in one and one segment in the other."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("arenak", params=[Param("a", "buffer"), Param("b", "buffer"),
                                        Param("out", "buffer")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    b.store(b.reg("out"), tid, b.add(b.load(b.reg("a"), tid), b.load(b.reg("b"), tid)))
    b.ret()
    module = build_module("arenam", b.build())
    rng = np.random.default_rng(3)
    args = {"a": rng.normal(size=48), "b": rng.normal(size=48), "out": np.zeros(32)}
    # Guards of 24 put `a` at arena offset 24 (elements 24..55: two 32-wide
    # segments), `b` at 96 (96..127: one segment) and `out` at 168 (two).
    reference = assert_memo_exact(module, 1, 32, args, get_arch("P100"),
                                  kernel_name="arenak", unified_memory_arena=True,
                                  arena_guard_elements=24)
    assert reference[1].counters["global_transactions"] == 2 + 1 + 2


def test_memo_keys_masked_accesses_on_the_mask():
    """One index register under two different partial masks with the same
    active-lane count: reusing the first mask's active indices would load
    the wrong lanes without any trap."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("maskk", params=[Param("x", "buffer"), Param("low", "buffer"),
                                       Param("high", "buffer")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    with b.if_then(b.lt(tid, 20)):
        b.store(b.reg("low"), b.reg("tid"), b.load(b.reg("x"), b.reg("tid")))
    with b.if_then(b.ge(b.reg("tid"), 12)):
        b.store(b.reg("high"), b.reg("tid"), b.load(b.reg("x"), b.reg("tid")))
    b.ret()
    module = build_module("maskm", b.build())
    x = np.arange(32, dtype=np.float64) + 100.0
    reference = assert_memo_exact(
        module, 1, 32, {"x": x, "low": np.zeros(32), "high": np.zeros(32)},
        get_arch("P100"), kernel_name="maskk")
    np.testing.assert_array_equal(reference[2]["high"][12:], x[12:])


def test_memo_never_stores_a_trapping_access():
    """An out-of-bounds access traps on both launches of one device."""
    kernel = build_toy_kernel()
    rng = np.random.default_rng(0)
    args = {"x": rng.normal(size=8), "y": rng.normal(size=8),
            "out": np.zeros(8), "n": 64}
    reference = assert_memo_exact(kernel.module, 1, 64, args, get_arch("P100"),
                                  kernel_name="saxpy_wasteful")
    assert reference[0] == "error"
    assert "out-of-bounds" in reference[2]


def test_memo_separates_architectures_launched_interleaved():
    """P100 and G80 price the same accesses differently; launches of one
    kernel alternating between the two must each match their oracle."""
    from repro.gpu import jitted

    module = _build_geometry_module()
    x = np.random.default_rng(7).normal(size=128)
    args = {"x": x, "out": np.zeros(32)}
    jitted._ACCESS_CACHE.clear()
    devices = {name: GpuDevice(get_arch(name), fast_path="jit")
               for name in ("P100", "G80")}
    references = {name: launch_tiers(module, 1, 32, args, get_arch(name),
                                     kernel_name="geomk",
                                     tiers=("oracle",))["oracle"]
                  for name in devices}
    for name in ("P100", "G80", "P100", "G80"):
        outcome = launch_outcome(devices[name], module, 1, 32, args, "geomk")
        assert_same_outcome(outcome, references[name], f"jit on {name}")
    assert (references["G80"][1].counters["shared_conflicts"]
            > references["P100"][1].counters["shared_conflicts"])


# --------------------------------------------------------------------------- segment-local registers
def _local_registers(function, arch):
    """Union of the local-register sets of *function*'s JIT segments."""
    from repro.gpu import jit_function
    from repro.gpu.interpreter import STEP_SEGMENT

    decoded = jit_function(function, arch)
    return set().union(*(step.local_registers
                         for block in decoded.blocks.values()
                         for step in block.steps if step.kind == STEP_SEGMENT))


def test_adept_v1_segment_local_registers():
    """The main block's temporaries are local; registers another block
    reads (the wavefront state, the exchanged neighbour value, the row)
    are not."""
    from repro.workloads.adept import build_adept_v1

    kernel = build_adept_v1(64, 64)
    local = _local_registers(kernel.module.get_function(kernel.main_kernel_name),
                             get_arch("P100"))
    assert {"diag_score", "h_partial", "row_is0"} <= local
    assert not local & {"prev_h", "best", "nbr_prev_h", "row"}


def test_temporary_read_across_lanes_is_merged():
    """A temporary written under a partial mask and gathered by
    ``shfl.sync`` in its own segment (from inactive source lanes) and by
    ``shfl.down.sync`` after reconvergence must read the merged value on
    every tier; so must one that only the in-segment ``shfl.sync`` reads."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("xlanek", params=[Param("x", "buffer"), Param("near", "buffer"),
                                        Param("far", "buffer"), Param("n", "scalar")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    source = b.rem(b.add(tid, 5), 32, dest="source")
    with b.if_then(b.lt(tid, b.reg("n"))):
        temporary = b.add(b.load(b.reg("x"), b.reg("tid")), 1.0, dest="temporary")
        doubled = b.mul(temporary, 2.0, dest="doubled")
        scaled = b.mul(temporary, 3.0, dest="scaled")
        b.store(b.reg("near"), b.reg("tid"),
                b.add(b.shfl_sync(-1, temporary, b.reg("source")),
                      b.shfl_sync(-1, doubled, b.reg("source"))))
        b.store(b.reg("x"), b.reg("tid"), scaled)
    b.store(b.reg("far"), b.reg("tid"),
            b.shfl_down_sync(-1, b.reg("temporary"), 4))
    b.ret()
    module = build_module("xlanem", b.build())
    arch = get_arch("P100")
    local = _local_registers(module.get_function("xlanek"), arch)
    assert "scaled" in local
    assert not local & {"temporary", "doubled"}
    x = np.random.default_rng(19).normal(size=32)
    # Lanes 27-31 are inactive inside the branch.
    result = assert_equivalent_launch(
        module, 1, 32, {"x": x, "near": np.zeros(32), "far": np.zeros(32), "n": 27},
        arch, kernel_name="xlanek")
    assert result is not None


@pytest.mark.parametrize("solo", [False, True])
def test_branch_on_a_register_from_another_block_is_merged(solo):
    """A condition written under a partial mask and branched on by a later
    terminator -- folded into a segment, or a block of its own -- is not
    local: the lanes that skipped the write branch on the merged value."""
    from repro.ir import KernelBuilder, Param, build_module

    b = KernelBuilder("flagk", params=[Param("out", "buffer")])
    b.block("entry")
    tid = b.tid_x(dest="tid")
    with b.if_then(b.lt(tid, 16)):
        b.ge(b.reg("tid"), 0, dest="flag")
    b.add(b.reg("tid"), 1, dest="next")
    if solo:
        b.branch("decide")
        b.block("decide")
    then_cm, else_cm = b.if_then_else(b.reg("flag"))
    with then_cm:
        b.store(b.reg("out"), b.reg("tid"), b.reg("next"))
    with else_cm:
        b.store(b.reg("out"), b.reg("tid"), -1.0)
    b.ret()
    module = build_module("flagm", b.build())
    arch = get_arch("P100")
    assert "flag" not in _local_registers(module.get_function("flagk"), arch)
    assert_equivalent_launch(module, 1, 32, {"out": np.zeros(32)}, arch,
                             kernel_name="flagk")


def test_edit_reading_a_local_register_elsewhere_recomputes_the_set():
    """An ``OperandReplace`` that makes the epilogue branch on ``row_is0``
    takes it out of the local set of the re-decoded variant, and the
    variant agrees with the oracle."""
    from repro.gevo.edits import OperandReplace
    from repro.ir.values import Reg
    from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs

    def make(tier):
        return AdeptWorkloadAdapter("v1", get_arch("P100").with_overrides(fast_path=tier),
                                    fitness_cases=[search_pairs()])

    adapter = make("jit")
    module = adapter.original_module()
    name = adapter.driver.kernel.main_kernel_name
    epilogue = next(inst for inst in module.get_function(name).instructions()
                    if inst.opcode == "condbr" and inst.operands[0] == Reg("valid"))
    variant = apply_edits(module, [OperandReplace(epilogue.uid, 0, Reg("row_is0"))]).module
    arch = get_arch("P100")
    assert "row_is0" in _local_registers(module.get_function(name), arch)
    assert "row_is0" not in _local_registers(variant.get_function(name), arch)
    assert_equivalent_fitness(make, module=variant)


# --------------------------------------------------------------------------- random mutants
#: Warp instruction budget of the mutant adapters: a runaway mutant traps
#: within a fraction of a second on the oracle instead of running to the
#: default 1,000,000.
MUTANT_BUDGET = 50_000


def _mutant_adapter(workload, arch, tier):
    from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs
    from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    arch = arch.with_overrides(fast_path=tier)
    if workload == "adept-v1":
        adapter = AdeptWorkloadAdapter("v1", arch, fitness_cases=[search_pairs()])
    else:
        adapter = SimCovWorkloadAdapter(arch, fitness_params=SimCovParams.quick())
    adapter.device.max_instructions_per_warp = MUTANT_BUDGET
    return adapter


def assert_random_mutants_equivalent(workload, arch_name, seed, count):
    """Seeded random ``EditGenerator`` mutants evaluate identically on
    every tier, and a second JIT evaluation on the warm access memo
    matches too."""
    arch = get_arch(arch_name)
    adapters = {tier: _mutant_adapter(workload, arch, tier) for tier in TIERS}
    module = adapters["jit"].original_module()
    for variant in _random_variants(seed, count, 3, module=module):
        reference = adapters["oracle"].evaluate(variant)
        for tier in TIERS[1:]:
            assert_same_fitness(adapters[tier].evaluate(variant), reference, tier)
        assert_same_fitness(adapters["jit"].evaluate(variant), reference,
                            "jit (warm memo)")


@pytest.mark.parametrize("workload, count", [("adept-v1", 12), ("simcov", 24)])
def test_random_workload_mutants_equivalent(workload, count):
    assert_random_mutants_equivalent(workload, "P100", 0, count)


@pytest.mark.slow
@pytest.mark.parametrize("workload, arch_name, seed, count", [
    ("adept-v1", "P100", 1, 60), ("adept-v1", "G80", 2, 24),
    ("simcov", "P100", 3, 60), ("simcov", "G80", 4, 24)])
def test_many_random_workload_mutants_equivalent(workload, arch_name, seed, count):
    assert_random_mutants_equivalent(workload, arch_name, seed, count)
