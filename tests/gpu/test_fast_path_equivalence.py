"""Differential battery: all three interpreter tiers against each other.

The decode-once dispatch tables (:mod:`repro.gpu.decoded`) and the
exec-compiled segment JIT (:mod:`repro.gpu.jitted`) must both be
**bit-for-bit** equivalent to the tree-walking reference interpreter:
identical cycle counts, cost-model counters, per-uid profiler statistics,
output buffers, seeded RNG streams and trap messages.  Everything cached
in a persisted :class:`FitnessResult` depends on this, so the battery
runs the three tiers against each other on every workload (toy,
ADEPT-V0/V1, SIMCoV), on every architecture, and on seeded random edit
sets that exercise divergence, partial warps, traps and degenerate
control flow.
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
from repro.gevo.mutation import EditGenerator
from repro.gpu import EVALUATION_ORDER, INTERPRETER_TIERS, GpuDevice, get_arch
from repro.workloads.toy import ToyWorkloadAdapter, build_toy_kernel, toy_discovered_edits

#: Oracle first: the comparisons below treat position 0 as the reference.
TIERS = tuple(INTERPRETER_TIERS)


def profile_stats(profile):
    return {uid: (p.executions, p.cycles, p.opcode, p.location)
            for uid, p in profile.instructions.items()}


def launch_tiers(module, grid, block, args, arch, *, kernel_name=None,
                 tiers=TIERS, **device_kwargs):
    """Launch on every tier (fresh buffer copies) and return the outcomes."""
    outcomes = {}
    for tier in tiers:
        device = GpuDevice(arch, fast_path=tier, **device_kwargs)
        copies = {name: (value.copy() if isinstance(value, np.ndarray) else value)
                  for name, value in args.items()}
        try:
            result = device.launch(module, grid, block, copies, kernel_name=kernel_name)
        except (KernelTrap, LaunchError) as error:
            outcomes[tier] = ("error", type(error).__name__, str(error))
        else:
            outcomes[tier] = ("ok", result, copies)
    return outcomes


def launch_both(module, grid, block, args, arch, *, kernel_name=None, **device_kwargs):
    """Backwards-compatible pair view: (jit outcome, oracle outcome)."""
    outcomes = launch_tiers(module, grid, block, args, arch,
                            kernel_name=kernel_name, **device_kwargs)
    return outcomes["jit"], outcomes["oracle"]


def assert_equivalent_launch(module, grid, block, args, arch, *,
                             kernel_name=None, **device_kwargs):
    outcomes = launch_tiers(module, grid, block, args, arch,
                            kernel_name=kernel_name, **device_kwargs)
    reference = outcomes["oracle"]
    for tier in TIERS[1:]:
        candidate = outcomes[tier]
        assert candidate[0] == reference[0], (tier, candidate, reference)
        if reference[0] == "error":
            assert candidate[1:] == reference[1:], tier
            continue
        _, tier_result, tier_buffers = candidate
        _, ref_result, ref_buffers = reference
        assert tier_result.cycles == ref_result.cycles, tier
        assert tier_result.time_ms == ref_result.time_ms, tier
        assert tier_result.instructions_executed == ref_result.instructions_executed, tier
        assert tier_result.warps_executed == ref_result.warps_executed, tier
        assert tier_result.counters == ref_result.counters, tier
        assert profile_stats(tier_result.profile) == profile_stats(ref_result.profile), tier
    if reference[0] == "error":
        return None
    for name in reference[2]:
        if isinstance(reference[2][name], np.ndarray):
            for tier in TIERS[1:]:
                np.testing.assert_array_equal(
                    outcomes[tier][2][name], reference[2][name],
                    err_msg=f"buffer {name!r} differs on tier {tier!r}")
    return outcomes["jit"][1]


def case_tuples(result):
    return [(case.name, case.passed, case.runtime_ms, case.message)
            for case in result.cases]


def assert_equivalent_fitness(make_adapter, module=None):
    """Evaluate *module* (default: the original) on one adapter per tier.

    ``make_adapter`` takes the historical fast-path selector: ``False``
    builds the oracle adapter and a tier name pins that tier, so existing
    workload factories keep working unchanged.
    """
    adapters = {tier: make_adapter(tier if tier != "oracle" else False)
                for tier in TIERS}
    target = module if module is not None else adapters["jit"].original_module()
    results = {tier: adapter.evaluate(target)
               for tier, adapter in adapters.items()}
    reference = results["oracle"]
    for tier in TIERS[1:]:
        result = results[tier]
        assert result.valid == reference.valid, tier
        assert result.runtime_ms == reference.runtime_ms or (
            math.isinf(result.runtime_ms)
            and math.isinf(reference.runtime_ms)), tier
        assert case_tuples(result) == case_tuples(reference), tier
    return results["jit"]


# --------------------------------------------------------------------------- workloads
@pytest.mark.parametrize("arch_name", EVALUATION_ORDER)
def test_toy_workload_equivalent_on_every_arch(arch_name):
    arch = get_arch(arch_name)
    assert_equivalent_fitness(
        lambda fast: ToyWorkloadAdapter(arch.with_overrides(fast_path=fast)))


@pytest.mark.parametrize("arch_name", ["P100", "V100"])
def test_adept_v1_workload_equivalent(arch_name):
    from repro.workloads.adept import AdeptWorkloadAdapter, search_pairs

    arch = get_arch(arch_name)
    result = assert_equivalent_fitness(
        lambda fast: AdeptWorkloadAdapter(
            "v1", arch.with_overrides(fast_path=fast),
            fitness_cases=[search_pairs()]))
    assert result.valid


def test_adept_v0_workload_equivalent():
    from repro.workloads.adept import AdeptWorkloadAdapter, generate_pairs

    pairs = generate_pairs(1, reference_length=36, query_length=22, seed=5)
    result = assert_equivalent_fitness(
        lambda fast: AdeptWorkloadAdapter(
            "v0", get_arch("P100").with_overrides(fast_path=fast),
            fitness_cases=[pairs]))
    assert result.valid


def test_simcov_workload_equivalent():
    from repro.workloads.simcov import SimCovParams, SimCovWorkloadAdapter

    result = assert_equivalent_fitness(
        lambda fast: SimCovWorkloadAdapter(
            get_arch("P100").with_overrides(fast_path=fast),
            fitness_params=SimCovParams.quick()))
    assert result.valid


def test_adept_discovered_edits_equivalent():
    """The recorded GEVO edit set (divergence-heavy rewrite) stays identical."""
    from repro.workloads.adept import (
        AdeptWorkloadAdapter,
        adept_v1_discovered_edits,
        search_pairs,
    )

    def make(fast):
        return AdeptWorkloadAdapter("v1", get_arch("P100").with_overrides(fast_path=fast),
                                    fitness_cases=[search_pairs()])

    adapter = make(True)
    edits = adept_v1_discovered_edits(adapter.driver.kernel)
    variant = apply_edits(adapter.original_module(), edits).module
    assert_equivalent_fitness(make, module=variant)


# --------------------------------------------------------------------------- random edit sets
def _random_variants(seed, count, length):
    """Seeded random edit-set variants of the toy kernel (plus the module)."""
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
    """Both paths trap the runaway-loop budget with the same message."""
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
    assert outcomes["jit"] == outcomes["dispatch"] == outcomes["oracle"]
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
    assert outcomes["jit"] == outcomes["dispatch"] == outcomes["oracle"]
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

    device = GpuDevice(arch, fast_path=True)
    before = device.launch(module, 2, 64, dict(args, out=np.zeros(128)),
                           kernel_name="saxpy_wasteful")
    # Mutate the already-decoded module in place through a GEVO edit.
    from repro.gevo.edits import InstructionDelete

    InstructionDelete(kernel.edit_targets["useless_barrier"]).apply(module)
    after = device.launch(module, 2, 64, dict(args, out=np.zeros(128)),
                          kernel_name="saxpy_wasteful")
    assert after.cycles < before.cycles
    # And the re-decoded program still matches the reference interpreter.
    reference = GpuDevice(arch, fast_path=False).launch(
        module, 2, 64, dict(args, out=np.zeros(128)), kernel_name="saxpy_wasteful")
    assert after.cycles == reference.cycles
    assert after.counters == reference.counters


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

    device = GpuDevice(arch, fast_path=True)
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
    GpuDevice(arch, fast_path=False).launch(
        module, 1, 64, {"x": x, "y": y, "out": out_reference, "n": 64},
        kernel_name="saxpy_wasteful")
    np.testing.assert_array_equal(out_after, out_reference)


def test_fast_path_default_and_opt_out():
    """fast_path defaults on via the arch and can be disabled per device."""
    arch = get_arch("P100")
    assert GpuDevice(arch).fast_path is True
    assert GpuDevice(arch, fast_path=False).fast_path is False
    assert GpuDevice(arch.with_overrides(fast_path=False)).fast_path is False
    assert GpuDevice(arch.with_overrides(fast_path=False), fast_path=True).fast_path is True


# --------------------------------------------------------------------------- tier selection
def test_interpreter_tier_selection():
    """Booleans and tier names resolve to the documented tiers."""
    arch = get_arch("P100")
    assert GpuDevice(arch).interpreter_tier == "jit"
    assert GpuDevice(arch, fast_path=True).interpreter_tier == "jit"
    assert GpuDevice(arch, fast_path=False).interpreter_tier == "oracle"
    for tier in ("oracle", "dispatch", "jit"):
        assert GpuDevice(arch, fast_path=tier).interpreter_tier == tier
        assert GpuDevice(arch.with_overrides(fast_path=tier)).interpreter_tier == tier
    assert GpuDevice(arch, fast_path="reference").interpreter_tier == "oracle"
    assert GpuDevice(arch, fast_path="dispatch").fast_path is True
    with pytest.raises(LaunchError):
        GpuDevice(arch, fast_path="turbo")


def test_jit_tier_leaves_dispatch_uncompiled():
    """The dispatch tier must measure (and run) the pure dispatch loop:
    only a jit-tier device triggers segment compilation."""
    from repro.gpu import decode_function

    kernel = build_toy_kernel()
    module = kernel.module
    arch = get_arch("P100")
    rng = np.random.default_rng(3)
    args = {"x": rng.normal(size=64), "y": rng.normal(size=64),
            "out": np.zeros(64), "n": 64}
    GpuDevice(arch, fast_path="dispatch").launch(module, 1, 64, dict(args),
                                                 kernel_name="saxpy_wasteful")
    function = module.get_function("saxpy_wasteful")
    decoded = decode_function(function, arch)
    assert not decoded.jit_ready
    GpuDevice(arch, fast_path="jit").launch(module, 1, 64, dict(args),
                                            kernel_name="saxpy_wasteful")
    assert decode_function(function, arch) is decoded
    assert decoded.jit_ready


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
    """atomic.max / atomic.cas with NaN/Inf operands agree across all
    tiers on both the unique-address (vectorized) and colliding
    (per-lane loop) paths, under full and partial warps."""
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
    """The previously vectorized atomics stay pinned with NaN/Inf too."""
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

    # And the recompiled program still matches the other tiers exactly.
    assert_equivalent_launch(module, 2, 64, args, arch,
                             kernel_name="saxpy_wasteful")


def record_compiled_shapes(monkeypatch):
    """Record the ``full`` flag of every segment kernel compiled from now on."""
    from repro.gpu import jitted

    shapes = []
    compile_segment = jitted.compile_segment

    def recording(segment, warp_size, label, arch, terminator, full, seg_key):
        shapes.append(full)
        return compile_segment(segment, warp_size, label, arch, terminator,
                               full, seg_key)

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
    still agrees bit-for-bit with the other tiers."""
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
    """Three-way equivalence holds on the non-default G80 geometry too."""
    module = _build_geometry_module()
    rng = np.random.default_rng(7)
    x = rng.normal(size=128)
    result = assert_equivalent_launch(module, 1, 32,
                                      {"x": x, "out": np.zeros(32)},
                                      get_arch(arch_name), kernel_name="geomk")
    assert result is not None
    assert result.counters["shared_conflicts"] > 0


def test_geometry_is_observable_end_to_end():
    """The same kernel records more transactions/conflicts on G80."""
    module = _build_geometry_module()
    rng = np.random.default_rng(7)

    def evidence(arch_name):
        device = GpuDevice(get_arch(arch_name), fast_path="jit")
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
        lambda fast: ToyWorkloadAdapter(arch.with_overrides(fast_path=fast)))


# --------------------------------------------------------------------------- solo control blocks
def test_solo_control_blocks_equivalent():
    """Blocks holding only a BR/CONDBR/RET run through compiled steps.

    The divergent CONDBR exercises both the full- and masked-mask compiled
    variants; the empty join block pins the compiled solo-RET's pc
    semantics against the plain dispatch path.
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
    to the dispatch/oracle tiers.
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
