"""Micro-benchmarks of the simulated GPU itself (wall-clock of the simulator).

Two families live here:

* conventional pytest-benchmark measurements of each workload's simulator
  wall-clock, useful when tuning the interpreter;
* **regression gates**: the exec-compiled segment JIT against the
  tree-walking oracle on the hot loop, end to end on ADEPT / SIMCoV and
  on a pricing-bound memory loop, plus batched against solo launches.

Every gate appends its measurement to ``BENCH_simulator.json`` so the
trajectory of the simulator's own performance accumulates across runs
(CI restores the previous trajectory with actions/cache before the gate,
uploads the grown file as an artifact, and a non-blocking job fails when
a gated speedup regresses run-over-run; see
``tools/check_perf_regression.py``).
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import GpuDevice, get_arch
from repro.ir import KernelBuilder, Param, build_module
from repro.runtime.telemetry import new_run_id
from repro.workloads import ToyWorkloadAdapter
from repro.workloads.adept import AdeptDriver, generate_pairs
from repro.workloads.simcov import SimCovDriver, SimCovParams

#: Appended to on every gate run: one JSON document holding a list of runs.
BENCH_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"

#: Required JIT-tier speedup over the *oracle* on the hot loop (measured
#: ~10x; 8.0 is the headline the tier exists to defend).
JIT_HOT_LOOP_MIN_SPEEDUP = 8.0

#: Required JIT-tier end-to-end speedup over the oracle on the ADEPT and
#: SIMCoV workloads (measured ~4.3x and ~5.3x on 2 vCPUs).  1.5 is the
#: product of the two floors these comparisons used to chain through
#: (dispatch tables >= 1.15x the oracle, JIT >= 1.3x the dispatch tables).
JIT_WORKLOAD_MIN_SPEEDUP = 1.5

#: Required JIT-tier speedup over the oracle on the *pricing-bound* loop
#: (every iteration is memory accesses, so the fused bounds/pricing path
#: dominates; measured ~8-9x, 5.0 leaves noise headroom).
MEMORY_PRICING_MIN_SPEEDUP_VS_ORACLE = 5.0

#: Required speedup of one 16-row batched SimCov fitness-grid wave over 16
#: per-launch JIT runs (measured ~2.2-3.1x; 2.0 is the acceptance floor).
POPULATION_BATCH_GRID_MIN_SPEEDUP = 2.0

#: Required speedup of a GEVO clone wave (operand-mutated variants sharing
#: one structural key) batched vs solo (measured ~2-3x; 1.5 floor).
POPULATION_BATCH_CLONE_MIN_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def device():
    return GpuDevice(get_arch("P100"))


# --------------------------------------------------------------------------- wall-clock benchmarks
def test_toy_kernel_launch_wallclock(benchmark):
    adapter = ToyWorkloadAdapter(elements=256)
    module = adapter.original_module()

    def launch():
        return adapter.evaluate(module).runtime_ms

    runtime = benchmark(launch)
    assert runtime > 0


def test_adept_v1_alignment_wallclock(benchmark, device):
    pairs = generate_pairs(2, reference_length=48, query_length=30, seed=3)
    driver = AdeptDriver.for_version("v1", pairs, device)

    def align():
        return driver.run(pairs).kernel_time_ms

    runtime = benchmark.pedantic(align, rounds=3, iterations=1)
    assert runtime > 0


def test_simcov_step_wallclock(benchmark):
    driver = SimCovDriver(arch=get_arch("P100"))
    params = SimCovParams.quick()

    def simulate():
        return driver.run(params).kernel_time_ms

    runtime = benchmark.pedantic(simulate, rounds=3, iterations=1)
    assert runtime > 0


# --------------------------------------------------------------------------- JIT gate
def build_hot_loop_module():
    """A uniform, straight-line-heavy kernel: the interpreter's hot loop.

    Full warps, no divergence, long arithmetic segments inside a counted
    loop -- the shape fitness evaluation spends its cycles on, and the
    case segment compilation is designed for.
    """
    b = KernelBuilder("hotloop", params=[Param("x", "buffer"), Param("out", "buffer"),
                                         Param("n", "scalar")])
    b.block("entry")
    tid = b.tid_x()
    bid = b.bid_x()
    bdim = b.bdim_x()
    gid = b.add(b.mul(bid, bdim), tid, dest="gid")
    b.mov(b.load(b.reg("x"), gid), dest="acc")
    with b.for_range("i", 0, b.reg("n")):
        for _ in range(24):
            b.mul(b.reg("acc"), 1.0000001, dest="t")
            b.add(b.reg("t"), 0.5, dest="acc")
    b.store(b.reg("out"), b.reg("gid"), b.reg("acc"))
    b.ret()
    return build_module("hot", b.build())


def best_of(fn, repeat=5):
    """Minimum wall-clock of *repeat* runs (discards scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_speedup(run_with_device, repeat=5):
    """(jit_s, oracle_s, jit LaunchResult-like, oracle ditto) for one
    scenario on P100.

    ``run_with_device(device)`` must run the scenario on the given device
    and return something with ``cycles``-comparable content (or None).
    """
    arch = get_arch("P100")
    jit_device = GpuDevice(arch, fast_path="jit")
    oracle_device = GpuDevice(arch, fast_path="oracle")
    jit_result = run_with_device(jit_device)       # warm-up + decode/compile
    oracle_result = run_with_device(oracle_device)
    jit_s = best_of(lambda: run_with_device(jit_device), repeat)
    oracle_s = best_of(lambda: run_with_device(oracle_device), repeat)
    return jit_s, oracle_s, jit_result, oracle_result


def append_bench_entry(entry):
    """Append *entry*, stamped with the time, run id and the host facts
    (Python version, core count) that decide whether two entries are
    comparable (see ``tools/check_perf_regression.py``)."""
    entry = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "run_id": new_run_id(), **entry}
    document = {"benchmark": "simulator_fast_path", "runs": []}
    if BENCH_ARTIFACT.exists():
        try:
            loaded = json.loads(BENCH_ARTIFACT.read_text())
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                document = loaded
        except (ValueError, OSError):
            pass  # a corrupt artifact restarts the trajectory
    document["runs"].append(entry)
    BENCH_ARTIFACT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def measure_speedup_with_retry(run_with_device, floor, repeat=3, attempts=2):
    """Like :func:`measure_speedup`, re-measuring once if the ratio lands
    under *floor* (a perf gate should not flake on one noisy scheduler
    window); keeps the best attempt."""
    best = None
    for _ in range(attempts):
        sample = measure_speedup(run_with_device, repeat=repeat)
        if best is None or sample[1] / sample[0] > best[1] / best[0]:
            best = sample
        if best[1] / best[0] >= floor:
            break
    return best


def test_jit_speedup_gate():
    """Regression gate for the segment-JIT tier.

    The JIT must stay >= 8x over the tree-walking oracle on the
    straight-line hot loop, and >= 1.5x over it end to end on ADEPT-V1
    and SIMCoV (full fitness-grid configuration) -- the two workloads
    whose shape (partial warps, divergence, memory pricing, atomics) the
    masked/mega-closure compilation and its oracle fallback must handle.  Equivalence of the
    measured launches is re-checked so speed can never be bought with
    drift, and the measurement is appended to the benchmark trajectory.
    """
    module = build_hot_loop_module()
    rng = np.random.default_rng(0)
    x = rng.normal(size=256)
    args = {"x": x, "n": 40}

    def hot_loop(device):
        return device.launch(module, 4, 64, dict(args, out=np.zeros(256)),
                             kernel_name="hotloop")

    jit_s, oracle_s, jit_result, oracle_result = measure_speedup_with_retry(
        hot_loop, JIT_HOT_LOOP_MIN_SPEEDUP, repeat=5)
    assert jit_result.cycles == oracle_result.cycles
    assert jit_result.instructions_executed == oracle_result.instructions_executed
    hot_speedup = oracle_s / jit_s

    # End-to-end workloads: a fresh driver per run, exactly how a search
    # evaluates a candidate (decode + segment compilation are part of the
    # cost).
    pairs = generate_pairs(2, reference_length=48, query_length=30, seed=3)

    def adept(device):
        return AdeptDriver.for_version("v1", pairs, device).run(pairs)

    adept_jit, adept_oracle, jit_run, oracle_run = measure_speedup_with_retry(
        adept, JIT_WORKLOAD_MIN_SPEEDUP, attempts=3)
    assert jit_run.kernel_time_ms == oracle_run.kernel_time_ms

    params = SimCovParams()  # the paper-scaled fitness grid, not the toy one

    def simcov(device):
        return SimCovDriver(device=device).run(params)

    simcov_jit, simcov_oracle, jit_run, oracle_run = measure_speedup_with_retry(
        simcov, JIT_WORKLOAD_MIN_SPEEDUP, attempts=3)
    assert jit_run.kernel_time_ms == oracle_run.kernel_time_ms

    append_bench_entry({
        "gate": "jit",
        "hot_loop": {"jit_s": jit_s, "oracle_s": oracle_s,
                     "speedup": hot_speedup},
        "adept_v1_vs_oracle": {"jit_s": adept_jit, "oracle_s": adept_oracle,
                               "speedup": adept_oracle / adept_jit},
        "simcov_vs_oracle": {"jit_s": simcov_jit, "oracle_s": simcov_oracle,
                             "speedup": simcov_oracle / simcov_jit},
    })

    assert hot_speedup >= JIT_HOT_LOOP_MIN_SPEEDUP, (
        f"segment JIT regressed: {hot_speedup:.2f}x < "
        f"{JIT_HOT_LOOP_MIN_SPEEDUP}x over the oracle on the hot loop "
        f"(jit {jit_s * 1e3:.2f} ms, oracle {oracle_s * 1e3:.2f} ms)")
    assert adept_oracle / adept_jit >= JIT_WORKLOAD_MIN_SPEEDUP, (
        f"ADEPT-V1 JIT below floor vs the oracle: "
        f"{adept_oracle / adept_jit:.2f}x")
    assert simcov_oracle / simcov_jit >= JIT_WORKLOAD_MIN_SPEEDUP, (
        f"SIMCoV JIT below floor vs the oracle: "
        f"{simcov_oracle / simcov_jit:.2f}x")


# --------------------------------------------------------------------------- population-batch gate
def measure_batched_vs_solo(batched_fn, solo_fn, floor, repeat=2, attempts=2):
    """Best-of wall-clock for the batched wave and the solo loop, keeping
    the best attempt (a perf gate should not flake on scheduler noise)."""
    best = None
    for _ in range(attempts):
        batched_s = best_of(batched_fn, repeat)
        solo_s = best_of(solo_fn, repeat)
        if best is None or solo_s / batched_s > best[1] / best[0]:
            best = (batched_s, solo_s)
        if best[1] / best[0] >= floor:
            break
    return best


def test_population_batch_gate():
    """Regression gate for population-batched evaluation.

    One batched launch wave must stay >= 2x over per-launch JIT runs on
    the SimCov 16-point fitness parameter grid (same program, per-row
    scalar parameters) and >= 1.5x on a GEVO clone wave (operand-mutated
    variants sharing one structural key).  Bit-for-bit equivalence of the
    measured waves is re-checked first, so batching can never buy speed
    with drift, and both measurements join the benchmark trajectory.
    """
    import dataclasses

    from repro.gevo import apply_edits
    from repro.gevo.edits import OperandReplace
    from repro.ir.values import Const

    driver = SimCovDriver(arch=get_arch("P100"))
    solo_driver = SimCovDriver(arch=get_arch("P100"))

    # (1) The fitness grid: 16 parameter points, one program.
    base = SimCovParams.fitness()
    grid = [dataclasses.replace(base, virion_diffusion=diffusion,
                                virion_production=production)
            for diffusion in (0.10, 0.13, 0.16, 0.19)
            for production in (0.9, 1.0, 1.1, 1.2)]
    grid_rows = [(params, None) for params in grid]
    batched = driver.run_batched(grid_rows)
    solo = [solo_driver.run(params) for params in grid]
    for row, (batched_run, solo_run) in enumerate(zip(batched, solo)):
        assert not isinstance(batched_run, Exception), row
        assert batched_run.kernel_time_ms == solo_run.kernel_time_ms, row
        for field, value in vars(solo_run.state).items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(
                    getattr(batched_run.state, field), value,
                    err_msg=f"state field {field!r} differs on row {row}")

    grid_batched_s, grid_solo_s = measure_batched_vs_solo(
        lambda: driver.run_batched(grid_rows),
        lambda: [solo_driver.run(params) for params in grid],
        POPULATION_BATCH_GRID_MIN_SPEEDUP)
    grid_speedup = grid_solo_s / grid_batched_s

    # (2) A GEVO clone wave: operand-mutated variants, one structural key.
    module = driver.kernels.module
    produce = module.get_function("simcov_produce")
    uid, index, value = next(
        (instruction.uid, position, operand.value)
        for instruction in produce.instructions()
        for position, operand in enumerate(instruction.operands)
        if isinstance(operand, Const)
        and isinstance(operand.value, float)
        and not isinstance(operand.value, bool))
    clones = [apply_edits(module, [OperandReplace(uid, index,
                                                  Const(value * scale))]).module
              for scale in np.linspace(0.5, 1.5, 16)]
    clone_rows = [(base, clone) for clone in clones]
    batched = driver.run_batched(clone_rows)
    for row, (batched_run, clone) in enumerate(zip(batched, clones)):
        assert not isinstance(batched_run, Exception), row
        solo_run = solo_driver.run(base, clone)
        assert batched_run.kernel_time_ms == solo_run.kernel_time_ms, row

    clone_batched_s, clone_solo_s = measure_batched_vs_solo(
        lambda: driver.run_batched(clone_rows),
        lambda: [solo_driver.run(base, clone) for clone in clones],
        POPULATION_BATCH_CLONE_MIN_SPEEDUP)
    clone_speedup = clone_solo_s / clone_batched_s

    append_bench_entry({
        "gate": "population_batch",
        "simcov_grid": {"batched_s": grid_batched_s, "solo_s": grid_solo_s,
                        "speedup": grid_speedup},
        "clone_wave": {"batched_s": clone_batched_s, "solo_s": clone_solo_s,
                       "speedup": clone_speedup},
    })

    assert grid_speedup >= POPULATION_BATCH_GRID_MIN_SPEEDUP, (
        f"population batching regressed on the SimCov fitness grid: "
        f"{grid_speedup:.2f}x < {POPULATION_BATCH_GRID_MIN_SPEEDUP}x "
        f"(batched {grid_batched_s * 1e3:.1f} ms, "
        f"solo {grid_solo_s * 1e3:.1f} ms)")
    assert clone_speedup >= POPULATION_BATCH_CLONE_MIN_SPEEDUP, (
        f"population batching below floor on the clone wave: "
        f"{clone_speedup:.2f}x < {POPULATION_BATCH_CLONE_MIN_SPEEDUP}x "
        f"(batched {clone_batched_s * 1e3:.1f} ms, "
        f"solo {clone_solo_s * 1e3:.1f} ms)")


# --------------------------------------------------------------------------- memory-pricing gate
def build_memory_loop_module():
    """A pricing-bound kernel: the hot loop is almost all memory accesses.

    Every iteration does two global and two shared accesses on
    loop-invariant addressing, so wall-clock is dominated by the bounds
    check + coalescing/bank-conflict pricing -- the stack the arch-aware
    vectorization (fused ``check_bounds_stats``, inlined per-segment
    pricing, the JIT's content-keyed access memo) targets.
    """
    from repro.ir.function import SharedDecl

    b = KernelBuilder("memhot", params=[Param("x", "buffer"), Param("out", "buffer"),
                                        Param("n", "scalar")],
                      shared=[SharedDecl("tile", 64)])
    b.block("entry")
    tid = b.tid_x()
    bid = b.bid_x()
    bdim = b.bdim_x()
    gid = b.add(b.mul(bid, bdim), tid, dest="gid")
    b.store(b.reg("tile"), tid, b.load(b.reg("x"), gid))
    b.mov(b.const(0.0), dest="acc")
    with b.for_range("i", 0, b.reg("n")):
        v = b.load(b.reg("x"), b.reg("gid"), dest="v")
        b.store(b.reg("tile"), tid, b.add(v, b.reg("acc")))
        w = b.load(b.reg("tile"), tid, dest="w")
        b.add(b.reg("acc"), w, dest="acc")
        b.store(b.reg("out"), b.reg("gid"), b.reg("acc"))
    b.store(b.reg("out"), b.reg("gid"), b.reg("acc"))
    b.ret()
    return build_module("memhot", b.build())


def test_memory_pricing_gate():
    """Regression gate for the arch-aware memory-pricing stack.

    The JIT tier must stay >= 5x over the oracle on the pricing-bound
    loop.  Equivalence of the measured launches is re-checked on the
    default geometry *and* on G80's 16-wide segments / 16 banks, so a
    pricing shortcut can never buy speed with drift -- cycles and
    instruction counts must match bit for bit, and the oracle's counters
    (an oracle-only report) must show the conflict and transaction
    evidence.
    """
    module = build_memory_loop_module()
    rng = np.random.default_rng(0)
    x = rng.normal(size=256)
    args = {"x": x, "n": 40}

    def mem_loop(device):
        return device.launch(module, 4, 64, dict(args, out=np.zeros(256)),
                             kernel_name="memhot")

    jit_s, oracle_s, jit_result, oracle_result = measure_speedup_with_retry(
        mem_loop, MEMORY_PRICING_MIN_SPEEDUP_VS_ORACLE, repeat=5)
    assert jit_result.cycles == oracle_result.cycles
    assert jit_result.instructions_executed == oracle_result.instructions_executed
    assert oracle_result.counters["shared_conflicts"] > 0
    oracle_speedup = oracle_s / jit_s

    # Non-default geometry: same kernel, both tiers, G80's 16/16.
    g80 = get_arch("G80")
    g80_results = {
        tier: GpuDevice(g80, fast_path=tier).launch(
            module, 4, 64, dict(args, out=np.zeros(256)), kernel_name="memhot")
        for tier in ("oracle", "jit")}
    assert g80_results["jit"].cycles == g80_results["oracle"].cycles
    assert (g80_results["jit"].instructions_executed
            == g80_results["oracle"].instructions_executed)
    # 16-wide segments split the coalesced 32-lane accesses in two.
    assert (g80_results["oracle"].counters["global_transactions"]
            > oracle_result.counters["global_transactions"])

    append_bench_entry({
        "gate": "memory_pricing",
        "mem_loop": {"jit_s": jit_s, "oracle_s": oracle_s,
                     "speedup": oracle_speedup},
    })

    assert oracle_speedup >= MEMORY_PRICING_MIN_SPEEDUP_VS_ORACLE, (
        f"memory pricing regressed: {oracle_speedup:.2f}x < "
        f"{MEMORY_PRICING_MIN_SPEEDUP_VS_ORACLE}x over the oracle "
        f"(jit {jit_s * 1e3:.2f} ms, oracle {oracle_s * 1e3:.2f} ms)")
