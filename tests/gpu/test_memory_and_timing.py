"""Unit tests for the memory model, cost model, arena and profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelTrap, LaunchError
from repro.gpu import (
    GpuDevice,
    P100,
    V100,
    bank_conflicts,
    coalesced_transactions,
    cycles_to_milliseconds,
    get_arch,
)
from repro.gpu.memory import (
    ArenaBufferHandle,
    BufferHandle,
    GlobalMemory,
    SharedMemoryBlock,
    conflicts_from_stats,
    transactions_from_stats,
)
from repro.gpu.timing import CostModel, MemoryAccessInfo
from repro.ir import Instruction, KernelBuilder, Param, Reg, Const


class TestCoalescingAndConflicts:
    def test_contiguous_access_is_one_transaction(self):
        assert coalesced_transactions(np.arange(32)) == 1

    def test_strided_access_needs_many_transactions(self):
        assert coalesced_transactions(np.arange(32) * 64) == 32

    def test_empty_access(self):
        assert coalesced_transactions(np.array([], dtype=np.int64)) == 0

    def test_conflict_free_banks(self):
        assert bank_conflicts(np.arange(32)) == 1

    def test_same_address_conflicts(self):
        assert bank_conflicts(np.zeros(32, dtype=np.int64)) == 32

    def test_two_way_conflict(self):
        assert bank_conflicts(np.array([0, 32, 1, 2, 3])) == 2


def _oracle_transactions(idx: np.ndarray, segment_size: int) -> int:
    """The pre-vectorization definition: distinct touched segments."""
    if idx.size == 0:
        return 0
    return int(np.unique(idx // segment_size).size)


def _oracle_conflicts(idx: np.ndarray, num_banks: int) -> int:
    """The pre-vectorization definition: deepest bank occupancy."""
    if idx.size == 0:
        return 1
    return int(np.bincount(idx % num_banks).max())


class TestPricingProperties:
    """The vectorized pricing stack against its ``np.unique`` oracle.

    ``coalesced_transactions`` / ``bank_conflicts`` grew span- and
    contiguity-based fast paths (plus ``*_from_stats`` variants fed by the
    fused bounds check); every shortcut must agree with the direct
    definition on the whole non-negative index domain and on non-default
    geometry.
    """

    @given(indices=st.lists(st.integers(0, 4096), max_size=64),
           segment_size=st.sampled_from([8, 16, 32, 128]))
    @settings(max_examples=120, deadline=None)
    def test_transactions_match_oracle(self, indices, segment_size):
        idx = np.array(indices, dtype=np.int64)
        assert (coalesced_transactions(idx, segment_size)
                == _oracle_transactions(idx, segment_size))

    @given(indices=st.lists(st.integers(0, 4096), max_size=64),
           num_banks=st.sampled_from([4, 16, 32]))
    @settings(max_examples=120, deadline=None)
    def test_conflicts_match_oracle(self, indices, num_banks):
        idx = np.array(indices, dtype=np.int64)
        assert (bank_conflicts(idx, num_banks)
                == _oracle_conflicts(idx, num_banks))

    @given(indices=st.lists(st.integers(0, 4096), max_size=64),
           segment_size=st.sampled_from([8, 16, 32]),
           num_banks=st.sampled_from([4, 16, 32]))
    @settings(max_examples=120, deadline=None)
    def test_stats_variants_match_plain(self, indices, segment_size, num_banks):
        idx = np.array(indices, dtype=np.int64)
        lo = int(idx.min()) if idx.size else 0
        hi = int(idx.max()) if idx.size else -1
        assert (transactions_from_stats(idx.copy(), lo, hi, segment_size)
                == coalesced_transactions(idx, segment_size))
        assert (conflicts_from_stats(idx.copy(), lo, hi, num_banks)
                == bank_conflicts(idx, num_banks))

    def test_empty_access(self):
        empty = np.array([], dtype=np.int64)
        assert coalesced_transactions(empty, 16) == 0
        assert bank_conflicts(empty, 16) == 1

    def test_single_lane(self):
        one = np.array([37], dtype=np.int64)
        assert coalesced_transactions(one, 16) == 1
        assert bank_conflicts(one, 16) == 1

    def test_fully_coalesced_non_default_geometry(self):
        idx = np.arange(32, dtype=np.int64)
        # A 32-lane contiguous access spans two 16-element segments but
        # only one 32-element segment.
        assert coalesced_transactions(idx, 16) == 2
        assert coalesced_transactions(idx, 32) == 1
        assert bank_conflicts(idx, 16) == 2
        assert bank_conflicts(idx, 32) == 1

    def test_worst_case_scatter(self):
        idx = np.arange(32, dtype=np.int64) * 64
        assert coalesced_transactions(idx, 16) == 32
        assert bank_conflicts(idx, 16) == 32

    def test_contiguity_shortcut_requires_unit_steps(self):
        # Span == size - 1 but with a duplicate and a gap: the fast path
        # must fall through to the bincount, not ceil-divide.
        idx = np.array([0, 1, 1, 3], dtype=np.int64)
        assert bank_conflicts(idx, 4) == 2


class TestBufferHandle:
    def test_bounds_check_passes_in_range(self):
        handle = BufferHandle("b", "global", np.zeros(8))
        idx = handle.check_bounds(np.array([0, 7]))
        assert list(idx) == [0, 7]

    def test_bounds_check_rejects_out_of_range(self):
        handle = BufferHandle("b", "global", np.zeros(8))
        with pytest.raises(KernelTrap):
            handle.check_bounds(np.array([8]))
        with pytest.raises(KernelTrap):
            handle.check_bounds(np.array([-1]))

    def test_non_finite_index_rejected(self):
        handle = BufferHandle("b", "global", np.zeros(8))
        with pytest.raises(KernelTrap):
            handle.check_bounds(np.array([np.nan]))

    def test_requires_one_dimensional(self):
        with pytest.raises(LaunchError):
            BufferHandle("b", "global", np.zeros((2, 2)))


class TestUnifiedArena:
    def test_slightly_out_of_bounds_reads_stay_in_arena(self):
        memory = GlobalMemory(unified_arena=True, guard_elements=16)
        memory.bind("first", np.arange(8, dtype=np.float64))
        memory.bind("second", np.arange(8, dtype=np.float64) + 100)
        memory.finalize_arena()
        first = memory.get("first")
        # Index 8 overflows 'first' but lands on 'second' (or guard) without a trap.
        translated = first.check_bounds(np.array([8]))
        assert translated[0] == first.offset + 8

    def test_far_out_of_bounds_traps(self):
        memory = GlobalMemory(unified_arena=True, guard_elements=4)
        memory.bind("only", np.zeros(8))
        memory.finalize_arena()
        handle = memory.get("only")
        with pytest.raises(KernelTrap):
            handle.check_bounds(np.array([-10]))
        with pytest.raises(KernelTrap):
            handle.check_bounds(np.array([100]))

    def test_sync_back_copies_results_to_host(self):
        memory = GlobalMemory(unified_arena=True, guard_elements=4)
        host = np.zeros(4)
        memory.bind("data", host)
        memory.finalize_arena()
        handle = memory.get("data")
        handle.logical_view()[:] = [1, 2, 3, 4]
        memory.sync_back()
        np.testing.assert_allclose(host, [1, 2, 3, 4])

    def test_arena_layout(self):
        g = 5
        memory = GlobalMemory(unified_arena=True, guard_elements=g)
        hosts = [np.arange(7, dtype=np.float64) + 0.5,
                 np.arange(3, dtype=np.int64) + 40,
                 np.array([True, False, True, True])]
        for index, host in enumerate(hosts):
            memory.bind(f"b{index}", host)
        memory.finalize_arena()
        handles = [memory.get(f"b{index}") for index in range(3)]
        n0, n1, n2 = (host.size for host in hosts)
        offsets = [g, g + n0 + g, g + n0 + g + n1 + g]
        assert [handle.offset for handle in handles] == offsets
        arena = handles[0].arena
        assert arena.dtype == np.float64
        assert arena.shape[0] == offsets[2] + n2 + g == memory.total_bytes() // 8
        assert all(handle.arena is arena for handle in handles)
        guards = np.ones(arena.shape[0], dtype=bool)
        for offset, host in zip(offsets, hosts):
            guards[offset:offset + host.size] = False
            np.testing.assert_array_equal(arena[offset:offset + host.size], host)
        assert not arena[guards].any()
        # Reading past buffer 0 lands in its tail guard, then in buffer 1.
        spill, = handles[0].check_bounds(np.array([n0 + g]))
        assert arena[spill] == hosts[1][0]

        handles[0].logical_view()[:] = -1.25
        handles[1].logical_view()[:] = [7, 8, 9]
        handles[2].logical_view()[:] = [0, 1, 0, 0]
        memory.sync_back()
        assert [host.dtype for host in hosts] == [np.float64, np.int64, np.bool_]
        np.testing.assert_array_equal(hosts[0], np.full(n0, -1.25))
        np.testing.assert_array_equal(hosts[1], [7, 8, 9])
        np.testing.assert_array_equal(hosts[2], [False, True, False, False])

    def test_arena_end_to_end_launch(self):
        device = GpuDevice(P100, unified_memory_arena=True, arena_guard_elements=8)
        b = KernelBuilder("copy", params=[Param("src", "buffer"), Param("dst", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        value = b.load(b.reg("src"), tid)
        b.store(b.reg("dst"), tid, value)
        b.ret()
        src = np.arange(32, dtype=np.float64)
        dst = np.zeros(32)
        device.launch(b.build(), grid=1, block=32, args={"src": src, "dst": dst})
        np.testing.assert_allclose(dst, src)


class TestSharedMemoryBlock:
    def test_poison_fill_by_default(self, axpy_kernel):
        from repro.ir import Function, SharedDecl

        func = Function("k", shared=[SharedDecl("tile", 4, "float"),
                                     SharedDecl("itile", 4, "int")])
        block = SharedMemoryBlock(func)
        assert np.isnan(block.get("tile").array).all()
        assert (block.get("itile").array < 0).all()

    def test_unknown_array_traps(self):
        from repro.ir import Function

        block = SharedMemoryBlock(Function("k"))
        with pytest.raises(KernelTrap):
            block.get("missing")


class TestCostModel:
    def _load_cost(self, arch, indices):
        model = CostModel(arch)
        instruction = Instruction("load", dest="v", operands=[Reg("buf"), Reg("i")])
        handle = BufferHandle("buf", "global", np.zeros(4096))
        return model.instruction_cost(instruction, 32,
                                      MemoryAccessInfo(handle, np.asarray(indices)))

    def test_coalesced_load_cheaper_than_scattered(self):
        arch = get_arch("P100")
        assert self._load_cost(arch, np.arange(32)) < self._load_cost(arch, np.arange(32) * 64)

    def test_ballot_cost_differs_by_architecture(self):
        instruction = Instruction("ballot.sync", dest="m", operands=[Reg("a"), Reg("p")])
        pascal = CostModel(P100).instruction_cost(instruction, 32)
        volta = CostModel(V100).instruction_cost(instruction, 32)
        assert volta > pascal

    def test_div_more_expensive_than_add(self):
        model = CostModel(P100)
        add = Instruction("add", dest="a", operands=[Const(1), Const(2)])
        div = Instruction("div", dest="d", operands=[Const(1), Const(2)])
        assert model.instruction_cost(div, 32) > model.instruction_cost(add, 32)

    def test_cost_override(self):
        arch = P100.with_overrides(cost_overrides={"add": 99})
        model = CostModel(arch)
        add = Instruction("add", dest="a", operands=[Const(1), Const(2)])
        assert model.instruction_cost(add, 32) == 99

    def test_cycles_to_milliseconds(self):
        assert cycles_to_milliseconds(P100.clock_mhz * 1000.0, P100) == pytest.approx(1.0)


class TestCounterSymmetry:
    """Every charged cycle lands in a counter, and the sums agree."""

    CYCLE_COUNTERS = ("alu_cycles", "branch_cycles", "barrier_cycles",
                      "warp_sync_cycles", "shuffle_cycles", "global_cycles",
                      "shared_cycles", "override_cycles")

    def test_counter_sums_equal_charged_cycles(self):
        model = CostModel(get_arch("P100"))
        gbuf = BufferHandle("g", "global", np.zeros(4096))
        sbuf = BufferHandle("s", "shared", np.zeros(64))
        load = Instruction("load", dest="v", operands=[Reg("g"), Reg("i")])
        store = Instruction("store", operands=[Reg("s"), Reg("i"), Reg("v")])
        charged = 0.0
        charged += model.instruction_cost(
            Instruction("add", dest="a", operands=[Const(1), Const(2)]), 32)
        charged += model.instruction_cost(
            Instruction("syncthreads", operands=[]), 32)
        charged += model.instruction_cost(
            load, 32, MemoryAccessInfo(gbuf, np.arange(32) * 3))
        charged += model.instruction_cost(
            store, 32, MemoryAccessInfo(sbuf, np.zeros(32, dtype=np.int64)))
        # The trapped path (access never resolved) must charge a counter
        # too -- historically it bumped nothing, breaking the symmetry.
        charged += model.instruction_cost(load, 32, None)
        counted = sum(model.counters.get(key, 0.0)
                      for key in self.CYCLE_COUNTERS)
        assert counted == charged

    def test_shared_access_records_conflict_evidence(self):
        model = CostModel(get_arch("P100"))
        sbuf = BufferHandle("s", "shared", np.zeros(64))
        load = Instruction("load", dest="v", operands=[Reg("s"), Reg("i")])
        model.instruction_cost(
            load, 32, MemoryAccessInfo(sbuf, np.zeros(32, dtype=np.int64)))
        assert model.counters["shared_conflicts"] == 32.0


class TestArchGeometry:
    """Pricing geometry comes from the arch, never from literals."""

    def test_g80_registered_with_non_default_geometry(self):
        g80 = get_arch("G80")
        assert g80.memory_segment_size == 16
        assert g80.shared_banks == 16
        assert get_arch("P100").memory_segment_size == 32
        assert get_arch("P100").shared_banks == 32

    def test_geometry_changes_the_price(self):
        load = Instruction("load", dest="v", operands=[Reg("g"), Reg("i")])
        handle = BufferHandle("g", "global", np.zeros(4096))
        indices = np.arange(32)  # one 32-wide segment, two 16-wide ones

        def transactions(arch):
            model = CostModel(arch)
            model.instruction_cost(load, 32, MemoryAccessInfo(handle, indices))
            return model.counters["global_transactions"]

        assert transactions(get_arch("P100")) == 1.0
        assert transactions(get_arch("G80")) == 2.0

    def test_geometry_is_part_of_the_cost_signature(self):
        narrow = P100.with_overrides(memory_segment_size=16)
        banked = P100.with_overrides(shared_banks=16)
        assert narrow.cost_signature() != P100.cost_signature()
        assert banked.cost_signature() != P100.cost_signature()


class TestProfiler:
    def test_profile_attributes_cycles_to_instructions(self, p100_device, axpy_kernel, axpy_inputs):
        x, y, n = axpy_inputs
        result = p100_device.launch(axpy_kernel, grid=5, block=32,
                                    args={"x": x, "y": y.copy(), "a": 1.0, "n": n})
        profile = result.profile
        assert profile.total_executions() > 0
        assert profile.total_cycles() > 0
        hottest = profile.hottest(3)
        assert len(hottest) == 3
        assert hottest[0].cycles >= hottest[-1].cycles

    def test_fraction_of_cycles(self, p100_device, axpy_kernel, axpy_inputs):
        x, y, n = axpy_inputs
        result = p100_device.launch(axpy_kernel, grid=5, block=32,
                                    args={"x": x, "y": y.copy(), "a": 1.0, "n": n})
        loads = [inst.uid for inst in axpy_kernel.instructions() if inst.opcode == "load"]
        fraction = result.profile.fraction_of_cycles(loads)
        assert 0.0 < fraction < 1.0

    def test_by_opcode_category(self, p100_device, axpy_kernel, axpy_inputs):
        x, y, n = axpy_inputs
        result = p100_device.launch(axpy_kernel, grid=2, block=64,
                                    args={"x": x, "y": y.copy(), "a": 1.0, "n": n})
        categories = result.profile.by_opcode_category(axpy_kernel)
        assert "memory" in categories and categories["memory"] > 0
