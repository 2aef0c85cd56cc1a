"""Integration tests for the GPU simulator on small hand-written kernels."""

import numpy as np
import pytest

from repro.errors import KernelTrap, LaunchError
from repro.gpu import GpuDevice, get_arch
from repro.ir import KernelBuilder, Param, SharedDecl


class TestAxpyLaunch:
    def test_functional_result(self, p100_device, axpy_kernel, axpy_inputs):
        x, y, n = axpy_inputs
        expected = 2.5 * x + y
        y_device = y.copy()
        result = p100_device.launch(axpy_kernel, grid=5, block=32,
                                    args={"x": x, "y": y_device, "a": 2.5, "n": n})
        np.testing.assert_allclose(y_device, expected)
        assert result.time_ms > 0
        assert result.blocks_executed == 5

    def test_out_of_bounds_threads_masked(self, p100_device, axpy_kernel):
        # 3 blocks x 64 threads = 192 threads but only 100 elements: the bounds
        # check inside the kernel must keep the extra threads idle.
        n = 100
        x = np.ones(n)
        y = np.zeros(n)
        p100_device.launch(axpy_kernel, grid=3, block=64,
                           args={"x": x, "y": y, "a": 3.0, "n": n})
        np.testing.assert_allclose(y, 3.0)

    def test_missing_argument_raises(self, p100_device, axpy_kernel):
        with pytest.raises(LaunchError):
            p100_device.launch(axpy_kernel, grid=1, block=32, args={"x": np.ones(4)})

    def test_larger_grid_takes_longer(self, p100_device, axpy_kernel):
        n = 32 * 4096
        x = np.ones(n)
        args = {"x": x, "a": 1.0, "n": n}
        small = p100_device.launch(axpy_kernel, grid=64, block=64,
                                   args={**args, "y": np.zeros(n)})
        large = p100_device.launch(axpy_kernel, grid=4096, block=64,
                                   args={**args, "y": np.zeros(n)})
        assert large.cycles > small.cycles


class TestDivergenceAndSharedMemory:
    def build_divergent_kernel(self):
        """Threads < 16 take one path, the rest another; both write out[tid]."""
        b = KernelBuilder("divergent", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        cond = b.lt(tid, 16)
        then_cm, else_cm = b.if_then_else(cond)
        with then_cm:
            v = b.mul(tid, 2)
            b.store(b.reg("out"), tid, v)
        with else_cm:
            v = b.mul(tid, 3)
            b.store(b.reg("out"), tid, v)
        b.ret()
        return b.build()

    def test_divergent_branch_results(self, p100_device):
        kernel = self.build_divergent_kernel()
        out = np.zeros(32)
        p100_device.launch(kernel, grid=1, block=32, args={"out": out})
        lanes = np.arange(32)
        expected = np.where(lanes < 16, lanes * 2, lanes * 3)
        np.testing.assert_allclose(out, expected)

    def test_divergence_costs_more_than_uniform(self, p100_device):
        """A warp-divergent branch executes both sides: more cycles than uniform."""
        def build(threshold):
            b = KernelBuilder("k", params=[Param("out", "buffer")])
            b.block("entry")
            tid = b.tid_x()
            cond = b.lt(tid, threshold)
            then_cm, else_cm = b.if_then_else(cond)
            with then_cm:
                acc = b.mov(0, dest="acc")
                for _ in range(20):
                    acc = b.add(acc, 1, dest="acc")
                b.store(b.reg("out"), tid, acc)
            with else_cm:
                acc = b.mov(0, dest="acc2")
                for _ in range(20):
                    acc = b.add(acc, 2, dest="acc2")
                b.store(b.reg("out"), tid, acc)
            b.ret()
            return b.build()

        uniform = build(32)      # every lane takes the "then" side
        divergent = build(16)    # half the warp on each side
        out = np.zeros(32)
        t_uniform = p100_device.launch(uniform, grid=1, block=32, args={"out": out})
        t_divergent = p100_device.launch(divergent, grid=1, block=32, args={"out": out})
        from repro.gpu import LAUNCH_OVERHEAD_CYCLES
        uniform_kernel_cycles = t_uniform.cycles - LAUNCH_OVERHEAD_CYCLES
        divergent_kernel_cycles = t_divergent.cycles - LAUNCH_OVERHEAD_CYCLES
        assert divergent_kernel_cycles > uniform_kernel_cycles * 1.5

    def test_shared_memory_exchange_with_syncthreads(self, p100_device):
        """Each thread publishes its value; thread i then reads thread i+1's value."""
        b = KernelBuilder("exchange", params=[Param("out", "buffer")],
                          shared=[SharedDecl("tile", 64)])
        b.block("entry")
        tid = b.tid_x()
        b.store(b.reg("tile"), tid, tid)
        b.syncthreads()
        bdim = b.bdim_x()
        nxt = b.add(tid, 1)
        wrapped = b.rem(nxt, bdim)
        neighbour = b.load(b.reg("tile"), wrapped)
        b.store(b.reg("out"), tid, neighbour)
        b.ret()
        kernel = b.build()
        out = np.zeros(64)
        p100_device.launch(kernel, grid=1, block=64, args={"out": out})
        expected = (np.arange(64) + 1) % 64
        np.testing.assert_allclose(out, expected)

    def test_uninitialised_shared_memory_is_poison(self, p100_device):
        b = KernelBuilder("readshared", params=[Param("out", "buffer")],
                          shared=[SharedDecl("tile", 32)])
        b.block("entry")
        tid = b.tid_x()
        v = b.load(b.reg("tile"), tid)
        b.store(b.reg("out"), tid, v)
        b.ret()
        out = np.zeros(32)
        p100_device.launch(b.build(), grid=1, block=32, args={"out": out})
        assert np.isnan(out).all()


class TestWarpIntrinsics:
    def test_shfl_sync_neighbour_exchange(self, p100_device):
        b = KernelBuilder("shfl", params=[Param("out", "buffer")])
        b.block("entry")
        lane = b.laneid()
        mask = b.activemask()
        value = b.mul(lane, 10)
        src = b.sub(lane, 1)
        src = b.max(src, 0)
        got = b.shfl_sync(mask, value, src)
        b.store(b.reg("out"), lane, got)
        b.ret()
        out = np.zeros(32)
        p100_device.launch(b.build(), grid=1, block=32, args={"out": out})
        expected = np.maximum(np.arange(32) - 1, 0) * 10
        np.testing.assert_allclose(out, expected)

    def test_ballot_sync_counts_predicate_lanes(self, p100_device):
        b = KernelBuilder("ballot", params=[Param("out", "buffer")])
        b.block("entry")
        lane = b.laneid()
        mask = b.activemask()
        pred = b.lt(lane, 4)
        votes = b.ballot_sync(mask, pred)
        b.store(b.reg("out"), lane, votes)
        b.ret()
        out = np.zeros(32)
        p100_device.launch(b.build(), grid=1, block=32, args={"out": out})
        assert out[0] == 0b1111

    def test_atomic_add_accumulates_across_threads(self, p100_device):
        b = KernelBuilder("atomic", params=[Param("out", "buffer")])
        b.block("entry")
        b.atomic_add(b.reg("out"), 0, 1)
        b.ret()
        out = np.zeros(1)
        p100_device.launch(b.build(), grid=4, block=64, args={"out": out})
        assert out[0] == 4 * 64


class TestTraps:
    def test_out_of_bounds_store_traps(self, p100_device):
        b = KernelBuilder("oob", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        big = b.add(tid, 1000)
        b.store(b.reg("out"), big, tid)
        b.ret()
        with pytest.raises(KernelTrap):
            p100_device.launch(b.build(), grid=1, block=32, args={"out": np.zeros(8)})

    def test_undefined_register_traps(self, p100_device):
        b = KernelBuilder("undef", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        v = b.add(b.reg("never_defined"), 1)
        b.store(b.reg("out"), tid, v)
        b.ret()
        with pytest.raises(KernelTrap):
            p100_device.launch(b.build(), grid=1, block=32, args={"out": np.zeros(32)})

    def test_division_by_zero_traps(self, p100_device):
        b = KernelBuilder("divzero", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        v = b.div(10, tid)
        b.store(b.reg("out"), tid, v)
        b.ret()
        with pytest.raises(KernelTrap):
            p100_device.launch(b.build(), grid=1, block=32, args={"out": np.zeros(32)})

    def test_runaway_loop_hits_instruction_budget(self, p100_device):
        b = KernelBuilder("spin", params=[Param("out", "buffer")])
        b.block("entry")
        b.branch("spin")
        b.block("spin")
        b.branch("spin")
        with pytest.raises(KernelTrap):
            p100_device.launch(b.build(), grid=1, block=32, args={"out": np.zeros(4)},
                               max_instructions_per_warp=5_000)


class TestLoopExecution:
    def test_for_range_accumulates(self, p100_device):
        b = KernelBuilder("accum", params=[Param("out", "buffer"), Param("n", "scalar")])
        b.block("entry")
        tid = b.tid_x()
        b.mov(0, dest="sum")
        with b.for_range("i", 0, b.reg("n")) as i:
            b.add(b.reg("sum"), i, dest="sum")
        b.store(b.reg("out"), tid, b.reg("sum"))
        b.ret()
        out = np.zeros(32)
        p100_device.launch(b.build(), grid=1, block=32, args={"out": out, "n": 10})
        np.testing.assert_allclose(out, 45.0)

    def test_divergent_trip_counts(self, p100_device):
        """Each thread loops tid times: thread i accumulates i iterations."""
        b = KernelBuilder("tri", params=[Param("out", "buffer")])
        b.block("entry")
        tid = b.tid_x()
        b.mov(0, dest="sum")
        with b.for_range("i", 0, tid):
            b.add(b.reg("sum"), 1, dest="sum")
        b.store(b.reg("out"), tid, b.reg("sum"))
        b.ret()
        out = np.zeros(32)
        p100_device.launch(b.build(), grid=1, block=32, args={"out": out})
        np.testing.assert_allclose(out, np.arange(32, dtype=float))


class TestArchRegistry:
    def test_lookup_is_case_insensitive(self):
        from repro.gpu import parse_arch_list

        assert parse_arch_list("p100, v100,P100") == ("P100", "V100")

    def test_parse_rejects_unknown_names(self):
        from repro.gpu import parse_arch_list

        with pytest.raises(KeyError):
            parse_arch_list("P100,K80")
        with pytest.raises(KeyError):
            parse_arch_list(" , ")

    def test_register_arch_round_trip(self):
        from repro.gpu import ARCHITECTURES, available_archs, register_arch

        custom = get_arch("P100").with_overrides(name="P100-oc", clock_mhz=1600.0)
        try:
            register_arch(custom)
            assert get_arch("p100-oc") is custom
            assert available_archs()[-1] == "P100-oc"
            # Idempotent for an identical description...
            register_arch(custom)
            # ...but replacing a name with a different arch must be explicit
            # (the arch name is part of every fitness-cache key).
            with pytest.raises(ValueError):
                register_arch(custom.with_overrides(clock_mhz=1700.0))
            register_arch(custom.with_overrides(clock_mhz=1700.0), overwrite=True)
            assert get_arch("P100-oc").clock_mhz == 1700.0
        finally:
            ARCHITECTURES.pop("P100-oc", None)

    def test_paper_archs_keep_evaluation_order_first(self):
        from repro.gpu import available_archs

        assert available_archs()[:3] == ("P100", "1080Ti", "V100")


class TestArchitectureEffects:
    def test_clock_scales_time(self, axpy_kernel, axpy_inputs):
        x, y, n = axpy_inputs
        args = {"x": x, "a": 2.0, "n": n}
        p100 = GpuDevice(get_arch("P100")).launch(
            axpy_kernel, grid=5, block=32, args={**args, "y": y.copy()})
        gtx = GpuDevice(get_arch("1080Ti")).launch(
            axpy_kernel, grid=5, block=32, args={**args, "y": y.copy()})
        # Same cycle count per block but the 1080Ti clocks higher.
        assert gtx.time_ms < p100.time_ms

    def test_ballot_sync_is_expensive_only_on_volta(self):
        def build():
            b = KernelBuilder("bal", params=[Param("out", "buffer")])
            b.block("entry")
            lane = b.laneid()
            mask = b.activemask()
            for _ in range(50):
                mask = b.ballot_sync(mask, b.lt(lane, 16))
            b.store(b.reg("out"), lane, mask)
            b.ret()
            return b.build()

        kernel = build()
        out = np.zeros(32)
        # Counters are oracle reports.
        pascal = GpuDevice(get_arch("P100"), fast_path="oracle").launch(
            kernel, grid=1, block=32, args={"out": out})
        volta = GpuDevice(get_arch("V100"), fast_path="oracle").launch(
            kernel, grid=1, block=32, args={"out": out})
        assert volta.counters["warp_sync_cycles"] > pascal.counters["warp_sync_cycles"] * 2
