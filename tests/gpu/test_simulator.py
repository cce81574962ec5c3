"""Tests for the DeviceSimulator façade."""

import numpy as np
import pytest

from repro.gpu.access import BurstPattern
from repro.gpu.faults import AllocationError, FaultInjector, FaultSpec
from repro.gpu.isa import InstructionMix
from repro.gpu.kernel import KernelSpec, MemoryAccessSpec
from repro.gpu.simulator import DeviceMemoryError, DeviceSimulator
from repro.gpu.specs import GEFORCE_8800_GT, GEFORCE_8800_GTX


@pytest.fixture
def sim():
    return DeviceSimulator(GEFORCE_8800_GTX)


def tiny_spec():
    mem = MemoryAccessSpec(BurstPattern(0, (1024,), (128,), 1, 128, 128))
    return KernelSpec("k", 48, 64, 16, 0, 1024, InstructionMix(flops=10.0), (mem,))


class TestAllocator:
    def test_allocation_tracked(self, sim):
        arr = sim.allocate((64, 64, 64), np.complex64, "a")
        assert sim.used_bytes >= arr.nbytes
        sim.free(arr)
        assert sim.used_bytes == 0

    def test_capacity_enforced(self):
        sim = DeviceSimulator(GEFORCE_8800_GT)  # 512 MB card
        with pytest.raises(DeviceMemoryError, match="out-of-core"):
            sim.allocate((512, 512, 512), np.complex64)  # 1 GB

    def test_capacity_checked_before_host_storage(self):
        # 64 GiB: far beyond the card, and beyond most hosts too.  The
        # device refusal (with its out-of-core hint) must come first, and
        # before the injector is consulted, so fault schedules stay put.
        inj = FaultInjector([FaultSpec("alloc-fail", at_ops=(0,))], seed=1)
        sim = DeviceSimulator(GEFORCE_8800_GTX, fault_injector=inj)
        with pytest.raises(DeviceMemoryError, match="out-of-core"):
            sim.allocate((2048, 2048, 2048), np.complex64, "huge")
        assert inj.fired_counts == {}
        with pytest.raises(AllocationError):  # at_ops=(0,) still unspent
            sim.allocate((4,), np.complex64, "small")

    def test_512cubed_needs_out_of_core_even_on_gtx(self, sim):
        # The Section 3.3 motivation: 512^3 + work buffer > 768 MB.
        sim.allocate((512, 512, 256), np.complex64, "half")  # 512 MB fits
        with pytest.raises(DeviceMemoryError):
            sim.allocate((512, 512, 256), np.complex64, "work")

    def test_duplicate_names_rejected(self, sim):
        sim.allocate((4,), np.complex64, "x")
        with pytest.raises(ValueError):
            sim.allocate((4,), np.complex64, "x")

    def test_free_unknown_rejected(self, sim):
        other = DeviceSimulator(GEFORCE_8800_GTX)
        arr = other.allocate((4,), np.complex64, "y")
        with pytest.raises(KeyError):
            sim.free(arr)

    def test_distinct_base_addresses(self, sim):
        a = sim.allocate((1024,), np.complex64, "a")
        b = sim.allocate((1024,), np.complex64, "b")
        assert b.base >= a.base + a.nbytes


class TestMemoryPressure:
    def test_capacity_error_reports_sizes(self):
        sim = DeviceSimulator(GEFORCE_8800_GT)  # 512 MB card
        sim.allocate((256, 512, 512), np.complex64, "half")  # 512 MB... minus
        with pytest.raises(DeviceMemoryError) as exc:
            sim.allocate((256, 512, 512), np.complex64, "again")
        msg = str(exc.value)
        assert "512 MiB" in msg  # requested size
        assert "8800 GT" in msg  # which card refused
        assert "out-of-core" in msg  # where to go instead

    def test_free_reclaims_capacity(self):
        sim = DeviceSimulator(GEFORCE_8800_GT)
        arr = sim.allocate((256, 512, 512), np.complex64, "big")
        with pytest.raises(DeviceMemoryError):
            sim.allocate((256, 512, 512), np.complex64, "more")
        sim.free(arr)
        # The same request succeeds once the first buffer is released.
        again = sim.allocate((256, 512, 512), np.complex64, "more")
        assert sim.used_bytes >= again.nbytes

    def test_allocate_free_cycling_is_stable(self):
        # A long-lived simulator (many transforms) must not leak tracked
        # capacity through repeated allocate/free cycles.
        sim = DeviceSimulator(GEFORCE_8800_GT)
        for i in range(200):
            arr = sim.allocate((64, 64, 64), np.complex64, f"cycle{i}")
            sim.free(arr)
        assert sim.used_bytes == 0
        assert sim.free_bytes == sim.device.memory_bytes

    def test_near_capacity_boundary(self):
        sim = DeviceSimulator(GEFORCE_8800_GT)
        fill = sim.allocate((sim.free_bytes // 8,), np.complex64, "fill")
        assert sim.free_bytes < 8 + sim.ALIGN
        with pytest.raises(DeviceMemoryError):
            sim.allocate((1024,), np.complex64, "straw")
        sim.free(fill)
        assert sim.used_bytes == 0


class TestTransfers:
    def test_h2d_copies_data(self, sim, rng):
        host = (rng.standard_normal((8, 8)) + 0j).astype(np.complex64)
        dev = sim.allocate((8, 8), np.complex64, "d")
        t = sim.h2d(host, dev)
        np.testing.assert_array_equal(dev.data, host)
        assert t > 0

    def test_d2h_copies_back(self, sim, rng):
        dev = sim.allocate((8,), np.complex64, "d")
        dev.data[:] = np.arange(8)
        host = np.empty(8, np.complex64)
        sim.d2h(dev, host)
        np.testing.assert_array_equal(host, np.arange(8))

    def test_transfer_time_matches_link(self, sim, rng):
        host = np.zeros(1 << 20, np.complex64)
        dev = sim.allocate((1 << 20,), np.complex64, "d")
        t = sim.h2d(host, dev)
        assert t == pytest.approx(sim.pcie.transfer_time(host.nbytes, "h2d"))

    def test_size_mismatch_rejected(self, sim):
        dev = sim.allocate((8,), np.complex64, "d")
        with pytest.raises(ValueError):
            sim.h2d(np.zeros(16, np.complex64), dev)

    def test_alias_transfer_is_charged_but_moves_nothing(self, rng):
        host = (rng.standard_normal(64) + 0j).astype(np.complex64)
        events = []
        for aliased in (False, True):
            sim = DeviceSimulator(GEFORCE_8800_GTX)
            dev = sim.allocate((64,), np.complex64, "d")
            target = dev.alias(host) if aliased else dev
            assert (target.name, target.base) == (dev.name, dev.base)
            sim.h2d(host, target, "up")
            sim.d2h(target, host, "down")
            events.append([
                (e.kind, e.label, e.seconds, e.bytes_moved, e.start, e.stream)
                for e in sim.events()
            ])
        assert events[0] == events[1]
        assert not dev.data.any()  # the aliased upload left the buffer alone

    def test_transfer_seconds_accumulate(self, sim):
        host = np.zeros(1024, np.complex64)
        dev = sim.allocate((1024,), np.complex64, "d")
        sim.h2d(host, dev)
        sim.d2h(dev, host)
        assert sim.transfer_seconds == pytest.approx(sim.elapsed)


class TestLaunches:
    def test_body_executed(self, sim):
        hit = {}

        def body(v):
            hit["x"] = v

        sim.launch(tiny_spec(), body, 42)
        assert hit["x"] == 42

    def test_timing_charged(self, sim):
        sim.launch(tiny_spec())
        assert sim.kernel_seconds > 0
        assert len(sim.launches()) == 1

    def test_charge_external_time(self, sim):
        sim.charge("custom", 0.5)
        assert sim.elapsed == pytest.approx(0.5)

    def test_negative_charge_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.charge("bad", -1.0)

    def test_reset_clock_keeps_allocations(self, sim):
        arr = sim.allocate((4,), np.complex64, "keep")
        sim.launch(tiny_spec())
        sim.reset_clock()
        assert sim.elapsed == 0.0
        assert sim.used_bytes >= arr.nbytes
