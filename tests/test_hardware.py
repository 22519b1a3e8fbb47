"""Unit tests for the hardware models and calibrated profiles."""

import pytest

from repro.core import paperdata as paper
from repro.hardware import (
    Cpu, CpuSpec, DELL_R620, EDISON, EDISON_INTEGRATED_NIC, Memory,
    MemorySpec, NicSpec, PowerSpec, StorageSpec, make_server,
)
from repro.sim import Simulation


# -- CpuSpec / Cpu ----------------------------------------------------------

def test_cpuspec_vcores_and_dmips():
    spec = CpuSpec(cores=6, threads_per_core=2, dmips_per_thread=1000,
                   smt_efficiency=0.9)
    assert spec.vcores == 12
    assert spec.vcore_dmips == pytest.approx(900)
    assert spec.machine_dmips == pytest.approx(10800)


def test_cpuspec_no_smt_keeps_full_thread_speed():
    spec = CpuSpec(cores=2, threads_per_core=1, dmips_per_thread=632.3,
                   smt_efficiency=0.5)  # ignored without SMT
    assert spec.vcore_dmips == pytest.approx(632.3)


def test_cpuspec_validation():
    with pytest.raises(ValueError):
        CpuSpec(cores=0, threads_per_core=1, dmips_per_thread=100)
    with pytest.raises(ValueError):
        CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=-5)
    with pytest.raises(ValueError):
        CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=100,
                smt_efficiency=1.5)


def test_cpu_service_time():
    sim = Simulation()
    cpu = Cpu(sim, CpuSpec(cores=1, threads_per_core=1, dmips_per_thread=500))
    assert cpu.service_time(1000) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cpu.service_time(-1)


def test_cpu_execute_queues_beyond_vcores():
    sim = Simulation()
    cpu = Cpu(sim, CpuSpec(cores=2, threads_per_core=1, dmips_per_thread=100))
    done = []

    def task(tag):
        yield from cpu.execute(100)  # 1 second each
        done.append((tag, sim.now))

    for tag in range(4):
        sim.process(task(tag))
    sim.run()
    # Two run immediately, two queue behind them.
    assert done == [(0, 1), (1, 1), (2, 2), (3, 2)]


def test_cpu_utilization_probe():
    sim = Simulation()
    cpu = Cpu(sim, CpuSpec(cores=2, threads_per_core=1, dmips_per_thread=100))
    sim.process(cpu.execute(100))
    sim.run(until=0.5)
    assert cpu.utilization() == pytest.approx(0.5)


# -- MemorySpec / Memory ------------------------------------------------------

def test_memory_bandwidth_saturates_with_block_size():
    spec = MemorySpec(capacity_bytes=1e9, peak_bandwidth_bps=2.2e9,
                      saturation_threads=2)
    small = spec.bandwidth(4096, threads=2)
    large = spec.bandwidth(1 << 20, threads=2)
    assert small < large
    assert large >= 0.95 * 2.2e9  # near peak at 1 MiB blocks


def test_memory_bandwidth_saturates_with_threads():
    spec = MemorySpec(capacity_bytes=1e9, peak_bandwidth_bps=36e9,
                      saturation_threads=12)
    assert spec.bandwidth(1 << 20, 1) < spec.bandwidth(1 << 20, 12)
    assert spec.bandwidth(1 << 20, 12) == pytest.approx(
        spec.bandwidth(1 << 20, 16))


def test_memory_reserve_free_cycle():
    sim = Simulation()
    mem = Memory(sim, MemorySpec(capacity_bytes=100, peak_bandwidth_bps=1e9,
                                 saturation_threads=1))
    mem.reserve(60)
    sim.run()
    assert mem.utilization() == pytest.approx(0.6)
    mem.free(60)
    sim.run()
    assert mem.utilization() == 0


def test_memory_transfer_time():
    sim = Simulation()
    mem = Memory(sim, MemorySpec(capacity_bytes=1e9, peak_bandwidth_bps=1e9,
                                 saturation_threads=1, half_rate_block=0.001))
    # 5e8 bytes streamed in 1 MiB blocks on one thread.
    assert 5e8 / mem.spec.bandwidth(1 << 20, 1) == pytest.approx(
        0.5, rel=1e-3)


# -- StorageSpec ------------------------------------------------------------

def test_storage_rates_and_latency_lookup():
    spec = StorageSpec(write_bps=10, buffered_write_bps=20, read_bps=30,
                       buffered_read_bps=40, write_latency_s=0.1,
                       read_latency_s=0.2)
    assert spec.rate("write", buffered=False) == 10
    assert spec.rate("write", buffered=True) == 20
    assert spec.rate("read", buffered=False) == 30
    assert spec.rate("read", buffered=True) == 40
    assert spec.latency("write") == 0.1
    assert spec.latency("read") == 0.2
    with pytest.raises(ValueError):
        spec.rate("seek", buffered=False)


def test_storage_io_serialises_on_channel():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    disk = server.storage
    done = []

    def write(tag):
        yield from disk.write(4.5e6)  # 1 s transfer + 18 ms latency
        done.append((tag, sim.now))

    sim.process(write("a"))
    sim.process(write("b"))
    sim.run()
    assert done[0][1] == pytest.approx(1.018)
    assert done[1][1] == pytest.approx(2.036)
    assert disk.bytes_written == pytest.approx(9e6)


# -- PowerSpec ---------------------------------------------------------------

def test_power_endpoints_match_table3():
    assert EDISON.power.min_w == pytest.approx(paper.T3_EDISON_IDLE_W)
    assert EDISON.power.max_w == pytest.approx(paper.T3_EDISON_BUSY_W)
    assert DELL_R620.power.min_w == pytest.approx(paper.T3_DELL_IDLE_W)
    assert DELL_R620.power.max_w == pytest.approx(paper.T3_DELL_BUSY_W)


def test_cluster35_power_matches_table3():
    idle = 35 * EDISON.power.min_w
    busy = 35 * EDISON.power.max_w
    assert idle == pytest.approx(paper.T3_EDISON_CLUSTER35_IDLE_W)
    assert busy == pytest.approx(paper.T3_EDISON_CLUSTER35_BUSY_W)


def test_power_interpolates_between_endpoints():
    spec = PowerSpec(idle_w=50, busy_w=100,
                     weights={"cpu": 1.0})
    assert spec.power({"cpu": 0.0}) == 50
    assert spec.power({"cpu": 1.0}) == 100
    assert spec.power({"cpu": 0.5}) == 75


def test_power_clamps_out_of_range_utilization():
    spec = PowerSpec(idle_w=50, busy_w=100, weights={"cpu": 1.0})
    assert spec.power({"cpu": 2.0}) == 100
    assert spec.power({"cpu": -1.0}) == 50


def test_power_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        PowerSpec(idle_w=1, busy_w=2, weights={"cpu": 0.5})


def test_power_unknown_component_key_raises():
    # Regression: a typo'd component key ("network" for "net") used to
    # silently count as idle, billing idle watts for a busy component
    # and skewing every work-per-joule figure downstream.
    spec = PowerSpec(idle_w=50, busy_w=100)
    with pytest.raises(ValueError, match="network"):
        spec.power({"cpu": 0.5, "network": 0.9})
    with pytest.raises(ValueError):
        spec.power({"CPU": 1.0})
    # ...and so does a weight no server reports.
    with pytest.raises(ValueError, match="network"):
        PowerSpec(idle_w=50, busy_w=100, weights={"network": 1.0})
    # Absent components still legitimately count as idle.
    assert spec.power({}) == spec.min_w


def test_effective_utilization_clamps_like_min_max():
    spec = PowerSpec(idle_w=50, busy_w=100, weights={"cpu": 1.0})
    for value in (-1.0, -0.0, 0.0, 0.25, 1.0, 1.5, float("inf"),
                  float("-inf"), float("nan"), 0, 1, 2):
        expected = 50 + 50 * (0.0 + 1.0 * min(1.0, max(0.0, value))) + 0.0
        got = spec.window_power((value, 0.0, 0.0, 0.0))
        assert got == expected and type(got) is type(expected)
        assert spec.power({"cpu": value}) == got
    assert spec.power({"cpu": float("nan")}) == spec.min_w


def test_power_without_adapter_ablation():
    bare = EDISON.power.with_adapter(0.0)
    assert bare.min_w == pytest.approx(paper.T3_EDISON_BARE_IDLE_W)
    assert bare.adapter_w == 0
    integrated = EDISON_INTEGRATED_NIC.power
    assert integrated.adapter_w == pytest.approx(paper.INTEGRATED_NIC_W)


# -- Profiles / Server --------------------------------------------------------

def test_dell_machine_speedup_near_100x():
    ratio = DELL_R620.cpu.machine_dmips / EDISON.cpu.machine_dmips
    low, high = paper.S41_PER_MACHINE_SPEEDUP
    assert low <= ratio <= high


def test_dell_per_thread_speedup_matches_dhrystone():
    ratio = DELL_R620.cpu.dmips_per_thread / EDISON.cpu.dmips_per_thread
    assert ratio == pytest.approx(
        paper.S41_DELL_DMIPS / paper.S41_EDISON_DMIPS)


def test_nic_specs_match_table2():
    assert EDISON.nic.bandwidth_bps == paper.EDISON_NIC_BPS
    assert DELL_R620.nic.bandwidth_bps == paper.DELL_NIC_BPS
    assert EDISON.nic.usb_adapter
    assert not DELL_R620.nic.usb_adapter


def test_nicspec_validation():
    with pytest.raises(ValueError):
        NicSpec(bandwidth_bps=0)


def test_server_utilization_window_idle():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    sim.run(until=10)
    cpu, _mem, disk, net = server.utilization_window()
    assert cpu == 0
    assert disk == 0
    assert net == 0


def test_server_utilization_window_cpu_busy():
    sim = Simulation()
    server = make_server(sim, DELL_R620, "d0")

    def hog():
        # Hold all 12 vcores for 10 s.
        for _ in range(12):
            sim.process(server.cpu.execute(
                10 * server.spec.cpu.vcore_dmips))
        yield sim.timeout(0)

    sim.process(hog())
    sim.run(until=10)
    window = server.utilization_window()
    assert window[0] == pytest.approx(1.0, rel=1e-6)
    watts = server.spec.power.window_power(window)
    assert watts > server.spec.power.min_w


def test_server_power_now_idle_equals_min():
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    sim.run(until=1)
    watts = server.spec.power.window_power(server.utilization_window(),
                                           server.cpu.pstate)
    assert watts == pytest.approx(EDISON.power.min_w)
