"""Section 4 micro-benchmarks: CPU, memory, storage and network tests."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".dhrystone": ("DhrystoneResult", "run_dhrystone"),
    ".network": ("PROTOCOL_EFFICIENCY", "IperfResult", "PingResult",
                 "run_iperf", "run_ping"),
    ".storage": ("DdResult", "IopingResult", "run_dd", "run_ioping"),
    ".sysbench": ("CPU_TEST_EVENTS", "SysbenchCpuResult",
                  "SysbenchMemoryResult", "run_sysbench_cpu",
                  "run_sysbench_memory"),
})
