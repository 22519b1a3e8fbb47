"""Calibrated hardware models: CPU, memory, storage, NIC, power, servers."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".cpu": ("NOMINAL_PSTATE", "Cpu", "CpuSpec", "PState", "derive_pstates"),
    ".memory": ("Memory", "MemorySpec"),
    ".nic": ("Nic", "NicSpec"),
    ".power": ("DEFAULT_WEIGHTS", "PowerSpec"),
    ".profiles": ("BOOT_S", "DELL_R620", "EDISON", "EDISON_INTEGRATED_NIC",
                  "PROFILES", "make_server"),
    ".server": ("Server", "ServerSpec"),
    ".storage": ("Storage", "StorageSpec"),
})
