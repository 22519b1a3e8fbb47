"""Calibrated hardware profiles for the two platforms under test.

Every parameter is either read straight out of the paper or derived from
two paper numbers; each derivation is documented inline.  These profiles
are the *only* place platform capacities enter the simulation.
"""

from __future__ import annotations

from ..core import paperdata as paper
from ..sim import Simulation
from .cpu import CpuSpec, derive_pstates
from .memory import MemorySpec
from .nic import NicSpec
from .power import PowerSpec
from .server import Server, ServerSpec
from .storage import StorageSpec

# Derivation: Section 4.1 measures a single Dell thread at 11383 DMIPS and
# the whole hyper-threaded machine at 90-108x one Edison (2 x 632.3 DMIPS).
# Taking the 100x midpoint: per-vcore sustained = 100 * 1264.6 / 12
# = 10538 DMIPS, i.e. an SMT efficiency of 10538 / 11383 = 0.926.
_DELL_SMT_EFFICIENCY = 0.926

# DVFS operating points.  The Edison's Silvermont Atom steps 500 ->
# 400 -> 333 -> 250 MHz; the R620's E5-2620 walks 2.0 GHz down to
# 1.2 GHz in 200 MHz P-states.  DMIPS track frequency; the busy power
# span shrinks as f^2 (voltage riding frequency), so P0 of either
# table is bit-exactly the nominal Table 3 bracket and the deepest
# states trade ~2-4x the service time for ~4-9x less marginal power —
# which is exactly the non-monotone efficiency-vs-frequency surface
# the GreenLab replication measures on real microservices.
_EDISON_PSTATES = derive_pstates((1.0, 0.8, 0.666, 0.5))
_DELL_PSTATES = derive_pstates((1.0, 0.9, 0.8, 0.7, 0.6))

EDISON = ServerSpec(
    platform="edison",
    cpu=CpuSpec(
        cores=paper.EDISON_CORES,
        threads_per_core=1,
        dmips_per_thread=paper.S41_EDISON_DMIPS,
        pstates=_EDISON_PSTATES,
    ),
    memory=MemorySpec(
        capacity_bytes=paper.EDISON_RAM_BYTES,
        peak_bandwidth_bps=paper.S42_EDISON_MEM_BW,
        saturation_threads=paper.S42_EDISON_SATURATION_THREADS,
    ),
    storage=StorageSpec(
        write_bps=paper.T5_EDISON["write_bps"],
        buffered_write_bps=paper.T5_EDISON["buffered_write_bps"],
        read_bps=paper.T5_EDISON["read_bps"],
        buffered_read_bps=paper.T5_EDISON["buffered_read_bps"],
        write_latency_s=paper.T5_EDISON["write_latency_s"],
        read_latency_s=paper.T5_EDISON["read_latency_s"],
    ),
    nic=NicSpec(bandwidth_bps=paper.EDISON_NIC_BPS, usb_adapter=True),
    # Table 3: with the USB adapter the node spans 1.40-1.68 W.  All the
    # paper's cluster measurements include adapters, so those endpoints
    # are matched exactly: 0.36 W idle SoC + 1.04 W adapter = 1.40 W and
    # busy span 0.28 W on top.  (The bare-node busy reading of 0.75 W
    # implies the adapter sheds ~0.1 W under load; within meter noise.)
    power=PowerSpec(
        idle_w=paper.T3_EDISON_BARE_IDLE_W,
        busy_w=paper.T3_EDISON_BUSY_W - (
            paper.T3_EDISON_IDLE_W - paper.T3_EDISON_BARE_IDLE_W),
        adapter_w=paper.T3_EDISON_IDLE_W - paper.T3_EDISON_BARE_IDLE_W,
    ),
    node_cost_usd=paper.T9_EDISON_NODE_COST,
)

#: Ablation profile: the same Edison with an integrated 0.1 W Ethernet
#: port instead of the ~1 W USB adapter (Section 3.2 / FAWN comparison).
EDISON_INTEGRATED_NIC = ServerSpec(
    platform="edison",
    cpu=EDISON.cpu,
    memory=EDISON.memory,
    storage=EDISON.storage,
    nic=NicSpec(bandwidth_bps=paper.EDISON_NIC_BPS, usb_adapter=False),
    power=EDISON.power.with_adapter(paper.INTEGRATED_NIC_W),
    node_cost_usd=paper.T9_EDISON_NODE_COST - 15.0,  # minus the $15 adapter
)

DELL_R620 = ServerSpec(
    platform="dell",
    cpu=CpuSpec(
        cores=paper.DELL_CORES,
        threads_per_core=paper.DELL_THREADS_PER_CORE,
        dmips_per_thread=paper.S41_DELL_DMIPS,
        smt_efficiency=_DELL_SMT_EFFICIENCY,
        pstates=_DELL_PSTATES,
    ),
    memory=MemorySpec(
        capacity_bytes=paper.DELL_RAM_BYTES,
        peak_bandwidth_bps=paper.S42_DELL_MEM_BW,
        saturation_threads=paper.S42_DELL_SATURATION_THREADS,
    ),
    storage=StorageSpec(
        write_bps=paper.T5_DELL["write_bps"],
        buffered_write_bps=paper.T5_DELL["buffered_write_bps"],
        read_bps=paper.T5_DELL["read_bps"],
        buffered_read_bps=paper.T5_DELL["buffered_read_bps"],
        write_latency_s=paper.T5_DELL["write_latency_s"],
        read_latency_s=paper.T5_DELL["read_latency_s"],
    ),
    nic=NicSpec(bandwidth_bps=paper.DELL_NIC_BPS),
    power=PowerSpec(idle_w=paper.T3_DELL_IDLE_W, busy_w=paper.T3_DELL_BUSY_W),
    node_cost_usd=paper.T9_DELL_NODE_COST,
)

PROFILES = {"edison": EDISON, "dell": DELL_R620}

#: Seconds from an admin power-on until a platform serves again.  The
#: Edison runs Yocto off flash and is up in single-digit seconds; an
#: R620 POSTs its way through iDRAC, RAID and PXE for tens of seconds.
#: Scaled to the compressed simulated days the same way the port-pool
#: constants are.  Read by the autoscaler's boots and carbon's
#: suspend-resume governor.
BOOT_S = {"edison": 8.0, "dell": 15.0}


def make_server(sim: Simulation, spec: ServerSpec, name: str) -> Server:
    """Instantiate one server of the given profile inside ``sim``."""
    return Server(sim, spec, name)
