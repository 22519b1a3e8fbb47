"""Every number the paper prints, with provenance.

This module is the single source of truth for the published measurements
of Zhao et al. (PVLDB 9(9), 2016).  Hardware profiles consume the
Section 3/4 capacities, and the claims table (``core.claims``) checks
every simulated result against these values in CI and renders
``EXPERIMENTS.md`` from them — so a calibration drift cannot hide.

Naming: ``T`` = table, ``F`` = figure, ``S`` = section of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

# ---------------------------------------------------------------------------
# Table 2 — nameplate capacities
# ---------------------------------------------------------------------------

EDISON_CORES = 2
EDISON_CORE_HZ = 500e6
EDISON_RAM_BYTES = 1 * 1024 ** 3
EDISON_NIC_BPS = 100e6                     # 100 Mb/s USB adapter

DELL_CORES = 6
DELL_THREADS_PER_CORE = 2                  # hyper-threading -> 12 vcores
DELL_CORE_HZ = 2e9
DELL_RAM_BYTES = 16 * 1024 ** 3
DELL_NIC_BPS = 1e9                         # 1 Gb/s

#: Table 2: Edisons needed to match one R620's CPU, RAM and NIC capacity.
T2_EDISONS_BY_CPU = 12
T2_EDISONS_BY_RAM = 16
T2_EDISONS_BY_NIC = 10
#: Table 2 bottom row: the largest of the three.
T2_EDISONS_PER_DELL = max(T2_EDISONS_BY_CPU, T2_EDISONS_BY_RAM,
                          T2_EDISONS_BY_NIC)

# ---------------------------------------------------------------------------
# Table 3 — measured power (watts)
# ---------------------------------------------------------------------------

T3_EDISON_BARE_IDLE_W = 0.36
T3_EDISON_BARE_BUSY_W = 0.75
T3_EDISON_IDLE_W = 1.40                    # including USB Ethernet adapter
T3_EDISON_BUSY_W = 1.68
T3_EDISON_CLUSTER35_IDLE_W = 49.0
T3_EDISON_CLUSTER35_BUSY_W = 58.8
T3_DELL_IDLE_W = 52.0
T3_DELL_BUSY_W = 109.0
T3_DELL_CLUSTER3_IDLE_W = 156.0
T3_DELL_CLUSTER3_BUSY_W = 327.0

#: An integrated Ethernet port would draw ~0.1 W (paper cites FAWN [50]);
#: used by the adapter-power ablation.
INTEGRATED_NIC_W = 0.1

# ---------------------------------------------------------------------------
# Section 4.1 — CPU
# ---------------------------------------------------------------------------

S41_DELL_DMIPS = 11383.0                   # one core, one thread, -O3
S41_EDISON_DMIPS = 632.3
S41_PER_CORE_SPEEDUP = (15.0, 18.0)        # Dell over Edison, sysbench
S41_PER_MACHINE_SPEEDUP = (90.0, 108.0)    # all cores + HT
S41_SYSBENCH_PRIME_LIMIT = 20000
#: Figure 2/3 thread counts on the x axis.
S41_SYSBENCH_THREADS = (1, 2, 4, 8)

# ---------------------------------------------------------------------------
# Section 4.2 — memory bandwidth
# ---------------------------------------------------------------------------

S42_DELL_MEM_BW = 36e9                     # bytes/s
S42_EDISON_MEM_BW = 2.2e9
S42_SATURATION_BLOCK = 256 * 1024          # transfer saturates >= 256 KiB
S42_EDISON_SATURATION_THREADS = 2
S42_DELL_SATURATION_THREADS = 12
S42_BLOCK_SIZES = (4096, 16384, 65536, 262144, 1048576)
S42_THREAD_COUNTS = (1, 2, 4, 8, 16)

# ---------------------------------------------------------------------------
# Table 5 — storage I/O (bytes/s unless noted)
# ---------------------------------------------------------------------------

T5_EDISON = MappingProxyType({
    "write_bps": 4.5e6, "buffered_write_bps": 9.3e6,
    "read_bps": 19.5e6, "buffered_read_bps": 737e6,
    "write_latency_s": 18.0e-3, "read_latency_s": 7.0e-3,
})
T5_DELL = MappingProxyType({
    "write_bps": 24.0e6, "buffered_write_bps": 83.2e6,
    "read_bps": 86.1e6, "buffered_read_bps": 3.1e9,
    "write_latency_s": 5.04e-3, "read_latency_s": 0.829e-3,
})
#: Table 5: the Dell's direct writes are ~5.3x faster than the Edison's.
T5_WRITE_RATIO = T5_DELL["write_bps"] / T5_EDISON["write_bps"]

# ---------------------------------------------------------------------------
# Section 4.4 — network
# ---------------------------------------------------------------------------

S44_TCP_BPS = MappingProxyType({
    ("dell", "dell"): 942e6,
    ("dell", "edison"): 93.9e6,
    ("edison", "edison"): 93.9e6,
})
S44_UDP_BPS = MappingProxyType({
    ("dell", "dell"): 948e6,
    ("dell", "edison"): 94.8e6,
    ("edison", "edison"): 94.8e6,
})
S44_RTT_S = MappingProxyType({
    ("dell", "dell"): 0.24e-3,
    ("dell", "edison"): 0.8e-3,
    ("edison", "edison"): 1.3e-3,
})
#: The 10x gap between the two NICs' line rates.
S44_NIC_GAP = DELL_NIC_BPS / EDISON_NIC_BPS

# ---------------------------------------------------------------------------
# Section 5.1 — web service workload
# ---------------------------------------------------------------------------

#: Table 6 — web/cache server counts per scale factor.
T6_CLUSTERS = MappingProxyType({
    # scale: (edison_web, edison_cache, dell_web, dell_cache)
    "full": (24, 11, 2, 1),
    "1/2": (12, 6, 1, 1),
    "1/4": (6, 3, None, None),
    "1/8": (3, 2, None, None),
})

S51_CONCURRENCY_LEVELS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)
S51_CACHE_HIT_RATIOS = (0.93, 0.77, 0.60)
#: image-query share -> mean reply size (bytes).
S51_REPLY_SIZES = MappingProxyType({
    0.00: 1500.0, 0.06: 3800.0, 0.10: 5800.0, 0.20: 10000.0,
})
S51_TEST_DURATION_S = 180.0                # ~3 minutes per concurrency level
S51_EDISON_MAX_CONCURRENCY = 1024          # 5xx errors beyond this
S51_DELL_MAX_CONCURRENCY = 2048
S51_PEAK_RPS_LIGHT = 6800.0                # Fig 4, full scale, approx.
S51_HEAVY_TO_LIGHT_RPS = 0.85              # Fig 6 vs Fig 4
S51_EDISON_POWER_RANGE_W = (56.0, 58.0)    # Fig 4 green line
S51_DELL_POWER_RANGE_W = (170.0, 200.0)
#: Fig 4's cluster power lines, read as the middle of each band (57/185 W).
S51_EDISON_POWER_W = sum(S51_EDISON_POWER_RANGE_W) / 2
S51_DELL_POWER_W = sum(S51_DELL_POWER_RANGE_W) / 2
S51_ENERGY_EFFICIENCY_RATIO = 3.5          # headline result

#: Peak-throughput per-server utilisation, 20 % images (Section 5.1.2).
S51_PEAK_UTILIZATION = MappingProxyType({
    ("dell", "web"): {"cpu": 0.45, "mem": 0.50, "net_Bps": 60e6},
    ("edison", "web"): {"cpu": 0.86, "mem": 0.25, "net_Bps": 5e6},
    ("dell", "cache"): {"cpu": 0.016, "mem": 0.40, "net_Bps": 50e6},
    ("edison", "cache"): {"cpu": 0.09, "mem": 0.54, "net_Bps": 4e6},
})

#: Table 7 — delay decomposition in ms: rate -> (edison, dell) tuples.
T7_ROWS = (
    # (request_rate, db_ms, cache_ms, total_ms)
    (480, (5.44, 1.61), (4.61, 0.37), (9.18, 1.43)),
    (960, (5.25, 1.56), (9.37, 0.38), (14.79, 1.60)),
    (1920, (5.33, 1.56), (76.7, 0.39), (83.4, 1.73)),
    (3840, (8.74, 1.60), (105.1, 0.46), (114.7, 1.70)),
    (7680, (10.99, 1.98), (212.0, 0.74), (225.1, 2.93)),
)

#: Figure 11 — Dell delay histogram spikes (s); SYN retransmission backoff.
F11_DELAY_SPIKES_S = (1.0, 3.0, 7.0)
#: Figures 10/11 — share of response delays above 0.9 s at ~6000 req/s,
#: read off the histograms: ~1 % on Edison, ~30 % (the SYN-backoff
#: spikes) on Dell.
F10_EDISON_ABOVE_0_9S = 0.01
F11_DELL_ABOVE_0_9S = 0.30

# ---------------------------------------------------------------------------
# Section 5.2 — MapReduce
# ---------------------------------------------------------------------------

S52_EDISON_TOTAL_MEM_MB = 960
S52_EDISON_IDLE_MEM_MB = 260
S52_EDISON_DAEMON_MEM_MB = 360             # datanode + node-manager running
S52_EDISON_TASK_MEM_MB = 600
S52_EDISON_AM_MEM_MB = 100
S52_EDISON_VCORES = 2
S52_EDISON_CONTAINER_MB = 300
S52_EDISON_BLOCK_MB = 16
S52_EDISON_REPLICATION = 2

S52_DELL_TOTAL_MEM_MB = 16 * 1024
S52_DELL_DAEMON_MEM_MB = 4 * 1024
S52_DELL_TASK_MEM_MB = 12 * 1024
S52_DELL_AM_MEM_MB = 500
S52_DELL_VCORES = 12
S52_DELL_CONTAINER_MB = 1024
S52_DELL_BLOCK_MB = 64
S52_DELL_REPLICATION = 1

S52_DATA_LOCAL_FRACTION = 0.95
S52_ALLOCATION_LEAD_RATIO = 2.3            # Edison vs Dell container alloc lead
S52_WORDCOUNT_REDUCE_START = {"edison": 0.61, "dell": 0.28}

#: Master (namenode+RM) steady usage on the Dell master, excluded from energy.
S52_MASTER_CPU = 0.01
S52_MASTER_MEM = 0.53

# Job inputs.
WORDCOUNT_INPUT_FILES = 200
WORDCOUNT_INPUT_BYTES = 1 * 1000 ** 3
WORDCOUNT_MAP_OUTPUT_RECORD_BYTES = 10
LOGCOUNT_INPUT_FILES = 500
LOGCOUNT_INPUT_BYTES = 1 * 1000 ** 3
PI_SAMPLES = 10 * 1000 ** 3                # 10 billion
PI_MAPS = {"edison": 70, "dell": 24}
TERASORT_INPUT_BYTES = 10 * 1000 ** 3      # scaled down from 1 TB
TERASORT_BLOCK_MB = 64                     # same on both clusters
TERASORT_MAPS = 168
TERASORT_REDUCES = {"edison": 70, "dell": 24}


@dataclass(frozen=True)
class JobResult:
    """One cell of Table 8: run time (s) and energy (J)."""

    seconds: float
    joules: float

    @property
    def watts(self) -> float:
        """Mean cluster power during the job."""
        return self.joules / self.seconds


#: Table 8 — execution time and energy under different cluster sizes.
#: job -> platform -> cluster size -> JobResult.
T8 = MappingProxyType({
    "wordcount": {
        "edison": {35: JobResult(310, 17670), 17: JobResult(1065, 29485),
                   8: JobResult(1817, 23673), 4: JobResult(3283, 21386)},
        "dell": {2: JobResult(213, 40214), 1: JobResult(310, 30552)},
    },
    "wordcount2": {
        "edison": {35: JobResult(182, 10370), 17: JobResult(270, 7475),
                   8: JobResult(450, 5862), 4: JobResult(1192, 7765)},
        "dell": {2: JobResult(66, 11695), 1: JobResult(93, 8124)},
    },
    "logcount": {
        "edison": {35: JobResult(279, 15903), 17: JobResult(601, 16860),
                   8: JobResult(990, 12898), 4: JobResult(2233, 14546)},
        "dell": {2: JobResult(206, 40803), 1: JobResult(516, 53303)},
    },
    "logcount2": {
        "edison": {35: JobResult(115, 6555), 17: JobResult(118, 3267),
                   8: JobResult(125, 1629), 4: JobResult(162, 1055)},
        "dell": {2: JobResult(59, 9486), 1: JobResult(88, 6905)},
    },
    "pi": {
        "edison": {35: JobResult(200, 11445), 17: JobResult(334, 9247),
                   8: JobResult(577, 7517), 4: JobResult(1076, 7009)},
        "dell": {2: JobResult(50, 9285), 1: JobResult(77, 6878)},
    },
    "terasort": {
        "edison": {35: JobResult(750, 43440), 17: JobResult(1364, 37763),
                   8: JobResult(3736, 48675), 4: JobResult(8220, 53547)},
        "dell": {2: JobResult(331, 64210), 1: JobResult(1336, 111422)},
    },
})

#: Headline energy-efficiency ratios quoted in Section 5.2 / Table 8.
S52_EFFICIENCY_GAINS = MappingProxyType({
    "wordcount": 2.28, "wordcount2": 1.113, "logcount": 2.57,
    "logcount2": 1.447, "pi": 1 / 1.233, "terasort": 1.32,
})

#: Figures 13/16 — wordcount2 (combined inputs) cuts the full-scale
#: wordcount time by 41 % on Edison and 69 % on Dell (Table 8's cells).
S52_WORDCOUNT2_TIME_CUT = MappingProxyType({
    platform: 1 - (T8["wordcount2"][platform][slaves].seconds
                   / T8["wordcount"][platform][slaves].seconds)
    for platform, slaves in (("edison", 35), ("dell", 2))})

#: Figures 14/17 — the Dell cluster finishes pi ~4x sooner (Table 8).
S52_PI_EDISON_OVER_DELL_TIME = (T8["pi"]["edison"][35].seconds
                                / T8["pi"]["dell"][2].seconds)

#: Section 5.3 — mean speed-up per cluster-size doubling.
S53_EDISON_MEAN_SPEEDUP = 1.90
S53_DELL_MEAN_SPEEDUP = 2.07

# ---------------------------------------------------------------------------
# Section 6 — TCO (Table 9 & 10)
# ---------------------------------------------------------------------------

T9_EDISON_NODE_COST = 120.0                # $68 module + $15 NIC + $27 SD + $10 switch share
T9_DELL_NODE_COST = 2500.0
T9_ELECTRICITY_PER_KWH = 0.10
T9_LIFETIME_YEARS = 3.0
T9_UTIL_HIGH = 0.75
T9_UTIL_LOW = 0.10
T9_BIGDATA_DELL_UTIL_HIGH = 0.74
T9_BIGDATA_DELL_UTIL_LOW = 0.25

T10 = MappingProxyType({
    ("web", "low"): {"dell": 7948.7, "edison": 4329.5},
    ("web", "high"): {"dell": 8236.8, "edison": 4346.1},
    ("bigdata", "low"): {"dell": 5348.2, "edison": 4352.4},
    ("bigdata", "high"): {"dell": 5495.0, "edison": 4352.4},
})
#: Section 6: the Edison cluster saves up to 47 % of the 3-year TCO.
T10_BEST_SAVINGS = 0.47
