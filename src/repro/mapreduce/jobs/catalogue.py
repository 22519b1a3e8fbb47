"""The job catalogue: Section 5.2's jobs, their inputs and their tuning.

Every job is one call to :func:`_job`, which sizes the containers the
same way the paper does: 300 MB (Edison) / 1 GB (Dell) containers for
every task, except the original wordcount and logcount, which keep
their 150 MB / 500 MB maps.  The original jobs run one map container
per input file; the optimized wordcount2 and logcount2 combine their
inputs into one map container per vcore (:func:`_per_vcore_job`).

Calibration (protocol in costs.py): wordcount's path lengths fit the
Edison-35 row of Table 8 (310 s / 182 s), its Dell java factor fits the
Dell-2 row (213 s / 66 s); all other cluster sizes are predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

from ...core import paperdata as paper
from ..config import HadoopConfig, default_config
from ..costs import JobCosts
from ..runtime import JobSpec


@dataclass(frozen=True)
class Dataset:
    """A job's input as the runtime reads it: its size and its output."""

    total_bytes: int
    #: Input files; the original jobs run one map container per file.
    file_count: int
    #: Map output bytes per input byte (before any combiner).
    map_output_ratio: float
    #: Fraction of map-output volume surviving a combiner pass.
    combine_survival: float

    def __post_init__(self):
        if self.file_count < 1 or self.total_bytes < self.file_count:
            raise ValueError("need total_bytes >= file_count >= 1")
        if self.map_output_ratio < 0 or not 0 < self.combine_survival <= 1:
            raise ValueError("invalid output/combine ratios")


#: Mean word length (letters) plus the separating space.
MEAN_WORD_BYTES = 6.0
#: The paper's 1 GB / 200-file wordcount input.  Each ~6-byte word
#: becomes a ~10-byte ``<word, 1>`` record.  With ~5 MB splits (~870 k
#: words) a Zipf corpus has ~35 k distinct words, so a sum-combiner
#: keeps ~4 % of the records.
WORDCOUNT_INPUT = Dataset(
    paper.WORDCOUNT_INPUT_BYTES, paper.WORDCOUNT_INPUT_FILES,
    map_output_ratio=paper.WORDCOUNT_MAP_OUTPUT_RECORD_BYTES
    / MEAN_WORD_BYTES,
    combine_survival=0.04)

#: Mean bytes of one Yarn log line.
MEAN_LOG_LINE_BYTES = 120.0
#: Serialised ``<date level, 1>`` record size.
LOG_KEY_RECORD_BYTES = 20.0
#: The paper's 1 GB / 500-file Yarn log input.  Long lines yield tiny
#: keys, and a split holds only a few dozen distinct (date, level) keys,
#: so the combiner keeps almost nothing of the map output volume.
LOGCOUNT_INPUT = Dataset(
    paper.LOGCOUNT_INPUT_BYTES, paper.LOGCOUNT_INPUT_FILES,
    map_output_ratio=LOG_KEY_RECORD_BYTES / MEAN_LOG_LINE_BYTES,
    combine_survival=0.002)

#: The scaled-down 10 GB terasort input: 168 files of ~60 MB of 100-byte
#: records, one per 64 MB block.  The map is the identity, and no
#: combiner can shrink a sort.
TERASORT_INPUT = Dataset(
    paper.TERASORT_INPUT_BYTES, paper.TERASORT_MAPS,
    map_output_ratio=1.0, combine_survival=1.0)

#: Container sizes (MB) the paper sets per platform.
CONTAINER_MB = {"edison": 300, "dell": 1024}
#: The original wordcount and logcount maps' smaller containers (MB).
SMALL_MAP_MB = {"edison": 150, "dell": 500}


def _vcores(platform: str, slaves: int) -> int:
    return default_config(platform).node_vcores * slaves


def _job(name: str, costs: JobCosts, platform: str,
         dataset: Optional[Dataset], *, reduces: int,
         maps: Optional[int] = None, combiner: bool = False,
         output_ratio: float = 0.0,
         config: Optional[HadoopConfig] = None,
         map_mb: Mapping[str, int] = CONTAINER_MB
         ) -> Tuple[JobSpec, HadoopConfig]:
    """Build one job: ``maps`` defaults to one per input file."""
    spec = JobSpec(
        name=name, costs=costs,
        map_tasks=dataset.file_count if maps is None else maps,
        reduce_tasks=reduces,
        map_mem_mb=map_mb[platform], reduce_mem_mb=CONTAINER_MB[platform],
        dataset=dataset, combiner=combiner, output_ratio=output_ratio)
    return spec, default_config(platform) if config is None else config


def _per_vcore_job(name: str, costs: JobCosts, platform: str, slaves: int,
                   dataset: Dataset, output_ratio: float
                   ) -> Tuple[JobSpec, HadoopConfig]:
    """An optimized job: combined inputs, one map container per vcore.

    For smaller clusters the paper raises the HDFS block size so this
    tuning still holds (Section 5.3).
    """
    config = default_config(platform)
    maps = config.node_vcores * slaves
    split_mb = math.ceil(dataset.total_bytes / maps / 1e6)
    if split_mb > config.block_mb:
        config = config.with_block_mb(split_mb)
    return _job(name, costs, platform, dataset, maps=maps, reduces=maps,
                combiner=True, output_ratio=output_ratio, config=config)


# -- wordcount (Section 5.2.1) ------------------------------------------------

#: Per-phase CPU path lengths (MI/MB), fitted per the costs.py protocol.
#: The two variants were calibrated independently and landed on nearly
#: identical base path lengths (2235 vs 2280 MI/MB map) — evidence the
#: per-byte model is sound; their Dell factors differ because wordcount
#: co-schedules twice as many containers per vcore (density thrash).
WORDCOUNT_COSTS = JobCosts(
    map_mi_per_mb=2235.0,
    sort_mi_per_mb=838.0,
    reduce_mi_per_mb=1863.0,
    java_factor={"edison": 1.0, "dell": 2.65},
)

WORDCOUNT2_COSTS = JobCosts(
    map_mi_per_mb=2280.0,
    sort_mi_per_mb=855.0,
    reduce_mi_per_mb=1900.0,
    java_factor={"edison": 1.0, "dell": 2.11},
)


def wordcount_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """The original wordcount: 200 small map containers, no combiner."""
    return _job("wordcount", WORDCOUNT_COSTS, platform, WORDCOUNT_INPUT,
                reduces=_vcores(platform, slaves), output_ratio=0.05,
                map_mb=SMALL_MAP_MB)


def wordcount2_job(platform: str, slaves: int
                   ) -> Tuple[JobSpec, HadoopConfig]:
    """The optimized wordcount: combined inputs + combiner class."""
    return _per_vcore_job("wordcount2", WORDCOUNT2_COSTS, platform, slaves,
                          WORDCOUNT_INPUT, output_ratio=0.05)


# -- logcount (Section 5.2.2) -------------------------------------------------

#: Fitted per the costs.py protocol.  logcount's wall time is dominated
#: by 500 task-JVM startups, so its per-byte path lengths are small.
LOGCOUNT_COSTS = JobCosts(
    map_mi_per_mb=546.0,
    sort_mi_per_mb=198.0,
    reduce_mi_per_mb=397.0,
    java_factor={"edison": 1.0, "dell": 2.30},
)

LOGCOUNT2_COSTS = JobCosts(
    map_mi_per_mb=808.0,
    sort_mi_per_mb=294.0,
    reduce_mi_per_mb=588.0,
    java_factor={"edison": 1.0, "dell": 4.52},
)


def logcount_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """The original logcount: 500 containers (the paper's worst case for
    coordination overhead), combiner enabled."""
    return _job("logcount", LOGCOUNT_COSTS, platform, LOGCOUNT_INPUT,
                reduces=_vcores(platform, slaves), combiner=True,
                output_ratio=0.01, map_mb=SMALL_MAP_MB)


def logcount2_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """The optimized logcount: combined inputs, one container per vcore."""
    return _per_vcore_job("logcount2", LOGCOUNT2_COSTS, platform, slaves,
                          LOGCOUNT_INPUT, output_ratio=0.01)


# -- pi (Section 5.2.3) -------------------------------------------------------

#: CPU cost of the whole 10-billion-sample loop (MI), Edison-referenced.
#: ~480 instructions per sample: a JIT-compiled Halton-sequence point
#: plus the in-circle test (fitted per the costs.py protocol; the Dell
#: factor near 1.0 says Dhrystone predicts arithmetic loops well).
PI_TOTAL_MI = 4.791e6

PI_COSTS_TEMPLATE = {"edison": 1.0, "dell": 1.19}


def pi_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """10-billion-sample pi estimation, one container per vcore.

    Pure CPU and no input data: the one Table 8 job where the Edison
    cluster loses on work-done-per-joule.
    """
    config = default_config(platform)
    full_maps = paper.PI_MAPS[platform]
    full_vcores = config.node_vcores * (35 if platform == "edison" else 2)
    # The paper uses 70/24 maps at full scale = one per vcore; smaller
    # clusters are retuned the same way.
    maps = max(1, round(full_maps * config.node_vcores * slaves
                        / full_vcores))
    costs = JobCosts(
        map_mi_per_mb=0.0,
        sort_mi_per_mb=0.0,
        reduce_mi_per_mb=0.0,
        map_fixed_mi=PI_TOTAL_MI / maps,
        java_factor=dict(PI_COSTS_TEMPLATE),
    )
    return _job("pi", costs, platform, None, maps=maps, reduces=1,
                config=config)


# -- teragen / terasort / teravalidate (Section 5.2.4) ------------------------

TERASORT_COSTS = JobCosts(
    map_mi_per_mb=167.0,
    sort_mi_per_mb=500.0,
    reduce_mi_per_mb=889.0,
    java_factor={"edison": 1.0, "dell": 2.26},
)


def _terasort_config(platform: str) -> HadoopConfig:
    """64 MB blocks on *both* clusters, for fairness."""
    return default_config(platform).with_block_mb(paper.TERASORT_BLOCK_MB)


def terasort_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """The timed Terasort stage, the only one metered, as in the paper.

    The identity map sends the whole input across the shuffle, and the
    sorted data is written back whole through the HDFS replication
    pipeline: the most data-movement-bound job in the paper, and the
    one where Edison's aggregate disk/NIC advantage shows.
    """
    return _job("terasort", TERASORT_COSTS, platform, TERASORT_INPUT,
                reduces=_vcores(platform, slaves), output_ratio=1.0,
                config=_terasort_config(platform))


def teragen_job(platform: str, slaves: int) -> Tuple[JobSpec, HadoopConfig]:
    """Teragen: map-only generation of the terasort input."""
    costs = JobCosts(
        map_mi_per_mb=120.0, sort_mi_per_mb=0.0, reduce_mi_per_mb=0.0,
        java_factor=dict(TERASORT_COSTS.java_factor))
    return _job("teragen", costs, platform, TERASORT_INPUT, reduces=0,
                config=_terasort_config(platform))


def teravalidate_job(platform: str, slaves: int
                     ) -> Tuple[JobSpec, HadoopConfig]:
    """Teravalidate: one map per terasort reducer output, one reducer."""
    costs = JobCosts(
        map_mi_per_mb=90.0, sort_mi_per_mb=0.0, reduce_mi_per_mb=10.0,
        java_factor=dict(TERASORT_COSTS.java_factor))
    return _job("teravalidate", costs, platform, TERASORT_INPUT,
                maps=_vcores(platform, slaves), reduces=1,
                config=_terasort_config(platform))


JOB_FACTORIES = {
    "wordcount": wordcount_job,
    "wordcount2": wordcount2_job,
    "logcount": logcount_job,
    "logcount2": logcount2_job,
    "pi": pi_job,
    "terasort": terasort_job,
    "teragen": teragen_job,
    "teravalidate": teravalidate_job,
}


# -- the carbon plane's deferrable jobs, at compressed-day scale ---------------

#: TeraSort's input at 1/160th scale: 64 MB over 16 files.
TERASORT_MINI_INPUT = replace(TERASORT_INPUT, total_bytes=64_000_000,
                              file_count=16)

#: 48 MB of WikiDB-shaped text rows (the paper's web-serving database)
#: with a tiny, combiner-friendly group-by output.
WIKIDB_SAMPLE = Dataset(48_000_000, 12, map_output_ratio=0.20,
                        combine_survival=0.30)

#: Scan/aggregate cost surface: map-dominant, cheap reduce, and the
#: same per-platform JVM factor TeraSort calibrated.
WIKIDB_SCAN_COSTS = JobCosts(
    map_mi_per_mb=420.0, sort_mi_per_mb=60.0, reduce_mi_per_mb=150.0,
    java_factor=dict(TERASORT_COSTS.java_factor))


def terasort_mini_job(platform: str) -> Tuple[JobSpec, HadoopConfig]:
    """TeraSort at 1/160th scale: 64 MB over 16 maps, 4 reducers."""
    return _job("terasort-mini", TERASORT_COSTS, platform,
                TERASORT_MINI_INPUT, reduces=4, output_ratio=1.0)


def wikidb_scan_job(platform: str) -> Tuple[JobSpec, HadoopConfig]:
    """Aggregate scan over :data:`WIKIDB_SAMPLE`: 12 maps, 3 reducers."""
    return _job("wikidb-scan", WIKIDB_SCAN_COSTS, platform, WIKIDB_SAMPLE,
                reduces=3, combiner=True, output_ratio=0.05)
