"""Integration tests: running MapReduce jobs end to end.

Full-scale paper comparisons live in the benchmark harness; these tests
use small clusters and scaled-down datasets to stay fast while checking
the mechanisms (phases, combiner, locality, energy accounting, tuning).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import paperdata as paper
from repro.mapreduce import JOB_FACTORIES, JobRunner, JobSpec, run_job
from repro.mapreduce.costs import JobCosts
from repro.mapreduce.jobs.catalogue import WORDCOUNT_INPUT

SMALL = dataclasses.replace(WORDCOUNT_INPUT, total_bytes=64_000_000,
                            file_count=16)
CHEAP = JobCosts(map_mi_per_mb=500, sort_mi_per_mb=200, reduce_mi_per_mb=400,
                 java_factor={"edison": 1.0, "dell": 2.0})


def small_spec(**overrides) -> JobSpec:
    base = dict(name="small", costs=CHEAP, map_tasks=16, reduce_tasks=4,
                map_mem_mb=150, reduce_mem_mb=300, dataset=SMALL,
                combiner=False, output_ratio=0.05)
    base.update(overrides)
    return JobSpec(**base)


def test_job_completes_and_reports():
    report = run_job("edison", 4, small_spec())
    assert report.seconds > paper.S52_EDISON_BLOCK_MB  # nontrivial runtime
    assert report.joules > 0
    assert report.platform == "edison"
    assert report.slaves == 4
    assert report.mean_watts == pytest.approx(report.joules / report.seconds)


def test_job_is_deterministic_per_seed():
    a = JobRunner("edison", 4, seed=5).run(small_spec())
    b = JobRunner("edison", 4, seed=5).run(small_spec())
    assert a.seconds == pytest.approx(b.seconds)
    assert a.joules == pytest.approx(b.joules)


def test_combiner_shrinks_shuffle_and_time():
    plain = small_spec()
    combined = small_spec(combiner=True)
    # Under a tenth of the map output survives the combiner.
    assert combined.dataset.combine_survival < 0.1
    t_plain = run_job("edison", 4, plain).seconds
    t_combined = run_job("edison", 4, combined).seconds
    assert t_combined < t_plain


def test_more_slaves_run_faster():
    t4 = run_job("edison", 4, small_spec()).seconds
    t8 = run_job("edison", 8, small_spec()).seconds
    assert t8 < t4


def test_locality_fraction_is_high():
    report = run_job("edison", 8, small_spec())
    # The paper reports ~95 % data-local maps.
    assert report.locality_fraction >= 0.85


def test_timeline_progress_monotone_and_complete():
    report = run_job("edison", 4, small_spec())
    maps = report.timeline.map_progress.values
    assert maps == sorted(maps)
    assert maps[-1] == pytest.approx(1.0)
    reduces = report.timeline.reduce_progress.values
    assert reduces == sorted(reduces)


def test_alloc_lead_keeps_cluster_idle_initially():
    report = run_job("edison", 4, small_spec())
    # Before the allocation lead ends, CPU utilisation must be ~zero
    # (Figures 12/15: CPU rises at ~45 s on Edison).
    early_cpu = report.timeline.cpu.at(10.0)
    assert early_cpu < 0.05
    assert report.timeline.power_w.at(10.0) < 1.05 * 4 * 1.40


def test_power_rises_during_map_phase():
    report = run_job("edison", 4, small_spec())
    idle = 4 * 1.40
    assert report.timeline.power_w.maximum() > idle * 1.1


def test_watchdog_detects_stuck_jobs():
    runner = JobRunner("edison", 2)
    spec = small_spec(map_tasks=4, reduce_tasks=2)
    with pytest.raises(RuntimeError, match="watchdog"):
        runner.run(spec, deadline_s=5.0)   # job needs far longer than 5 s


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(map_tasks=0)
    with pytest.raises(ValueError):
        small_spec(reduce_tasks=-1)
    with pytest.raises(ValueError):
        small_spec(map_mem_mb=0)
    with pytest.raises(ValueError):
        small_spec(output_ratio=-0.1)


@pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_output_ratio(ratio):
    # NaN would silently write no reduce output; inf would only fail
    # mid-run, inside the HDFS write pipeline.
    with pytest.raises(ValueError, match="output_ratio"):
        small_spec(output_ratio=ratio)


def test_map_only_job_supported():
    report = run_job("edison", 4, small_spec(reduce_tasks=0, combiner=False))
    assert report.seconds > 0


# -- Job factories -----------------------------------------------------------

@pytest.mark.parametrize("job", ["wordcount", "wordcount2", "logcount",
                                 "logcount2", "pi", "terasort", "teragen",
                                 "teravalidate"])
@pytest.mark.parametrize("platform,slaves", [("edison", 35), ("dell", 2)])
def test_factories_build_valid_specs(job, platform, slaves):
    spec, config = JOB_FACTORIES[job](platform, slaves)
    assert spec.map_tasks >= 1
    assert config.platform == platform
    assert spec.costs.factor(platform) > 0


def test_wordcount_factory_matches_paper_tuning():
    spec, config = JOB_FACTORIES["wordcount"]("edison", 35)
    assert spec.map_tasks == 200
    assert spec.reduce_tasks == 70
    assert spec.map_mem_mb == 150
    assert config.block_mb == 16
    spec, config = JOB_FACTORIES["wordcount"]("dell", 2)
    assert spec.map_tasks == 200
    assert spec.reduce_tasks == 24
    assert spec.map_mem_mb == 500
    assert config.block_mb == 64


def test_wordcount2_factory_one_container_per_vcore():
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 35)
    assert spec.map_tasks == 70
    assert spec.combiner
    spec, config = JOB_FACTORIES["wordcount2"]("dell", 2)
    assert spec.map_tasks == 24
    # 1 GB over 24 maps -> ~42 MB splits: within the 64 MB block.
    assert config.block_mb == 64


def test_wordcount2_scaling_raises_block_size():
    """Section 5.3: smaller clusters get bigger blocks to keep 1/vcore."""
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 17)
    assert spec.map_tasks == 34
    assert config.block_mb >= 30        # ~1 GB / 34 maps
    spec, config = JOB_FACTORIES["wordcount2"]("edison", 4)
    assert spec.map_tasks == 8
    assert config.block_mb >= 125


def test_pi_factory_matches_paper_maps():
    spec, _ = JOB_FACTORIES["pi"]("edison", 35)
    assert spec.map_tasks == paper.PI_MAPS["edison"]
    assert spec.reduce_tasks == 1
    spec, _ = JOB_FACTORIES["pi"]("dell", 2)
    assert spec.map_tasks == paper.PI_MAPS["dell"]


def test_terasort_factory_matches_paper():
    spec, config = JOB_FACTORIES["terasort"]("edison", 35)
    assert spec.map_tasks == paper.TERASORT_MAPS
    assert spec.reduce_tasks == paper.TERASORT_REDUCES["edison"]
    assert config.block_mb == paper.TERASORT_BLOCK_MB
    assert spec.output_ratio == 1.0


def test_logcount_factory_500_containers():
    spec, _ = JOB_FACTORIES["logcount"]("edison", 35)
    assert spec.map_tasks == 500
    assert spec.combiner


#: sha256 of :func:`_catalogue_rows` as canonical JSON, recorded once.
#: A change here means some job is built differently: fix the catalogue,
#: do not re-record.
CATALOGUE_FINGERPRINT = (
    "09d8590bd2e7b555cc0b5a56f48fd503731dc5f374a3461d8848451bf4375d34")


def _spec_and_config(spec, config) -> dict:
    """Every JobSpec field but ``dataset``, the dataset's runtime inputs
    and the HadoopConfig, as plain JSON values."""
    row = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
           if f.name != "dataset"}
    row["costs"] = dataclasses.asdict(spec.costs)
    dataset = spec.dataset
    row["input_bytes"] = spec.input_bytes
    row["map_output_ratio"] = dataset.map_output_ratio if dataset else None
    row["combine_survival"] = dataset.combine_survival if dataset else None
    row["file_count"] = dataset.file_count if dataset else None
    row["config"] = dataclasses.asdict(config)
    return row


def _catalogue_rows() -> list:
    from repro.carbon.jobspec import CARBON_JOB_KINDS
    rows = []
    for platform in ("edison", "dell"):
        for name, factory in JOB_FACTORIES.items():
            for slaves in (1, 2, 4, 8, 17, 35):
                rows.append([name, platform, slaves,
                             _spec_and_config(*factory(platform, slaves))])
        for kind, factory in CARBON_JOB_KINDS.items():
            rows.append([kind, platform, None,
                         _spec_and_config(*factory(platform))])
    return rows


def test_catalogue_builds_every_job_as_recorded():
    """Every factory job at six cluster sizes (the small ones raise the
    block size) and both carbon kinds, on both platforms."""
    blob = json.dumps(_catalogue_rows(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == CATALOGUE_FINGERPRINT


def test_unknown_platform_rejected_by_runner():
    with pytest.raises(ValueError):
        JobRunner("sparc", 4)
