"""Fit per-job cost knobs to the full-scale Table 8 cells.

Protocol (see src/repro/mapreduce/costs.py): the Edison-35 run time
pins the phase path lengths (uniform scale on map/sort/reduce/fixed MI),
the Dell-2 run time pins the Dell java factor.  Alternate 1-D secant
steps until both land within tolerance, then print the fitted JobCosts
to paste over the job's ``*_COSTS`` constant in
src/repro/mapreduce/jobs/catalogue.py.

Run:  python scripts/calibrate_mapreduce.py
"""

from dataclasses import replace

from repro.core.paperdata import T8
from repro.mapreduce import JOB_FACTORIES, run_job
from repro.mapreduce.costs import ALLOC_LEAD_S

TOLERANCE = 0.03
MAX_ROUNDS = 8


def scaled(costs, scale):
    return replace(
        costs,
        map_mi_per_mb=costs.map_mi_per_mb * scale,
        sort_mi_per_mb=costs.sort_mi_per_mb * scale,
        reduce_mi_per_mb=costs.reduce_mi_per_mb * scale,
        map_fixed_mi=costs.map_fixed_mi * scale,
    )


def with_dell_factor(costs, factor):
    return replace(costs, java_factor={"edison": 1.0, "dell": factor})


def run(job, platform, slaves, costs):
    spec, config = JOB_FACTORIES[job](platform, slaves)
    spec = replace(spec, costs=costs)
    report = run_job(platform, slaves, spec, config=config)
    return report.seconds


def calibrate(job):
    spec, _ = JOB_FACTORIES[job]("edison", 35)
    costs = spec.costs
    target_e = T8[job]["edison"][35].seconds
    target_d = T8[job]["dell"][2].seconds
    for round_no in range(MAX_ROUNDS):
        t_e = run(job, "edison", 35, costs)
        print(f"  [{job} r{round_no}] edison={t_e:.0f}s", flush=True)
        err_e = t_e / target_e - 1
        if abs(err_e) > TOLERANCE:
            work = t_e - ALLOC_LEAD_S["edison"]
            want = target_e - ALLOC_LEAD_S["edison"]
            costs = scaled(costs, max(0.2, min(5.0, want / work)))
            continue
        t_d = run(job, "dell", 2, costs)
        print(f"  [{job} r{round_no}] dell={t_d:.0f}s", flush=True)
        err_d = t_d / target_d - 1
        if abs(err_d) > TOLERANCE:
            work = t_d - ALLOC_LEAD_S["dell"]
            want = target_d - ALLOC_LEAD_S["dell"]
            factor = costs.factor("dell") * max(0.2, min(5.0, want / work))
            costs = with_dell_factor(costs, factor)
            continue
        break
    t_e = run(job, "edison", 35, costs)
    t_d = run(job, "dell", 2, costs)
    print(f"{job}: edison {t_e:.0f}s (target {target_e}) "
          f"dell {t_d:.0f}s (target {target_d})")
    print(f"  map={costs.map_mi_per_mb:.0f} sort={costs.sort_mi_per_mb:.0f} "
          f"reduce={costs.reduce_mi_per_mb:.0f} "
          f"fixed={costs.map_fixed_mi:.0f} "
          f"dell_factor={costs.factor('dell'):.2f}", flush=True)


if __name__ == "__main__":
    for job in ("wordcount", "wordcount2", "logcount", "logcount2", "pi",
                "terasort"):
        calibrate(job)
