"""Export every figure's data series as CSV for plotting.

Writes one CSV per paper figure into ``figures/`` so any plotting tool
can redraw them: fig2_3 (Sysbench CPU time vs threads), sec42 (memory
bandwidth by block size and threads), fig4_7 (throughput/delay/power
vs concurrency), fig5_8 (the load-mix curves), fig6_9 (the heavy
load), fig10_11 (delay histograms), fig12_17 (job timelines), fig18_19
(time and energy vs cluster size).

Run:  python scripts/export_figures.py [output_dir]   (~12 minutes)
"""

import csv
import os
import sys

from repro.core import paperdata as paper
from repro.core.claims import (HEAVY, PLATFORMS, WEB_DURATION, WEB_MIXES,
                               sec42_grid)
from repro.hardware import make_server
from repro.mapreduce import JOB_FACTORIES, TABLE8_JOBS, run_scaling_grid, \
    run_job
from repro.microbench import run_sysbench_cpu
from repro.sim import Simulation
from repro.web import delay_distribution, sweep_concurrency


def write_csv(path, headers, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


#: The columns every web sweep's CSV ends with, one row per level.
LEVEL_COLUMNS = ("concurrency", "rps", "delay_ms", "errors_5xx", "power_w")


def level_rows(sweep):
    return [(level.concurrency, round(level.requests_per_second, 1),
             round(level.mean_delay_s * 1000, 2), level.error_calls,
             round(level.mean_power_w, 2)) for level in sweep.levels]


def export_fig2_3(outdir):
    rows = []
    for platform, spec in PLATFORMS:
        for threads in paper.S41_SYSBENCH_THREADS:
            sim = Simulation()
            result = run_sysbench_cpu(sim, make_server(sim, spec, "s0"),
                                      threads)
            rows.append((platform, threads, round(result.total_time_s, 2),
                         round(result.avg_response_time_s * 1000, 3)))
    write_csv(os.path.join(outdir, "fig2_3_sysbench_cpu.csv"),
              ("platform", "threads", "total_s", "response_ms"), rows)


def export_sec42(outdir):
    rows = []
    for platform, spec in PLATFORMS:
        rows += [(platform, block, threads, round(rate / 1e9, 3))
                 for (block, threads), rate in sec42_grid(spec).items()]
    write_csv(os.path.join(outdir, "sec42_memory_bandwidth.csv"),
              ("platform", "block_bytes", "threads", "gb_per_s"), rows)


def export_fig4_7(outdir):
    rows = []
    for platform, scales in (("edison", ("full", "1/2", "1/4", "1/8")),
                             ("dell", ("full", "1/2"))):
        for scale in scales:
            sweep = sweep_concurrency(platform, scale, duration=WEB_DURATION)
            rows += [(platform, scale, *row) for row in level_rows(sweep)]
    write_csv(os.path.join(outdir, "fig4_7_web_baseline.csv"),
              ("platform", "scale", *LEVEL_COLUMNS), rows)


def export_fig5_8(outdir):
    rows = []
    for platform, _ in PLATFORMS:
        for mix, workload in WEB_MIXES.items():
            sweep = sweep_concurrency(platform, "full", workload,
                                      levels=(64, 256, 512, 1024),
                                      duration=WEB_DURATION)
            rows += [(platform, mix, *row) for row in level_rows(sweep)]
    write_csv(os.path.join(outdir, "fig5_8_web_load_mix.csv"),
              ("platform", "mix", *LEVEL_COLUMNS), rows)


def export_fig6_9(outdir):
    rows = []
    for platform, _ in PLATFORMS:
        sweep = sweep_concurrency(platform, "full", HEAVY,
                                  duration=WEB_DURATION)
        rows += [(platform, *row) for row in level_rows(sweep)]
    write_csv(os.path.join(outdir, "fig6_9_web_heavy.csv"),
              ("platform", *LEVEL_COLUMNS), rows)


def export_fig10_11(outdir):
    rows = []
    for platform in ("edison", "dell"):
        log = delay_distribution(platform, duration=6.0, warmup=2.0)
        for bin_start, count in log.histogram(bin_width_s=0.25, max_s=8.0):
            rows.append((platform, bin_start, count))
    write_csv(os.path.join(outdir, "fig10_11_delay_hist.csv"),
              ("platform", "delay_bin_s", "samples"), rows)


def export_fig12_17(outdir):
    rows = []
    for job in ("wordcount", "wordcount2", "pi"):
        for platform, slaves in (("edison", 35), ("dell", 2)):
            spec, config = JOB_FACTORIES[job](platform, slaves)
            report = run_job(platform, slaves, spec, config=config)
            timeline = report.timeline
            for i, t in enumerate(timeline.cpu.times):
                rows.append((job, platform, round(t, 1),
                             round(timeline.cpu.values[i], 3),
                             round(timeline.mem.values[i], 3),
                             round(timeline.power_w.values[i], 2),
                             round(timeline.map_progress.at(t), 3),
                             round(timeline.reduce_progress.at(t), 3)))
    write_csv(os.path.join(outdir, "fig12_17_timelines.csv"),
              ("job", "platform", "t_s", "cpu", "mem", "power_w",
               "map_progress", "reduce_progress"), rows)


def export_fig18_19(outdir):
    rows = []
    for platform in ("edison", "dell"):
        grid = run_scaling_grid(platform)
        for job in TABLE8_JOBS:
            for size, report in sorted(grid.reports[job].items()):
                published = paper.T8[job][platform][size]
                rows.append((job, platform, size, round(report.seconds, 1),
                             round(report.joules, 1), published.seconds,
                             published.joules))
    write_csv(os.path.join(outdir, "fig18_19_table8_scaling.csv"),
              ("job", "platform", "slaves", "sim_seconds", "sim_joules",
               "paper_seconds", "paper_joules"), rows)


def main() -> None:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    os.makedirs(outdir, exist_ok=True)
    export_fig2_3(outdir)
    export_sec42(outdir)
    export_fig4_7(outdir)
    export_fig5_8(outdir)
    export_fig6_9(outdir)
    export_fig10_11(outdir)
    export_fig12_17(outdir)
    export_fig18_19(outdir)


if __name__ == "__main__":
    main()
