"""The paper's claims as one checked table.

Every claim is an interval ``lo <= measured <= hi`` on one scalar.  The
scalar comes from a *cell*: a plain function that runs one configuration
once, with its committed seed, and returns named scalars.  :func:`check`
runs each cell a selection of rows needs at most once;
``python -m repro claims`` and ``scripts/generate_experiments_report.py``
render the same rows, and CI fails when any row is out of bounds.

Bounds.  A numeric row is ``paper * (1 +- tol)`` with ``tol`` the row's
error when the table was recorded, rounded up to the next whole percent
(minimum 1 %), and cut to the band of the assertion it replaced.  An
ordering or range row keeps that assertion's comparison; a strict
``<``/``>`` becomes the neighbouring float.  A bound is never widened
to make a run pass: a drift is a reviewed change to a named row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from . import paperdata as paper
from .capacity import replacement_estimate
from .metrics import efficiency_ratio, relative_error
from .report import format_table
from ..cluster import Cluster, dell_cluster, edison_cluster
from ..energy import PowerMeter
from ..hardware import DELL_R620, EDISON, EDISON_INTEGRATED_NIC, make_server
from ..mapreduce import JOB_FACTORIES, TABLE8_JOBS, run_job, \
    run_scaling_grid
from ..mapreduce.jobs import terasort_job
from ..mapreduce.scaling import DELL_SIZES, EDISON_SIZES, paper_mean_speedup
from ..microbench import (run_dd, run_dhrystone, run_ioping, run_iperf,
                          run_ping, run_sysbench_cpu, run_sysbench_memory)
from ..sim import Simulation
from ..tco import savings_fraction, table10
from ..web import (LIMITS, WebServiceDeployment, WebWorkload,
                   delay_distribution, energy_efficiency_ratio,
                   measure_delay_decomposition, sweep_concurrency)
from ..web.client import UrllibProbe

Scalars = Dict[str, float]

#: The web sweeps' measurement window (s) at every concurrency level.
WEB_DURATION = 3.0

PLATFORMS = (("edison", EDISON), ("dell", DELL_R620))


# ---------------------------------------------------------------------------
# Cells: one configuration each, run once, named scalars out
# ---------------------------------------------------------------------------

def table2() -> Scalars:
    estimate = replacement_estimate(EDISON, DELL_R620)
    return {"by_cpu": estimate.by_cpu, "by_ram": estimate.by_memory,
            "by_nic": estimate.by_network, "required": estimate.required}


def _server(spec):
    sim = Simulation()
    return sim, make_server(sim, spec, "s0")


def _saturate(sim, server) -> None:
    """Pin every component of ``server``: CPU, memory, disk and NIC."""
    spec = server.spec
    for _ in range(spec.cpu.vcores):
        sim.process(server.cpu.execute(60 * spec.cpu.vcore_dmips))
    server.memory.reserve(0.95 * spec.memory.capacity_bytes)
    sim.process(server.storage.write(
        spec.storage.buffered_write_bps * 50, buffered=True))

    def nic_traffic():
        while True:
            server.nic.bytes_sent += spec.nic.bytes_per_second
            yield sim.timeout(1.0)

    sim.process(nic_traffic())


def _mean_watts(sim, servers, busy: bool, cluster=None) -> float:
    """Mean wall power over 30 s, idle or with every component pinned."""
    if busy:
        for server in servers:
            _saturate(sim, server)
    meter = cluster.attach_meter(interval=1.0) if cluster is not None \
        else PowerMeter(sim, servers, interval=1.0)
    meter.start(until=30)
    sim.run(until=30)
    return meter.mean_power()


def table3() -> Scalars:
    out: Scalars = {}
    for state in ("idle", "busy"):
        busy = state == "busy"
        for name, spec in PLATFORMS:
            sim, server = _server(spec)
            out[f"{name}.{state}_w"] = _mean_watts(sim, [server], busy)
        for name, build, nodes in (("edison35", edison_cluster, 35),
                                   ("dell3", dell_cluster, 3)):
            sim = Simulation()
            cluster = build(sim, nodes=nodes)
            out[f"{name}.{state}_w"] = _mean_watts(sim, list(cluster), busy,
                                                   cluster)
    return out


def sec41() -> Scalars:
    def seconds(spec, threads):
        return run_sysbench_cpu(*_server(spec), threads).total_time_s

    return {
        "edison.dmips": run_dhrystone(*_server(EDISON)).dmips,
        "dell.dmips": run_dhrystone(*_server(DELL_R620)).dmips,
        "single_thread_gap": seconds(EDISON, 1) / seconds(DELL_R620, 1),
        "edison.4_over_2_threads": seconds(EDISON, 4) / seconds(EDISON, 2),
        "dell.8_over_4_threads": seconds(DELL_R620, 8)
        / seconds(DELL_R620, 4),
        "machine_gap": DELL_R620.cpu.machine_dmips
        / EDISON.cpu.machine_dmips,
    }


#: Section 4.2's thread axis plus both platforms' saturation points.
SEC42_THREADS = tuple(sorted(set(paper.S42_THREAD_COUNTS) | {
    paper.S42_EDISON_SATURATION_THREADS, paper.S42_DELL_SATURATION_THREADS}))


def sec42_grid(spec) -> Dict[tuple, float]:
    """Memory bandwidth (B/s) for every (block size, threads) pair."""
    return {(block, threads): run_sysbench_memory(
                *_server(spec), block, threads).rate_bps
            for block in paper.S42_BLOCK_SIZES for threads in SEC42_THREADS}


def sec42() -> Scalars:
    small, big = paper.S42_BLOCK_SIZES[0], paper.S42_BLOCK_SIZES[-1]
    out: Scalars = {}
    for (name, spec), sat in zip(PLATFORMS, (
            paper.S42_EDISON_SATURATION_THREADS,
            paper.S42_DELL_SATURATION_THREADS)):
        grid = sec42_grid(spec)
        top = grid[big, sat]
        out[f"{name}.peak_gbps"] = max(grid.values()) / 1e9
        out[f"{name}.sat_block_over_1m"] = \
            grid[paper.S42_SATURATION_BLOCK, sat] / top
        out[f"{name}.small_block_over_1m"] = grid[small, sat] / top
        out[f"{name}.16_over_sat_threads"] = grid[big, 16] / top
        out[f"{name}.8_over_sat_threads"] = grid[big, 8] / top
    out["dell_over_edison"] = out["dell.peak_gbps"] / out["edison.peak_gbps"]
    return out


def table5() -> Scalars:
    out: Scalars = {}
    for name, spec in PLATFORMS:
        for op, buffered in (("write", False), ("write", True),
                             ("read", False), ("read", True)):
            key = f"{name}.{'buffered_' * buffered}{op}_mbps"
            out[key] = run_dd(*_server(spec), op, nbytes=100e6,
                              buffered=buffered).rate_bps / 1e6
        for op in ("read", "write"):
            out[f"{name}.{op}_latency_ms"] = run_ioping(
                *_server(spec), op).mean_latency_s * 1e3
    out["write_ratio"] = out["dell.write_mbps"] / out["edison.write_mbps"]
    return out


#: Section 4.4's server pairs.
SEC44_PAIRS = (("dell", "dell"), ("dell", "edison"), ("edison", "edison"))


def sec44() -> Scalars:
    specs = dict(PLATFORMS)

    def pair(a, b):
        sim = Simulation()
        cluster = Cluster(sim)
        cluster.add(specs[a], "a")
        cluster.add(specs[b], "b")
        return sim, cluster.topology, "a", "b"

    out: Scalars = {}
    for a, b in SEC44_PAIRS:
        for protocol in ("tcp", "udp"):
            out[f"{a}-{b}.{protocol}_mbps"] = run_iperf(
                *pair(a, b), nbytes=250e6, protocol=protocol).goodput_bps / 1e6
        out[f"{a}-{b}.rtt_ms"] = run_ping(*pair(a, b)).rtt_s * 1e3
    out["nic_gap"] = out["dell-dell.tcp_mbps"] / out["edison-edison.tcp_mbps"]
    return out


def web_light() -> Scalars:
    edison = {scale: sweep_concurrency("edison", scale, duration=WEB_DURATION)
              for scale in ("full", "1/2", "1/4")}
    dell = sweep_concurrency("dell", "full", duration=WEB_DURATION)
    full, half_peak = edison["full"], edison["1/2"].peak_rps()
    dell_2048 = next(l for l in dell.levels if l.concurrency == 2048)
    return {
        "edison.peak_rps": full.peak_rps(),
        "dell.peak_rps": dell.peak_rps(),
        "edison.full_over_half": full.peak_rps() / half_peak,
        "edison.quarter_over_half": edison["1/4"].peak_rps() / half_peak,
        "dell_over_edison.peak_rps": dell.peak_rps() / full.peak_rps(),
        "edison.max_clean": full.max_clean_concurrency(),
        "dell.max_clean": dell.max_clean_concurrency(),
        "dell.2048_over_peak": dell_2048.requests_per_second
        / dell.peak_rps(),
        "low_load_delay_gap": full.levels[0].mean_delay_s
        / dell.levels[0].mean_delay_s,
        "edison.power_w": full.mean_power_at_peak(),
        "dell.power_w": dell.mean_power_at_peak(),
        "rpj_gain": energy_efficiency_ratio(full, dell),
    }


#: Figures 5 & 8's reply mixes, by name.
WEB_MIXES = {
    "hit93": WebWorkload(image_fraction=0.0, cache_hit_ratio=0.93),
    "hit77": WebWorkload(image_fraction=0.0, cache_hit_ratio=0.77),
    "hit60": WebWorkload(image_fraction=0.0, cache_hit_ratio=0.60),
    "img6": WebWorkload(image_fraction=0.06, cache_hit_ratio=0.93),
    "img10": WebWorkload(image_fraction=0.10, cache_hit_ratio=0.93),
}


def web_mix() -> Scalars:
    # Each level is its own seeded deployment, so only the levels the
    # claims compare are run.
    out: Scalars = {}
    for name, _ in PLATFORMS:
        at = {mix: {l.concurrency: l for l in sweep_concurrency(
                  name, "full", WEB_MIXES[mix], levels=(256, 512),
                  duration=WEB_DURATION).levels}
              for mix in ("hit93", "hit60", "img10")}
        base = at["hit93"]
        for mix in ("img10", "hit60"):
            out[f"{name}.{mix}_rps_512"] = \
                at[mix][512].requests_per_second \
                / base[512].requests_per_second
        out[f"{name}.img10_delay_256"] = \
            at["img10"][256].mean_delay_s / base[256].mean_delay_s
    return out


#: Figures 6 & 9's workload: 20 % images, 93 % hit ratio.
HEAVY = WebWorkload(image_fraction=0.20, cache_hit_ratio=0.93)


def web_heavy() -> Scalars:
    edison = sweep_concurrency("edison", "full", HEAVY, duration=WEB_DURATION)
    dell = sweep_concurrency("dell", "full", HEAVY, duration=WEB_DURATION)
    half = sweep_concurrency("edison", "1/2", HEAVY, duration=WEB_DURATION)
    return {
        "heavy_to_light": edison.peak_rps() / paper.S51_PEAK_RPS_LIGHT,
        "rpj_gain": energy_efficiency_ratio(edison, dell),
        "edison_half.max_clean": half.max_clean_concurrency(),
    }


def table7() -> Scalars:
    rates = [rate for rate, *_ in paper.T7_ROWS]
    ms = {}
    for rate in rates:
        for name, _ in PLATFORMS:
            row = measure_delay_decomposition(
                name, rate, duration=WEB_DURATION, warmup=WEB_DURATION / 3)
            for leg in ("db", "cache", "total"):
                ms[name, leg, rate] = getattr(row, f"{leg}_delay_s") * 1e3
    out = {f"{rate}.{name}.{leg}_ms": value
           for (name, leg, rate), value in ms.items()}

    def gap(leg):
        return min(ms["edison", leg, r] / ms["dell", leg, r] for r in rates)

    def growth(name, leg):
        return ms[name, leg, rates[-1]] / ms[name, leg, rates[0]]

    out.update({
        "min_total_gap": gap("total"), "min_db_gap": gap("db"),
        "dell.max_total_ms": max(ms["dell", "total", r] for r in rates),
        "edison.cache_growth": growth("edison", "cache"),
        "edison.cache_over_db_growth": growth("edison", "cache")
        / growth("edison", "db"),
        "dell.total_growth": growth("dell", "total")})
    return out


def fig10_11() -> Scalars:
    edison, dell = (delay_distribution(name, duration=6.0, warmup=2.0)
                    for name, _ in PLATFORMS)
    hist = dict(dell.histogram(bin_width_s=0.5, max_s=8.0))
    near_one = hist.get(1.0, 0) + hist.get(0.5, 0)
    near_three = hist.get(3.0, 0) + hist.get(2.5, 0) + hist.get(3.5, 0)
    background = hist.get(2.0, 0) + hist.get(5.0, 0) + 1
    dell_fast = [d for d in dell.delays_s if d < 0.9]
    return {
        "dell.above_0_9s_pct": dell.fraction_above(0.9) * 100,
        "edison.above_0_9s_pct": edison.fraction_above(0.9) * 100,
        "dell.1s_spike_over_background": near_one / background,
        "dell.3s_spike_samples": near_three,
        # Edison's mean against Dell's sub-spike mass only.
        "edison_mean_over_dell_fast": edison.mean()
        / (sum(dell_fast) / len(dell_fast)),
    }


def _cpu_rise_time(report, threshold: float = 0.10) -> float:
    for t, value in report.timeline.cpu.pairs():
        if value >= threshold:
            return t
    return report.seconds


def _reduce_start_fraction(report) -> float:
    for t, value in report.timeline.reduce_progress.pairs():
        if value > 0:
            return t / report.seconds
    return 1.0


def fig12_17() -> Scalars:
    runs = {}
    for job in ("wordcount", "wordcount2", "pi"):
        for name, slaves in (("edison", 35), ("dell", 2)):
            spec, config = JOB_FACTORIES[job](name, slaves)
            runs[job, name] = run_job(name, slaves, spec, config=config)
    wc_e, wc_d = runs["wordcount", "edison"], runs["wordcount", "dell"]
    cut = {name: 1 - runs["wordcount2", name].seconds
           / runs["wordcount", name].seconds for name in ("edison", "dell")}
    return {
        "wordcount.lead_ratio": _cpu_rise_time(wc_e) / _cpu_rise_time(wc_d),
        "wordcount.reduce_start_ratio": _reduce_start_fraction(wc_e)
        / _reduce_start_fraction(wc_d),
        "wordcount2.edison.time_cut": cut["edison"],
        "wordcount2.dell.time_cut": cut["dell"],
        "wordcount2.cut_dell_over_edison": cut["dell"] / cut["edison"],
        "pi.edison.cpu_max": runs["pi", "edison"].timeline.cpu.maximum(),
        "pi.dell.cpu_max": runs["pi", "dell"].timeline.cpu.maximum(),
        "pi.time_ratio": runs["pi", "edison"].seconds
        / runs["pi", "dell"].seconds,
    }


def table8() -> Scalars:
    grids = {name: run_scaling_grid(name) for name, _ in PLATFORMS}
    out: Scalars = {}
    for job in TABLE8_JOBS:
        for name, grid in grids.items():
            for size, report in grid.reports[job].items():
                out[f"{job}.{name}.{size}.seconds"] = report.seconds
                out[f"{job}.{name}.{size}.joules"] = report.joules
        out[f"{job}.gain"] = efficiency_ratio(
            out[f"{job}.edison.35.joules"], out[f"{job}.dell.2.joules"])
    out["edison.speedup"] = grids["edison"].mean_speedup()
    out["dell.speedup"] = grids["dell"].mean_speedup()
    out["dell_over_edison"] = out["dell.speedup"] / out["edison.speedup"]
    out["edison.paper_table8_speedup"] = paper_mean_speedup("edison")
    return out


def ablations() -> Scalars:
    # 1. USB Ethernet adapter vs an integrated 0.1 W port (wordcount).
    spec, config = JOB_FACTORIES["wordcount"]("edison", 35)
    usb = run_job("edison", 35, spec, config=config, edison_spec=EDISON)
    integrated = run_job("edison", 35, spec, config=config,
                         edison_spec=EDISON_INTEGRATED_NIC)
    # 3. logcount on 8 Edison slaves: Dell master vs Edison master.
    spec, config = JOB_FACTORIES["logcount"]("edison", 8)
    dell_master = run_job("edison", 8, spec, config=config)
    edison_master = run_job("edison", 8, spec, config=config,
                            master_spec=EDISON, deadline_s=80_000)
    # 4. Edison terasort with 64 MB vs 16 MB blocks (4x the maps).
    spec, config = terasort_job("edison", 35)
    blocks64 = run_job("edison", 35, spec, config=config)
    blocks16 = run_job(
        "edison", 35,
        replace(spec, map_tasks=math.ceil(spec.dataset.total_bytes / 16e6)),
        config=config.with_block_mb(16))
    # 5. Dell delay distribution with and without port exhaustion.
    with_drops = delay_distribution("dell", total_rate_rps=5000,
                                    duration=5.0, warmup=5.0 / 3)
    deployment = WebServiceDeployment(
        "dell", "full", WebWorkload(image_fraction=0.20),
        limits=replace(LIMITS["dell"], port_pool=10_000_000))
    for node in deployment.web_nodes:
        node.record_log_enabled = False
    probe = UrllibProbe(deployment, 5000, collect_after=5.0 / 3)
    probe.start(until=5.0)
    deployment.sim.run(until=5.0)
    return {
        "integrated_nic.time_ratio": integrated.seconds / usb.seconds,
        "integrated_nic.energy_saving": 1 - integrated.joules / usb.joules,
        "edison_master.slowdown": edison_master.seconds
        / dell_master.seconds,
        "block16.slowdown": blocks16.seconds / blocks64.seconds,
        "syn.with_drops.above_0_9s_pct": with_drops.fraction_above(0.9) * 100,
        "syn.no_drops.above_0_9s_pct": probe.log.fraction_above(0.9) * 100,
    }


def tco() -> Scalars:
    out: Scalars = {}
    results = table10()
    for (scenario, load), values in results.items():
        for name, _ in PLATFORMS:
            out[f"{scenario}.{load}.{name}_usd"] = values[name]
        out[f"{scenario}.{load}.saving_pct"] = savings_fraction(values) * 100
    out["best_saving_pct"] = max(
        savings_fraction(v) for v in results.values()) * 100
    return out


#: Cell name -> cell.  Rows name their cell; tests substitute entries.
CELLS: Dict[str, Callable[[], Scalars]] = {
    cell.__name__: cell for cell in (
        table2, table3, sec41, sec42, table5, sec44, web_light, web_mix,
        web_heavy, table7, fig10_11, fig12_17, table8, ablations, tco)}


# ---------------------------------------------------------------------------
# Rows: one interval on one cell scalar each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """``lo <= CELLS[cell]()[key] <= hi``; ``paper`` is the published
    value, or None for an ordering the paper prints no number for."""

    id: str
    section: str
    paper: Optional[float]
    cell: str
    key: str
    lo: float
    hi: float


INF = math.inf


def _above(x: float) -> float:
    """The bound of a strict ``> x``."""
    return math.nextafter(x, INF)


def _below(x: float) -> float:
    """The bound of a strict ``< x``."""
    return math.nextafter(x, -INF)


def _section(prefix: str, title: str, cell: str):
    """Row builders for one section: row ``NAME`` has id ``prefix.NAME``
    and reads the cell's scalar ``NAME``, or ``key`` if given."""

    def near(name: str, published: float, pct: float, lo: float = -INF,
             hi: float = INF) -> Claim:
        """``published * (1 +- pct %)``, cut to ``[lo, hi]`` on a side
        where the replaced assert was tighter."""
        tol = abs(published) * pct / 100
        return Claim(f"{prefix}.{name}", title, published, cell, name,
                     max(lo, published - tol), min(hi, published + tol))

    def band(name: str, lo: float, hi: float,
             published: Optional[float] = None,
             key: Optional[str] = None) -> Claim:
        """An ordering or range claim: the replaced assert's comparison."""
        return Claim(f"{prefix}.{name}", title, published, cell,
                     key or name, lo, hi)

    return near, band


#: Table 7 bound percents (each cell's recorded |error|, rounded up):
#: rate -> (db, cache, total) x (Edison, Dell).
_T7_PCT = {
    480: ((11, 9), (33, 53), (42, 64)),
    960: ((24, 18), (35, 50), (8, 50)),
    1920: ((20, 19), (92, 54), (84, 38)),
    3840: ((22, 17), (94, 45), (87, 45)),
    7680: ((143, 3), (87, 17), (66, 6)),
}

#: Table 8 bound percents, recorded the same way: job -> (seconds,
#: joules) for Edison 35, 17, 8, 4 and Dell 2, 1 slaves.
_T8_PCT = {
    "wordcount": ((2, 2), (48, 49), (40, 40), (38, 38), (2, 1), (26, 23)),
    "wordcount2": ((2, 2), (3, 1), (8, 6), (28, 28), (2, 8), (13, 10)),
    "logcount": ((2, 2), (16, 18), (2, 3), (17, 17), (3, 8), (24, 33)),
    "logcount2": ((2, 4), (18, 13), (50, 45), (72, 68), (3, 7), (11, 9)),
    "pi": ((3, 3), (5, 8), (2, 3), (4, 4), (3, 20), (8, 13)),
    "terasort": ((3, 9), (7, 10), (25, 28), (37, 40), (7, 22), (58, 58)),
}

#: Full-scale work-done-per-joule gain (Edison over Dell) bound percents.
_T8_GAIN_PCT = {"wordcount": 1, "wordcount2": 6, "logcount": 7,
                "logcount2": 3, "pi": 18, "terasort": 15}


def _claims() -> Iterable[Claim]:
    near, band = _section(
        "T2", "Table 2 — Edison nodes to replace one Dell R620", "table2")
    for name, published in (("by_cpu", paper.T2_EDISONS_BY_CPU),
                            ("by_ram", paper.T2_EDISONS_BY_RAM),
                            ("by_nic", paper.T2_EDISONS_BY_NIC),
                            ("required", paper.T2_EDISONS_PER_DELL)):
        yield band(name, published, published, published)

    near, band = _section("T3", "Table 3 — wall power (W)", "table3")
    for name, idle, busy in (
            ("edison", paper.T3_EDISON_IDLE_W, paper.T3_EDISON_BUSY_W),
            ("edison35", paper.T3_EDISON_CLUSTER35_IDLE_W,
             paper.T3_EDISON_CLUSTER35_BUSY_W),
            ("dell", paper.T3_DELL_IDLE_W, paper.T3_DELL_BUSY_W),
            ("dell3", paper.T3_DELL_CLUSTER3_IDLE_W,
             paper.T3_DELL_CLUSTER3_BUSY_W)):
        yield near(f"{name}.idle_w", idle, 1)
        yield near(f"{name}.busy_w", busy, 1)

    near, band = _section(
        "S4.1", "Section 4.1 — CPU: Dhrystone and Sysbench (Figures 2-3)",
        "sec41")
    yield near("edison.dmips", paper.S41_EDISON_DMIPS, 1)
    yield near("dell.dmips", paper.S41_DELL_DMIPS, 1)
    yield band("single_thread_gap", paper.S41_PER_CORE_SPEEDUP[0],
               paper.S41_PER_CORE_SPEEDUP[1] + 0.5)
    yield band("edison.4_over_2_threads", 0.95, 1.05)
    yield band("dell.8_over_4_threads", -INF, _below(0.6))
    yield band("machine_gap", *paper.S41_PER_MACHINE_SPEEDUP)

    near, band = _section("S4.2", "Section 4.2 — memory bandwidth (GB/s)",
                          "sec42")
    yield near("edison.peak_gbps", paper.S42_EDISON_MEM_BW / 1e9, 2)
    yield near("dell.peak_gbps", paper.S42_DELL_MEM_BW / 1e9, 2)
    yield near("dell_over_edison",
               paper.S42_DELL_MEM_BW / paper.S42_EDISON_MEM_BW, 1)
    for name, _ in PLATFORMS:
        yield band(f"{name}.sat_block_over_1m", 0.9, INF)
        yield band(f"{name}.small_block_over_1m", -INF, _below(0.5))
        yield band(f"{name}.16_over_sat_threads", 1 - 1e-6, 1 + 1e-6)
    yield band("dell.8_over_sat_threads", -INF, _below(1.0))

    near, band = _section("T5", "Table 5 — storage I/O (MB/s, ms)", "table5")
    for name, table, pcts in (
            ("edison", paper.T5_EDISON, (8, 1, 13, 5, 6, 4)),
            ("dell", paper.T5_DELL, (11, 1, 7, 3, 4, 6))):
        for key, pct in zip(("write", "buffered_write", "read",
                             "buffered_read"), pcts):
            yield near(f"{name}.{key}_mbps", table[f"{key}_bps"] / 1e6, pct)
        for op, pct in zip(("write", "read"), pcts[4:]):
            published = table[f"{op}_latency_s"] * 1e3
            yield near(f"{name}.{op}_latency_ms", published, pct,
                       published, 1.07 * published)
    yield near("write_ratio", paper.T5_WRITE_RATIO, 4)

    near, band = _section("S4.4", "Section 4.4 — network (Mb/s, ms)", "sec44")
    for pair in SEC44_PAIRS:
        name = "-".join(pair)
        yield near(f"{name}.tcp_mbps", paper.S44_TCP_BPS[pair] / 1e6, 1)
        yield near(f"{name}.udp_mbps", paper.S44_UDP_BPS[pair] / 1e6, 1)
        yield near(f"{name}.rtt_ms", paper.S44_RTT_S[pair] * 1e3, 1e-4)
    yield near("nic_gap", paper.S44_NIC_GAP, 1)

    near, band = _section(
        "F4", "Figures 4 & 7 — web service, 0 % images, 93 % hits",
        "web_light")
    web, light = paper.T6_CLUSTERS, paper.S51_PEAK_RPS_LIGHT
    yield near("edison.peak_rps", light, 10)
    yield near("dell.peak_rps", light, 10)
    yield band("edison.full_over_half", 1.7, 2.3,
               web["full"][0] / web["1/2"][0])
    yield band("edison.quarter_over_half", 0.4, 0.6,
               web["1/4"][0] / web["1/2"][0])
    yield band("dell_over_edison.peak_rps", 0.88, 1.12, 1.0)
    for name, cliff in (("edison", paper.S51_EDISON_MAX_CONCURRENCY),
                        ("dell", paper.S51_DELL_MAX_CONCURRENCY)):
        yield band(f"{name}.max_clean", cliff, cliff, cliff)
    yield band("dell.2048_over_peak", -INF, _below(0.95))
    yield band("low_load_delay_gap", 3.0, 8.0)
    yield near("edison.power_w", paper.S51_EDISON_POWER_W, 3,
               hi=paper.S51_EDISON_POWER_RANGE_W[1])
    yield near("dell.power_w", paper.S51_DELL_POWER_W, 6)
    yield near("rpj_gain", paper.S51_ENERGY_EFFICIENCY_RATIO, 1)

    near, band = _section(
        "F5", "Figures 5 & 8 — reply mix, full clusters (ratios to 93 % hits)",
        "web_mix")
    for name, _ in PLATFORMS:
        yield band(f"{name}.img10_rps_512", 0.82, INF)
        yield band(f"{name}.img10_delay_256", _above(1.0), INF)
        yield band(f"{name}.hit60_rps_512", 0.85, INF)

    near, band = _section("F6", "Figures 6 & 9 — 20 % images, 93 % hits",
                          "web_heavy")
    yield near("heavy_to_light", paper.S51_HEAVY_TO_LIGHT_RPS, 5)
    yield near("rpj_gain", paper.S51_ENERGY_EFFICIENCY_RATIO, 1)
    yield band("edison_half.max_clean", -INF,
               _below(paper.S51_EDISON_MAX_CONCURRENCY))

    near, band = _section("T7", "Table 7 — delay decomposition (ms)",
                          "table7")
    for rate, *legs in paper.T7_ROWS:
        for leg, published, pcts in zip(("db", "cache", "total"), legs,
                                        _T7_PCT[rate]):
            for i, (name, _) in enumerate(PLATFORMS):
                yield near(f"{rate}.{name}.{leg}_ms", published[i], pcts[i],
                           lo=0.0)
    yield band("min_total_gap", _above(3.0), INF)
    yield band("min_db_gap", _above(2.0), INF)
    yield band("dell.max_total_ms", -INF, _below(10.0))
    yield band("edison.cache_growth", _above(2.0), INF)
    yield band("edison.cache_over_db_growth", _above(1.0), INF)
    yield band("dell.total_growth", -INF, _below(2.5))

    near, band = _section(
        "F10", "Figures 10 & 11 — delay distribution at ~6000 req/s",
        "fig10_11")
    yield near("dell.above_0_9s_pct", paper.F11_DELL_ABOVE_0_9S * 100, 90,
               lo=_above(25.0))
    yield near("edison.above_0_9s_pct", paper.F10_EDISON_ABOVE_0_9S * 100,
               100)
    yield band("dell.1s_spike_over_background", _above(3.0), INF)
    yield band("dell.3s_spike_samples", 1, INF)
    yield band("edison_mean_over_dell_fast", _above(1.0), INF)

    near, band = _section(
        "F12", "Figures 12-17 — MapReduce timelines (full-scale clusters)",
        "fig12_17")
    yield near("wordcount.lead_ratio", paper.S52_ALLOCATION_LEAD_RATIO, 7)
    yield band("wordcount.reduce_start_ratio", _above(1.0), INF)
    for name, _ in PLATFORMS:
        yield near(f"wordcount2.{name}.time_cut",
                   paper.S52_WORDCOUNT2_TIME_CUT[name], 1)
    yield band("wordcount2.cut_dell_over_edison", _above(1.0), INF)
    for name, _ in PLATFORMS:
        yield band(f"pi.{name}.cpu_max", _above(0.9), INF)
    yield near("pi.time_ratio", paper.S52_PI_EDISON_OVER_DELL_TIME, 5)

    near, band = _section(
        "T8", "Table 8 & Figures 18-19 — time (s) and energy (J)", "table8")
    sizes = [("edison", n) for n in EDISON_SIZES] + \
        [("dell", n) for n in DELL_SIZES]
    for job in TABLE8_JOBS:
        for (name, size), (s_pct, j_pct) in zip(sizes, _T8_PCT[job]):
            published = paper.T8[job][name][size]
            yield near(f"{job}.{name}.{size}.seconds", published.seconds,
                       s_pct)
            yield near(f"{job}.{name}.{size}.joules", published.joules, j_pct)
    for job in TABLE8_JOBS:
        yield near(f"{job}.gain", paper.T8[job]["dell"][2].joules
                   / paper.T8[job]["edison"][35].joules, _T8_GAIN_PCT[job])
        # Edison does more work per joule on every job except pi.
        if job == "pi":
            yield band("pi.dell_wins", 0.0, _below(1.0), key="pi.gain")
        else:
            yield band(f"{job}.edison_wins", _above(1.0), INF,
                       key=f"{job}.gain")

    near, band = _section(
        "S5.3", "Section 5.3 — mean speed-up per cluster doubling", "table8")
    yield near("edison.speedup", paper.S53_EDISON_MEAN_SPEEDUP, 11)
    yield near("dell.speedup", paper.S53_DELL_MEAN_SPEEDUP, 21)
    yield band("dell_over_edison", 0.95, INF)
    yield near("edison.paper_table8_speedup", paper.S53_EDISON_MEAN_SPEEDUP,
               5)

    near, band = _section("ABL", "Ablations (DESIGN.md section 4)",
                          "ablations")
    yield band("integrated_nic.time_ratio", 0.99, 1.01)
    yield band("integrated_nic.energy_saving", _above(0.5), INF)
    yield band("edison_master.slowdown", _above(1.5), INF)
    yield band("block16.slowdown", _above(1.1), INF)
    yield band("syn.with_drops.above_0_9s_pct", _above(20.0), INF)
    yield band("syn.no_drops.above_0_9s_pct", -INF, _below(2.0))

    near, band = _section("T10", "Table 10 — 3-year TCO ($, %)", "tco")
    for (scenario, load), published in paper.T10.items():
        for name, _ in PLATFORMS:
            yield near(f"{scenario}.{load}.{name}_usd", published[name], 1)
        yield near(f"{scenario}.{load}.saving_pct",
                   (1 - published["edison"] / published["dell"]) * 100, 1)
    yield near("best_saving_pct", paper.T10_BEST_SAVINGS * 100, 1)


#: Every paper claim the simulator is held to, in paper order.
CLAIMS = tuple(_claims())


# ---------------------------------------------------------------------------
# Checking and rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Result:
    """One claim with the value its cell measured."""

    claim: Claim
    measured: float

    @property
    def ok(self) -> bool:
        return self.claim.lo <= self.measured <= self.claim.hi

    @property
    def error(self) -> Optional[float]:
        """Relative error against the paper, or None without a number."""
        paper_value = self.claim.paper
        return relative_error(self.measured, paper_value) \
            if paper_value else None


def _matches(claim: Claim, prefixes: Sequence[str]) -> bool:
    return any(claim.id == p or claim.id.startswith(p + ".")
               for p in prefixes)


def select(prefixes: Sequence[str] = ()) -> List[Claim]:
    """The claims whose id is, or starts with, one of ``prefixes``.

    Prefixes match whole dot-separated parts (``T1`` is not ``T10``);
    no prefix selects every claim, and one that matches nothing raises.
    """
    unknown = [p for p in prefixes if not any(_matches(c, [p])
                                              for c in CLAIMS)]
    if unknown:
        raise ValueError(f"no claim id starts with {', '.join(unknown)}")
    return [c for c in CLAIMS if not prefixes or _matches(c, prefixes)]


def check(claims: Sequence[Claim] = CLAIMS) -> List[Result]:
    """Run each cell ``claims`` read once and measure them."""
    scalars = {cell: CELLS[cell]()
               for cell in dict.fromkeys(c.cell for c in claims)}
    return [Result(c, scalars[c.cell][c.key]) for c in claims]


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def render(results: Sequence[Result]) -> str:
    """One aligned Markdown table per section, then a summary line that
    names every claim out of bounds.

    ``repro claims`` prints it and EXPERIMENTS.md embeds it.
    """
    sections: Dict[str, List[Sequence[str]]] = {}
    for r in results:
        error = "n/a" if r.error is None else f"{r.error * 100:+.1f}%"
        sections.setdefault(r.claim.section, []).append((
            r.claim.id, _fmt(r.claim.paper), _fmt(r.measured), error,
            f"[{_fmt(r.claim.lo)}, {_fmt(r.claim.hi)}]",
            "ok" if r.ok else "FAIL"))
    lines: List[str] = []
    for section, rows in sections.items():
        lines += [f"### {section}", "", format_table(
            ("claim", "paper", "simulated", "error", "bound", "status"),
            rows, markdown=True), ""]
    failed = [r.claim.id for r in results if not r.ok]
    lines.append(f"{len(results)} claims, " + (
        f"{len(failed)} out of bounds: {', '.join(failed)}" if failed
        else "all within bounds"))
    return "\n".join(lines)
