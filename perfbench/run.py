"""The simulator benchmark: host time of four workloads, and a per-layer profile.

Run from the repository root:

    python3 perfbench/run.py --workload web-closed --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

Every workload run happens in a fresh ``perfbench/worker.py`` process,
one after another.  ``--seed`` only picks the order in which a run
visits the workload's committed simulation seeds; each run's result
digest must equal the committed one bit for bit, else it counts as a
failed operation.  ``--trace 0`` repeats unprofiled runs for
``--seconds`` and reports the end-to-end medians, scaled to a reference
host speed (see ``REFERENCE_CALIBRATION_S``); ``--trace 1`` adds
two cProfile runs and reports the per-layer split and the exact model
counts.  The last line of standard output is one JSON object.
See ``perfbench/RATIONALE.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LAYERS, OUTSIDE  # noqa: E402
from workloads import CANONICAL_SEED, COUNT_UNITS, WORKLOADS  # noqa: E402

ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
#: Simulation seeds per workload: the canonical seed and the next seven.
POOL_SIZE = 8
#: Unprofiled runs per measurement, however short ``--seconds`` is.
MIN_RUNS = 3
#: Seconds the worker's calibration loop takes on the reference host (a
#: 2-core x86-64 VM at 2.1 GHz on a shared machine, CPython 3.11).  Times
#: are reported at that host's speed: a run's median host seconds times
#: this over the run's mean calibration time.  On a shared machine the
#: host's speed drifts by tens of percent within minutes; the scaling
#: cancels that drift, and no change to ``src/repro`` can move it.
REFERENCE_CALIBRATION_S = 0.15
#: A worker still running this long after its measurement began is
#: killed and counted as failed, so a measurement ends within 180 s.
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    """A worker exited non-zero, timed out or printed no result."""


def run_worker(name: str, seed: int, *flags: str,
               timeout: float = WORKER_TIMEOUT_S) -> Dict:
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, name, str(seed), *flags], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{name} seed {seed}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerFailed(f"{name} seed {seed}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def load_digests() -> Dict[str, Dict[str, object]]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def pool(name: str) -> List[int]:
    return [CANONICAL_SEED[name] + i for i in range(POOL_SIZE)]


def seed_order(name: str, seed: int) -> List[int]:
    """The order in which a run with ``--seed seed`` visits the pool."""
    order = pool(name)
    random.Random(seed).shuffle(order)
    return order


class Measurement:
    """Runs of one workload; failures are counted, never raised."""

    def __init__(self, name: str, digests: Dict[str, object]):
        self.name = name
        self.digests = digests
        self.records: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.deadline = time.perf_counter() + WORKER_TIMEOUT_S

    def run(self, seed: int, *flags: str) -> Optional[Dict]:
        self.attempted += 1
        try:
            record = run_worker(
                self.name, seed, *flags,
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except WorkerFailed as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        if record["digest"] != self.digests.get(str(seed)):
            print(f"FAILED: {self.name} seed {seed}: result digest differs "
                  f"from the committed one", file=sys.stderr)
            self.failed += 1
        return record

    def repeat(self, order: List[int], seconds: float, start: float,
               min_runs: int = MIN_RUNS) -> None:
        """Unprofiled runs until ``seconds`` have passed since ``start``."""
        i = 0
        while i < min_runs or time.perf_counter() - start < seconds:
            record = self.run(order[i % len(order)])
            if record is not None:
                self.records.append(record)
            i += 1

    def median(self, key: str) -> float:
        return statistics.median(r[key] for r in self.records)

    def speed(self) -> float:
        """Reference-host seconds per host second during these runs."""
        return REFERENCE_CALIBRATION_S / statistics.mean(
            r["calibration_s"] for r in self.records)


def end_to_end(name: str, order: List[int], seconds: float,
               digests: Dict) -> Dict:
    """Unprofiled runs over the simulation seeds in ``order``."""
    m = Measurement(name, digests)
    m.repeat(order, seconds, time.perf_counter())
    if not m.records:
        raise WorkerFailed(f"{name}: every run failed")
    walls = sorted(r["wall_s"] for r in m.records)
    speed = m.speed()
    print(f"{name}: {len(m.records)} runs, host wall_s median "
          f"{m.median('wall_s'):.4f} (min {walls[0]:.4f}, max "
          f"{walls[-1]:.4f}), host speed factor {speed:.3f}")
    metrics = {"wall_s": (m.median("wall_s") * speed, "s"),
               "setup_s": (m.median("setup_s") * speed, "s"),
               "peak_rss_mb": (m.median("peak_rss_mb"), "MB")}
    return result(m, metrics)


def per_layer(name: str, order: List[int], seconds: float,
              digests: Dict) -> Dict:
    """Two profiled runs of ``order[0]``, whose counts must match exactly,
    plus unprofiled runs for ``profile.overhead_x`` and the model counts."""
    start = time.perf_counter()
    m = Measurement(name, digests)
    base = m.run(order[0])
    profiled = [m.run(order[0], "--profile") for _ in range(2)]
    if base is None or None in profiled:
        raise WorkerFailed(f"{name}: a profiling run failed")
    m.records.append(base)
    m.repeat(order[1:] + order[:1], seconds, start, min_runs=0)
    # Fresh processes must agree exactly on every count.
    calls = [{k: v["calls"] for k, v in p["layers"].items()} for p in profiled]
    if calls[0] != calls[1] or not (base["counts"] == profiled[0]["counts"]
                                    == profiled[1]["counts"]):
        print(f"FAILED: {name}: counts differ between fresh processes",
              file=sys.stderr)
        m.failed += 1
    split = {layer: statistics.median(
                 p["layers"].get(layer, {}).get("self_s", 0.0) for p in profiled)
             for layer in set(profiled[0]["layers"]) | set(LAYERS)}
    print_layer_table(name, split, calls[0])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (split[layer], "s")
        metrics[f"{layer}.calls"] = (calls[0].get(layer, 0), "count")
    wall = m.median("wall_s")
    metrics["profile.overhead_x"] = (
        statistics.median(p["wall_s"] for p in profiled) / wall, "x")
    for key, unit in COUNT_UNITS.items():
        metrics[key] = (base["counts"][key], unit)
    metrics["kernel.us_per_event"] = (statistics.median(
        r["wall_s"] / r["counts"]["kernel.events"] * 1e6
        for r in m.records) * m.speed(), "us")
    print(f"  model counts are of simulation seed {order[0]}")
    return result(m, metrics)


def result(m: Measurement, metrics: Dict) -> Dict:
    return {"correct": m.failed == 0, "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def print_layer_table(name: str, split: Dict[str, float],
                      calls: Dict[str, int]) -> None:
    total = sum(split.values()) or 1.0
    print(f"{name}: per-layer self time (cProfile, build + simulation)")
    print(f"  {'layer':20s} {'self_s':>9s} {'share':>7s} {'calls':>11s}")
    for layer, self_s in sorted(split.items(), key=lambda kv: -kv[1]):
        if layer not in LAYERS and self_s < 0.0005 and layer != OUTSIDE:
            continue
        print(f"  {layer:20s} {self_s:9.4f} {100 * self_s / total:6.1f}% "
              f"{calls.get(layer, 0):>11,d}")
    observing = sum(split.get(layer, 0.0)
                    for layer in ("trace", "telemetry", "causality"))
    print(f"  observability on (trace + telemetry + causality): "
          f"{observing:.4f} s, {100 * observing / total:.1f}%")


def print_metrics(name: str, res: Dict) -> None:
    print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for key, metric in res["metrics"].items():
        if not key.endswith((".self_s", ".calls")):     # in the layer table
            print(f"  {key:34s} {metric['value']:>14.6g} {metric['unit']}")


# -- the self-test and the digest recorder -----------------------------------


def self_test() -> bool:
    """Fidelity and exact-count checks; True when all pass."""
    digests = load_digests()
    ok = True

    def check(label: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}")

    with open(os.path.join(ROOT, "BENCH_kernel_scale.json"),
              encoding="utf-8") as handle:
        ledger = json.load(handle)["post"]
    for name, cell in (("web-closed", ledger["web_scale"]["70"]),
                       ("terasort", ledger["terasort"]["4"])):
        record = run_worker(name, CANONICAL_SEED[name])
        check(f"{name}: {record['counts']['kernel.events']:,} events == "
              f"{cell['processed']:,} in BENCH_kernel_scale.json",
              record["counts"]["kernel.events"] == cell["processed"])
        check(f"{name}: digest == BENCH_kernel_scale.json digest",
              record["digest"] == cell["digest"])
    for name in WORKLOADS:
        res = per_layer(name, [CANONICAL_SEED[name]], 0, digests[name])
        check(f"{name}: digests == committed; calls and counts repeat "
              f"across fresh processes", res["correct"])
    twin = run_worker("web-day-observed", CANONICAL_SEED["web-day-observed"],
                      "--untraced")
    check("web-day-observed: Tracer-off twin digest == committed",
          twin["digest"] == digests["web-day-observed"][
              str(CANONICAL_SEED["web-day-observed"])])
    check("benchmark arms == the repo's own sweeps", same_as_sweeps(digests))
    return ok


def same_as_sweeps(digests: Dict) -> bool:
    """The two rebuilt experiment arms equal the repo's sweep functions."""
    import dataclasses
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.durability import DurabilityPlan, durability_experiment
    from repro.dvfs import DvfsPlan, dvfs_experiment

    experiments = os.path.join(ROOT, "experiments")
    day = DurabilityPlan.load(os.path.join(experiments, "durability_day.json"))
    arms = durability_experiment(day, controls=False).arms
    durability = json.loads(json.dumps([a.to_dict() for a in arms]))
    sweep = DvfsPlan.load(os.path.join(experiments, "dvfs_day.json"))
    sweep = dataclasses.replace(sweep, shapes={"flash": sweep.shapes["flash"]})
    arm = dvfs_experiment(sweep, governors=("ondemand",), platforms=("edison",),
                          scorecards=False).arms[0]
    dvfs = json.loads(json.dumps(arm.to_dict()))
    return (durability == digests["job-day-faulted"][str(day.seed)]
            and dvfs == digests["web-day-observed"][str(sweep.seed)])


def record_digests() -> None:
    """Run every pool seed of every workload and write ``digests.json``."""
    out: Dict[str, Dict[str, object]] = {}
    for name in WORKLOADS:
        out[name] = {}
        for seed in pool(name):
            digest = run_worker(name, seed)["digest"]
            if name == "web-day-observed":
                twin = run_worker(name, seed, "--untraced")["digest"]
                if twin != digest:
                    raise SystemExit(f"{name} seed {seed}: tracing changed "
                                     f"the result")
            out[name][str(seed)] = digest
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.self_test:
        return 0 if self_test() else 1
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # Compile the sources once so no measured run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/repro",
                    HERE], cwd=ROOT, capture_output=True, timeout=60)
    digests = load_digests()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = {}
    try:
        for name in names:
            for mode in modes:
                measure = per_layer if mode else end_to_end
                res = measure(name, seed_order(name, args.seed),
                              args.seconds, digests.get(name, {}))
                print_metrics(name, res)
                results[f"{name}/trace{mode}"] = res
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
