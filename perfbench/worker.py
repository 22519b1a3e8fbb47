"""One workload run in a fresh process; prints one JSON line.

    python3 perfbench/worker.py <workload> <sim-seed> [--profile] [--untraced]

Run from the repository root.  The line holds ``setup_s`` (import,
plan load, build and arm), ``wall_s`` (simulation start to result),
``peak_rss_mb`` (this process's ``ru_maxrss``), ``calibration_s`` (a
fixed event loop timed right after the simulation), the result ``digest``,
the exact model ``counts`` and, with ``--profile``, the per-layer
cProfile split of build and simulation together (imports are done
before profiling starts; ``wall_s`` then times the profiled simulation).
``--untraced`` detaches the Tracer of ``web-day-observed``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")


def calibrate(steps: int = 200_000) -> float:
    """Host seconds for a fixed pure-Python event loop (heap + generators).

    It shares no code with the simulator, so a change to ``src/repro``
    cannot move it; only the host's speed can.
    """
    import heapq

    def process(i):
        while True:
            yield (i % 7 + 1) * 0.001

    processes = [process(i) for i in range(300)]
    heap = [(next(p), i) for i, p in enumerate(processes)]
    heapq.heapify(heap)
    start = time.perf_counter()
    for _ in range(steps):
        now, i = heapq.heappop(heap)
        heapq.heappush(heap, (now + processes[i].send(None), i))
    return time.perf_counter() - start


def main(argv) -> None:
    name, seed = argv[0], int(argv[1])
    profile = "--profile" in argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    kwargs = {"traced": False} if "--untraced" in argv[2:] else {}
    if profile:
        import cProfile
        import importlib
        import pkgutil
        import pstats

        import layers
        import repro
        # Import every module first so the profile holds no import work.
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        profiler = cProfile.Profile()
        profiler.enable()
    prepared = workloads.WORKLOADS[name](ROOT, seed, **kwargs)
    t1 = time.perf_counter()
    digest = prepared.run()
    t2 = time.perf_counter()
    if profile:
        profiler.disable()
    record = {
        "setup_s": t1 - T0,
        "wall_s": t2 - t1,
        "calibration_s": calibrate(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest,
        "counts": prepared.counts(),
    }
    if profile:
        record["layers"] = layers.split(pstats.Stats(profiler).stats,
                                        PACKAGE_DIR)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
