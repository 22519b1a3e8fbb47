"""Per-layer split of a cProfile run, keyed by repro's module names.

Every profiled function defined under ``src/repro`` is charged to a
layer named after its module path: ``sim/kernel.py`` is ``sim.kernel``,
``mapreduce/hdfs.py`` is ``mapreduce.hdfs``, ``web/httperf.py`` is
``web``.  A function defined anywhere else (a C builtin such as
``heappush`` or ``generator.send``, or a stdlib helper) is charged to
the layers that called it, in proportion to the time each caller spent
in it, recursively up to the first caller inside ``src/repro``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: The layers the benchmark reports, most specific first where they nest.
LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.resources", "sim.monitor", "net", "hardware", "web",
    "mapreduce.runtime", "mapreduce.yarn", "mapreduce.hdfs", "energy",
    "trace", "telemetry", "causality", "dvfs", "faults", "durability",
    "cluster",
)

#: Bucket for time no repro function is on the stack for (the profiler's
#: own enable/disable and the benchmark's call into the workload).
OUTSIDE = "(outside)"


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer of a source file, or None when it is not under repro.

    Modules under repro that no listed layer covers are bucketed by
    their package (``mapreduce/costs.py`` -> ``mapreduce``,
    ``workloads/teragen.py`` -> ``workloads``).
    """
    path = os.path.abspath(filename)
    if not path.startswith(package_dir + os.sep) or not path.endswith(".py"):
        return None
    parts = [p for p in path[len(package_dir) + 1:-3].split(os.sep)
             if p != "__init__"]
    for n in range(len(parts), 0, -1):
        name = ".".join(parts[:n])
        if name in LAYERS:
            return name
    return parts[0] if parts else "repro"


def split(stats: Dict, package_dir: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": n}}`` from ``pstats`` stats.

    ``stats`` is ``pstats.Stats(profile).stats``: function key ->
    ``(primitive calls, calls, self time, cumulative time, callers)``.
    ``calls`` counts calls of the layer's own functions; a generator
    resumption counts as a call, exactly as cProfile records it.
    """
    package_dir = os.path.abspath(package_dir)
    owners: Dict[tuple, Dict[str, float]] = {}
    visiting = set()

    def owner(func) -> Dict[str, float]:
        """Fractions of ``func``'s self time charged to each layer."""
        if func in owners:
            return owners[func]
        layer = layer_of(func[0], package_dir)
        if layer is not None:
            owners[func] = {layer: 1.0}
            return owners[func]
        if func not in stats:       # the caller that enabled the profiler
            return {OUTSIDE: 1.0}
        if func in visiting:
            return {}
        visiting.add(func)
        callers = stats[func][4]
        total_t = sum(entry[2] for entry in callers.values())
        total_n = sum(entry[1] for entry in callers.values())
        shares: Dict[str, float] = {}
        for caller, entry in callers.items():
            weight = (entry[2] / total_t if total_t > 0
                      else entry[1] / total_n if total_n > 0 else 0.0)
            for name, frac in owner(caller).items():
                shares[name] = shares.get(name, 0.0) + weight * frac
        visiting.discard(func)
        # Renormalise: a caller on a recursion cycle contributed nothing.
        total = sum(shares.values())
        owners[func] = ({name: frac / total for name, frac in shares.items()}
                        if total > 0 else {OUTSIDE: 1.0})
        return owners[func]

    out: Dict[str, Dict[str, float]] = {}
    for func, (_cc, ncalls, self_t, _ct, _callers) in stats.items():
        for name, frac in owner(func).items():
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_t * frac
        layer = layer_of(func[0], package_dir)
        if layer is not None:
            out[layer]["calls"] += ncalls
    return out
