"""Ratchet: every settable value in ``src/repro`` is set by some caller.

A *settable value* is a defaulted parameter of a public function,
method or constructor (dataclass fields with a default included).  If
no caller in ``src/``, ``scripts/``, ``perfbench/`` or ``examples/``
passes it, every real run uses the default, and the value belongs in a
module constant next to the code that reads it.  The scan is static
and shares its index and receiver resolution with
``tests/test_reachable_defs.py`` (``tests/source_index.py``): calls
are matched to callables by name (import aliases, ``cls(...)``,
``super().__init__(...)`` and ``dataclasses.replace`` resolved), a
method call resolves on its receiver where the receiver's class is
known, and a call that splats ``*args``/``**kwargs`` counts as
passing every parameter it could reach.  So a ``ProbeLog``'s
``log.histogram(0.5, 8.0)`` or ``statistics.mean(xs)`` sets no other
repro method of that name.  A value that stays settable without such a
caller needs an :data:`ALLOWED` entry with a one-line reason.

Run as a script to list the unset values, split into those only
``tests/`` pass and those nothing passes::

    PYTHONPATH=src python tests/test_settable_values.py
"""

from __future__ import annotations

import ast
import functools
from typing import Dict, List, Set, Tuple

try:
    from tests.source_index import CALLER_TREES, Index, files, targets, walk
except ImportError:  # run as a script, with tests/ on sys.path
    from source_index import CALLER_TREES, Index, files, targets, walk

_CALIBRATION = "calibration or workload record; every field is the record"
_PLAN_JSON = "fault-plan or committed-plan JSON field: outside input"
_KERNEL = "repro.sim kernel, resource and monitor API"
_FILLED_IN = "run record: starts empty and is filled in as the run goes"
_TRACER = "README-documented Tracer(max_events=, categories=)"
_TRACE_READS = ("README-documented trace reads: events()/spans()/"
                "counters() narrow by the same category and name")


def _each(reason: str, callable_: str, *params: str) -> Dict[str, str]:
    return {f"{callable_}({param})": reason for param in params}


#: Settable values kept without a non-test caller, each with its reason.
ALLOWED: Dict[str, str] = {
    **_each(_CALIBRATION, "repro.hardware.memory.MemorySpec",
            "half_rate_block"),
    **_each(_CALIBRATION, "repro.mapreduce.config.HadoopConfig",
            "heartbeat_s", "slowstart"),
    **_each(_CALIBRATION, "repro.tco.model.TcoInputs", "lifetime_years"),
    **_each(_CALIBRATION, "repro.web.params.ConnectionLimits",
            "time_wait_s"),
    **_each(_CALIBRATION, "repro.web.params.ServiceCosts", "error_mi"),
    **_each(_CALIBRATION, "repro.web.params.WebWorkload",
            "client_timeout_s", "request_bytes"),
    **_each(_PLAN_JSON, "repro.autoscale.report.DayPlan",
            "calls", "dell_scale", "edison_scale", "hybrid_cache",
            "hybrid_dell_web", "hybrid_edison_web", "seed"),
    **_each(_PLAN_JSON, "repro.carbon.jobspec.CarbonJobSpec", "est_s"),
    **_each(_PLAN_JSON, "repro.carbon.report.CarbonDayPlan",
            "policies", "seed", "slaves"),
    **_each(_PLAN_JSON, "repro.carbon.trace.SignalTrace",
            "interpolation", "period_s"),
    **_each(_PLAN_JSON, "repro.durability.report.DurabilityPlan",
            "detection_s", "job", "racks", "replications",
            "seed", "settle_s", "slaves"),
    **_each(_PLAN_JSON, "repro.dvfs.report.DvfsPlan",
            "calls", "dell_scale", "edison_scale", "seed"),
    **_each(_PLAN_JSON, "repro.faults.models.RecurringFault",
            "factor", "loss", "start"),
    **_each(_PLAN_JSON, "repro.web.loadshape.DiurnalShape", "trough_at_s"),
    **_each(_PLAN_JSON, "repro.web.loadshape.ShapedLoad", "flashes"),
    **_each(_KERNEL, "repro.sim.kernel.Simulation", "start"),
    **_each(_KERNEL, "repro.sim.kernel.Simulation.timeout", "value"),
    **_each(_KERNEL, "repro.sim.monitor.periodic_sampler",
            "category", "tracer", "until"),
    **_each(_KERNEL, "repro.sim.resources.Container", "init"),
    **_each(_KERNEL, "repro.sim.resources.Store", "capacity", "name"),
    **_each(_FILLED_IN, "repro.causality.energy.NodeEnergy",
            "baseline_j", "by_span", "metered_j", "unattributed_j"),
    **_each(_FILLED_IN, "repro.causality.forest.SpanNode", "children"),
    **_each(_FILLED_IN, "repro.faults.injector.FaultRecord", "end"),
    **_each(_FILLED_IN, "repro.mapreduce.runtime.JobTimeline",
            "map_progress", "mem", "power_w", "reduce_progress"),
    **_each(_FILLED_IN, "repro.net.flows.Flow", "rate_Bps"),
    **_each(_FILLED_IN, "repro.web.client.ProbeLog", "give_ups"),
    **_each(_FILLED_IN, "repro.web.httperf.LevelStats",
            "connections", "delay_sum_s", "error_calls",
            "failed_connections", "ok_calls", "syn_retries",
            "timeout_calls"),
    **_each(_FILLED_IN, "repro.web.nodes.CallRecord",
            "cache_s", "connect_s", "cpu_s", "db_s", "shed", "status",
            "syn_retries", "total_s", "trace_id"),
    **_each(_TRACER, "repro.trace.spans.Tracer", "categories", "max_events"),
    **_each(_TRACE_READS, "repro.trace.events.TraceLog.counters",
            "category", "name"),
    **_each(_TRACE_READS, "repro.trace.events.TraceLog.spans",
            "category", "name"),
}


def _passed(index: Index, paths) -> Set[str]:
    """Keys of every settable value some call in ``paths`` passes."""
    passed: Set[str] = set()
    for path in paths:
        for call, where in walk(index, path):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", "")
            if name == "replace":
                # dataclasses.replace(obj, field=...) sets that field.
                for keyword in call.keywords:
                    for ctor in index.dataclasses:
                        if keyword.arg in ctor.defaulted:
                            passed.add(f"{ctor.key}({keyword.arg})")
            splat_args = any(isinstance(a, ast.Starred) for a in call.args)
            splat_kwargs = any(k.arg is None for k in call.keywords)
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            for target in targets(func, where):
                for position, param in enumerate(target.params):
                    if (param in keywords or splat_kwargs or splat_args
                            or position < len(call.args)):
                        passed.add(f"{target.key}({param})")
    return passed


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Set[str], Set[str], Set[str]]:
    """Return every settable value, and those passed outside/inside tests."""
    index = Index()
    values = set(index.settable())
    return (values, _passed(index, files(*CALLER_TREES)),
            _passed(index, files("tests")))


def unset_values() -> List[str]:
    values, passed, _ = scan()
    return sorted(key for key in values if key not in passed)


def test_every_settable_value_has_a_caller_or_a_reason():
    unset = set(unset_values())
    unexplained = sorted(unset - set(ALLOWED))
    assert not unexplained, (
        "defaulted parameters no caller outside tests/ passes; make each "
        "a module constant or add an ALLOWED entry with its reason:\n  "
        + "\n  ".join(unexplained))


def test_allowlist_names_only_unset_values():
    unset = set(unset_values())
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, ("ALLOWED entries that a caller now passes, or that "
                       "no longer exist:\n  " + "\n  ".join(stale))
    assert all(reason.strip() for reason in ALLOWED.values())


def test_method_calls_resolve_on_known_receivers(tmp_path):
    index = Index()
    bin_width = "repro.web.client.ProbeLog.histogram(bin_width_s)"
    registry_name = "repro.trace.metrics.MetricsRegistry.histogram(name)"
    callers = {
        # A local built by a function annotated to return ProbeLog.
        "probe": ("from repro.web.client import delay_distribution\n"
                  "def f():\n"
                  "    log = delay_distribution('edison')\n"
                  "    log.histogram(0.5)\n", {bin_width}),
        # A local built by another class, and a foreign module.
        "other": ("import statistics\n"
                  "from repro.trace.metrics import MetricsRegistry\n"
                  "def f(xs):\n"
                  "    registry = MetricsRegistry()\n"
                  "    registry.histogram('d', 0.5)\n"
                  "    statistics.histogram(0.5)\n", {registry_name}),
        # A parameter: its class is unknown, so the name still matches.
        "unknown": ("def f(log):\n"
                    "    log.histogram(0.5)\n", {bin_width, registry_name}),
        # A parameter annotated with a repro class.
        "annotated": ("from repro.web.client import ProbeLog\n"
                      "def f(log: ProbeLog):\n"
                      "    log.histogram(0.5)\n", {bin_width}),
        # self.<attr>, typed by what Telemetry.__init__ assigns it.
        "attribute": ("class Telemetry:\n"
                      "    def f(self):\n"
                      "        self.metrics.histogram('d', 0.5)\n",
                      {registry_name}),
    }
    for name, (source, expected) in callers.items():
        path = tmp_path / f"{name}.py"
        path.write_text(source)
        passed = {key for key in _passed(index, [path])
                  if ".histogram(" in key}
        assert passed == expected, name


if __name__ == "__main__":
    values, passed, test_passed = scan()
    unset = sorted(key for key in values if key not in passed)
    only_tests = [key for key in unset if key in test_passed]
    nothing = [key for key in unset if key not in test_passed]
    print(f"{len(values)} settable values, {len(unset)} unset outside "
          f"tests/: {len(only_tests)} only tests pass, {len(nothing)} "
          f"nothing passes; {len(set(unset) - set(ALLOWED))} not allowed")
    for title, keys in (("only tests pass", only_tests),
                        ("nothing passes", nothing)):
        print(f"\n# {title}")
        for key in keys:
            print(("  allowed " if key in ALLOWED else "          ") + key)
