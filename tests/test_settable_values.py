"""Ratchet: every settable value in ``src/repro`` is set by some caller.

A *settable value* is a defaulted parameter of a public function,
method or constructor (dataclass fields with a default included).  If
no caller in ``src/``, ``scripts/``, ``perfbench/`` or ``examples/``
passes it, every real run uses the default, and the value belongs in a
module constant next to the code that reads it.  The scan is static:
calls are matched to callables by name (import aliases, ``cls(...)``,
``super().__init__(...)`` and ``dataclasses.replace`` resolved), and a
call that splats ``*args``/``**kwargs`` counts as passing every
parameter it could reach.  A value that stays settable without such a
caller needs an :data:`ALLOWED` entry with a one-line reason.

Run as a script to list the unset values, split into those only
``tests/`` pass and those nothing passes::

    PYTHONPATH=src python tests/test_settable_values.py
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "scripts", "perfbench", "examples")

_CALIBRATION = "calibration or workload record; every field is the record"
_PLAN_JSON = "fault-plan or committed-plan JSON field: outside input"
_KERNEL = "repro.sim kernel, resource and monitor API"
_FILLED_IN = "run record: starts empty and is filled in as the run goes"
_TRACER = "README-documented Tracer(max_events=, categories=)"
_TRACE_READS = ("README-documented trace reads: events()/spans()/"
                "counters() narrow by the same category and name")
_TEST_ONLY = ("only tests reach it; deleting it deletes its tests, "
              "left for a later deletion: ")


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
            "hybrid_dell_web", "hybrid_edison_web", "seed", "shape"),
    **_each(_PLAN_JSON, "repro.carbon.jobspec.CarbonJobSpec", "est_s"),
    **_each(_PLAN_JSON, "repro.carbon.report.CarbonDayPlan",
            "intensity", "jobs", "policies", "price", "seed", "slaves"),
    **_each(_PLAN_JSON, "repro.carbon.trace.SignalTrace",
            "interpolation", "period_s", "points"),
    **_each(_PLAN_JSON, "repro.durability.report.DurabilityPlan",
            "detection_s", "faults", "job", "racks", "replications",
            "seed", "settle_s", "slaves"),
    **_each(_PLAN_JSON, "repro.dvfs.report.DvfsPlan",
            "calls", "dell_scale", "edison_scale", "seed"),
    **_each(_PLAN_JSON, "repro.web.loadshape.DiurnalShape", "trough_at_s"),
    **_each(_PLAN_JSON, "repro.web.loadshape.ShapedLoad", "flashes"),
    **_each(_KERNEL, "repro.sim.kernel.Simulation", "start"),
    **_each(_KERNEL, "repro.sim.kernel.Simulation.timeout", "value"),
    **_each(_KERNEL, "repro.sim.monitor.TimeSeries.max_over_time",
            "now", "window_s"),
    **_each(_KERNEL, "repro.sim.monitor.TimeSeries.resample",
            "end", "start"),
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
            "call_delay_sum_s", "connections", "delay_sum_s",
            "error_calls", "failed_connections", "ok_calls",
            "syn_retries", "timeout_calls"),
    **_each(_FILLED_IN, "repro.web.nodes.CallRecord",
            "cache_s", "connect_s", "cpu_s", "db_s", "shed", "status",
            "syn_retries", "total_s", "trace_id"),
    **_each(_TRACER, "repro.trace.spans.Tracer", "categories", "max_events"),
    **_each(_TRACE_READS, "repro.trace.events.TraceLog.counters",
            "category", "name"),
    **_each(_TRACE_READS, "repro.trace.events.TraceLog.spans", "name"),
    **_each(_TEST_ONLY + "test_db_retention_*, test_resample_*retention*",
            "repro.telemetry.tsdb.TimeSeriesDB", "retention_samples"),
    **_each(_TEST_ONLY + "test_registry_rejects_histogram_with_other_"
            "bucket_layout",
            "repro.trace.metrics.MetricsRegistry.histogram", "floor"),
}


class _Callable:
    """One public callable and its defaulted parameters."""

    __slots__ = ("key", "params", "defaulted")

    def __init__(self, key: str, params: List[str], defaulted: List[str]):
        self.key = key
        self.params = params          # positional order, self/cls dropped
        self.defaulted = defaulted


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _decorator_names(node) -> Set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _function_params(node, method: bool) -> Tuple[List[str], List[str]]:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    decorators = _decorator_names(node)
    if method and "staticmethod" not in decorators and positional:
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults):] \
        if args.defaults else []
    defaulted = list(defaulted) + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None]
    return positional + [a.arg for a in args.kwonlyargs], defaulted


def _dataclass_fields(node: ast.ClassDef) -> Tuple[List[str], List[str]]:
    params, defaulted = [], []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith(("ClassVar", "typing.ClassVar")):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"):
            if any(k.arg == "init" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in value.keywords):
                continue
            has_default = any(k.arg in ("default", "default_factory")
                              for k in value.keywords)
        else:
            has_default = value is not None
        params.append(stmt.target.id)
        if has_default:
            defaulted.append(stmt.target.id)
    return params, defaulted


class _Index:
    """Every public callable in the package, looked up by call name."""

    def __init__(self):
        self.by_name: Dict[str, List[_Callable]] = {}
        self.classes: Dict[str, List[_Callable]] = {}
        self.dataclasses: List[_Callable] = []
        self.bases: Dict[str, List[str]] = {}
        for path in sorted(PACKAGE.rglob("*.py")):
            if not all(_is_public(p) or p == "__init__.py"
                       for p in path.relative_to(PACKAGE).parts):
                continue
            module = _module_name(path)
            tree = ast.parse(path.read_text(), str(path))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and _is_public(node.name):
                    params, defaulted = _function_params(node, method=False)
                    self._add(node.name, _Callable(
                        f"{module}.{node.name}", params, defaulted))
                elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                    self._add_class(module, node)
        # Dataclass subclasses inherit their bases' fields, in order.
        for name, ctors in self.classes.items():
            for ctor in ctors:
                if ctor in self.dataclasses:
                    for base in self.bases.get(name, ()):
                        for base_ctor in self.classes.get(base, ()):
                            if base_ctor in self.dataclasses:
                                ctor.params[:0] = base_ctor.params

    def _add(self, name: str, item: _Callable) -> None:
        self.by_name.setdefault(name, []).append(item)

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        qual = f"{module}.{node.name}"
        self.bases[node.name] = [
            b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases]
        ctor = None
        if "dataclass" in _decorator_names(node):
            params, defaulted = _dataclass_fields(node)
            ctor = _Callable(qual, params, defaulted)
            self.dataclasses.append(ctor)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "property" in _decorator_names(stmt):
                continue
            if stmt.name == "__init__":
                params, defaulted = _function_params(stmt, method=True)
                ctor = _Callable(qual, params, defaulted)
            elif _is_public(stmt.name) or stmt.name == "__call__":
                params, defaulted = _function_params(stmt, method=True)
                self._add(stmt.name, _Callable(
                    f"{qual}.{stmt.name}", params, defaulted))
        if ctor is None:
            ctor = _Callable(qual, [], [])
        self.classes.setdefault(node.name, []).append(ctor)

    def settable(self) -> Iterator[str]:
        for group in list(self.by_name.values()) + list(self.classes.values()):
            for item in group:
                for param in item.defaulted:
                    yield f"{item.key}({param})"


def _calls_in(tree: ast.AST) -> Iterator[Tuple[ast.Call, List[str],
                                               Dict[str, str]]]:
    """Yield each call with its enclosing class names and import aliases."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes + [node.name]
        if isinstance(node, ast.Call):
            yield node, classes, aliases
        for child in ast.iter_child_nodes(node):
            yield from visit(child, classes)

    yield from visit(tree, [])


def _targets(index: _Index, call: ast.Call, classes: List[str],
             aliases: Dict[str, str]) -> List[_Callable]:
    func = call.func
    if isinstance(func, ast.Attribute):
        if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and classes):
            return [c for base in index.bases.get(classes[-1], ())
                    for c in index.classes.get(base, ())]
        name = func.attr
    elif isinstance(func, ast.Name):
        name = aliases.get(func.id, func.id)
        if name == "cls" and classes:
            name = classes[-1]
    else:
        return []
    return index.by_name.get(name, []) + index.classes.get(name, [])


def _passed(index: _Index, files) -> Set[str]:
    """Keys of every settable value some call in ``files`` passes."""
    passed: Set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for call, classes, aliases in _calls_in(tree):
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
            for target in _targets(index, call, classes, aliases):
                for position, param in enumerate(target.params):
                    if (param in keywords or splat_kwargs or splat_args
                            or position < len(call.args)):
                        passed.add(f"{target.key}({param})")
    return passed


def _files(*trees: str):
    for tree in trees:
        yield from sorted((ROOT / tree).rglob("*.py"))


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Set[str], Set[str], Set[str]]:
    """Return every settable value, and those passed outside/inside tests."""
    index = _Index()
    values = set(index.settable())
    return (values, _passed(index, _files(*CALLER_TREES)),
            _passed(index, _files("tests")))


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
