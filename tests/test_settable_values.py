"""Ratchet: every settable value in ``src/repro`` is set by some caller.

A *settable value* is a defaulted parameter of a public function,
method or constructor (dataclass fields with a default included).  If
no caller in ``src/``, ``scripts/``, ``perfbench/`` or ``examples/``
passes it, every real run uses the default, and the value belongs in a
module constant next to the code that reads it.  The scan is static:
calls are matched to callables by name (import aliases, ``cls(...)``,
``super().__init__(...)`` and ``dataclasses.replace`` resolved), and a
call that splats ``*args``/``**kwargs`` counts as passing every
parameter it could reach.  A method call is matched on its receiver
where the receiver's class is known — ``self``/``cls``, a local built
by one constructor (or by one function annotated to return a repro
class), or an imported module — so ``statistics.mean(xs)`` or a
``ProbeLog``'s ``log.histogram(0.5, 8.0)`` sets no repro method of
that name.  Any other receiver still matches every method of the name.  A value that stays settable without such a
caller needs an :data:`ALLOWED` entry with a one-line reason.

Run as a script to list the unset values, split into those only
``tests/`` pass and those nothing passes::

    PYTHONPATH=src python tests/test_settable_values.py
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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
    **_each(_TRACE_READS, "repro.trace.events.TraceLog.spans",
            "category", "name"),
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
        self.methods: Dict[str, Dict[str, List[_Callable]]] = {}
        self.modules: Set[str] = set()
        #: Function name -> the class names its definitions return.
        self.returns: Dict[str, Set[str]] = {}
        self.dataclasses: List[_Callable] = []
        self.bases: Dict[str, List[str]] = {}
        for path in sorted(PACKAGE.rglob("*.py")):
            if not all(_is_public(p) or p == "__init__.py"
                       for p in path.relative_to(PACKAGE).parts):
                continue
            module = _module_name(path)
            self.modules.add(module)
            tree = ast.parse(path.read_text(), str(path))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and _is_public(node.name):
                    params, defaulted = _function_params(node, method=False)
                    self._add(node.name, _Callable(
                        f"{module}.{node.name}", params, defaulted))
                    self.returns.setdefault(node.name, set()).add(
                        ast.unparse(node.returns).strip("'\"")
                        if node.returns is not None else "")
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
                method = _Callable(f"{qual}.{stmt.name}", params, defaulted)
                self._add(stmt.name, method)
                self.methods.setdefault(node.name, {}).setdefault(
                    stmt.name, []).append(method)
        if ctor is None:
            ctor = _Callable(qual, [], [])
        self.classes.setdefault(node.name, []).append(ctor)

    def related(self, name: str) -> Set[str]:
        """``name`` and every class it inherits from or passes on to."""
        found, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current in found:
                continue
            found.add(current)
            todo.extend(self.bases.get(current, ()))
            todo.extend(sub for sub, bases in self.bases.items()
                        if current in bases)
        return found

    def method(self, class_name: str, name: str) -> List[_Callable]:
        """The public methods ``name`` a ``class_name`` receiver can reach."""
        return [m for cls in sorted(self.related(class_name))
                for m in self.methods.get(cls, {}).get(name, ())]

    def settable(self) -> Iterator[str]:
        for group in list(self.by_name.values()) + list(self.classes.values()):
            for item in group:
                for param in item.defaulted:
                    yield f"{item.key}({param})"


#: Built-in constructors: a local built by one is no repro class.
_BUILTIN_TYPES = frozenset(("dict", "list", "set", "frozenset", "tuple",
                            "str", "bytes", "int", "float", "object"))


class _Scope:
    """What a file binds: import aliases, module names and, per
    function, the locals built by one known constructor."""

    def __init__(self, index: _Index, tree: ast.AST, package: str):
        self.aliases: Dict[str, str] = {}
        #: Bound name -> the module it names (repro or not).
        self.modules: Dict[str, str] = {}
        parts = package.split(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = \
                        alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parent = ".".join(parts[:len(parts) + 1 - node.level])
                    base = f"{parent}.{base}" if base else parent
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    if f"{base}.{alias.name}" in index.modules:
                        self.modules[alias.asname or alias.name] = \
                            f"{base}.{alias.name}"


def _local_classes(index: _Index, function, scope: _Scope
                   ) -> Dict[str, str]:
    """Locals of ``function`` every binding of which assigns a call to
    the same constructor: name -> its class name, "" when not a repro
    class.  A parameter or any other binding leaves a name unknown."""
    args = function.args
    built: Dict[str, Set[Optional[str]]] = {
        a.arg: {None} for a in args.posonlyargs + args.args
        + args.kwonlyargs + [args.vararg, args.kwarg] if a is not None}
    assigned: Dict[int, Optional[str]] = {}
    for node in ast.walk(function):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        kind = None
        if isinstance(func, ast.Name):
            name = scope.aliases.get(func.id, func.id)
            returns = index.returns.get(name, set())
            if name in index.classes:
                kind = name
            elif name in _BUILTIN_TYPES:
                kind = ""
            elif len(returns) == 1 and next(iter(returns)) \
                    in index.classes:
                kind = next(iter(returns))
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in scope.modules
              and scope.modules[func.value.id] not in index.modules):
            kind = ""
        for target in node.targets:
            if isinstance(target, ast.Name):
                assigned[id(target)] = kind
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            built.setdefault(node.id, set()).add(assigned.get(id(node)))
    return {name: kinds.pop() for name, kinds in built.items()
            if len(kinds) == 1 and None not in kinds}


def _calls_in(index: _Index, tree: ast.AST, scope: _Scope
              ) -> Iterator[Tuple[ast.Call, List[str], Dict[str, str]]]:
    """Yield each call with its enclosing class names and the locals of
    its function whose class is known."""

    def visit(node, classes, local):
        if isinstance(node, ast.ClassDef):
            classes = classes + [node.name]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = {**local, **_local_classes(index, node, scope)}
        if isinstance(node, ast.Call):
            yield node, classes, local
        for child in ast.iter_child_nodes(node):
            yield from visit(child, classes, local)

    yield from visit(tree, [], {})


def _targets(index: _Index, call: ast.Call, classes: List[str],
             local: Dict[str, str], scope: _Scope) -> List[_Callable]:
    """The callables ``call`` may reach.

    A method call resolves on its receiver where the scan knows the
    receiver's class: ``self``/``cls``, a local every assignment of
    which calls one constructor (or one function annotated to return a
    repro class), or a module.  A known receiver without such a method
    reaches nothing; any other receiver reaches every method of the
    name."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and classes):
            return [c for base in index.bases.get(classes[-1], ())
                    for c in index.classes.get(base, ())]
        name = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if (receiver.id in ("self", "cls") and classes
                    and classes[-1] in index.classes):
                return index.method(classes[-1], name)
            if receiver.id in local:
                owner = local[receiver.id]
                return index.method(owner, name) if owner else []
            module = scope.modules.get(receiver.id)
            if module is not None:
                # A package exports the names of its submodules.
                return [c for c in index.by_name.get(name, [])
                        + index.classes.get(name, [])
                        if c.key.rpartition(".")[0] in index.modules
                        and f"{c.key}.".startswith(f"{module}.")]
        return index.by_name.get(name, []) + index.classes.get(name, [])
    if isinstance(func, ast.Name):
        name = scope.aliases.get(func.id, func.id)
        if name == "cls" and classes:
            name = classes[-1]
        return index.by_name.get(name, []) + index.classes.get(name, [])
    return []


def _passed(index: _Index, files) -> Set[str]:
    """Keys of every settable value some call in ``files`` passes."""
    passed: Set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        package = ""
        if PACKAGE in path.parents:
            package = _module_name(path)
            if path.name != "__init__.py":
                package = package.rpartition(".")[0]
        scope = _Scope(index, tree, package)
        for call, classes, local in _calls_in(index, tree, scope):
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
            for target in _targets(index, call, classes, local, scope):
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


def test_method_calls_resolve_on_known_receivers(tmp_path):
    index = _Index()
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
