"""The static index of ``src/repro`` that the two source ratchets share.

:class:`Index` records every public def of the package: each function,
class, method and property of a public module, with the parameters of
the callables.  :func:`walk` visits a file's nodes together with what
the scan knows at each one (:class:`Where`), and :func:`targets`
resolves a name or an attribute there to the defs it may reach.
``tests/test_settable_values.py`` uses them to find the defaulted
parameters no caller passes, ``tests/test_reachable_defs.py`` to find
the defs no caller reaches.

Names are matched through import aliases.  An attribute resolves on
its receiver where the scan can tell the receiver's class:

- ``self``/``cls`` inside a class of the package;
- a local every binding of which calls one constructor (or one
  function annotated to return a repro class), or a parameter
  annotated with one class (``Optional[X]`` is ``X``);
- ``<receiver>.<attr>`` of such a receiver, where every assignment of
  ``self.<attr>`` in that class and its relatives is one constructor
  call, or one such typed local, or a class-level annotation
  (``self.meter = PowerMeter(...)``, or ``self.sim = sim`` with
  ``sim: Simulation``; assigning ``None`` leaves the type alone);
- a module.

A known receiver without such a member reaches nothing; any other
receiver reaches every member of the name.  An ``object`` annotation
types nothing: what it receives is duck-typed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "scripts", "perfbench", "examples")


class Def:
    """One public def, with its parameters when it is a callable."""

    __slots__ = ("key", "params", "defaulted", "lines")

    def __init__(self, key: str, params: List[str], defaulted: List[str],
                 lines: int = 0):
        self.key = key
        self.params = params          # positional order, self/cls dropped
        self.defaulted = defaulted
        self.lines = lines


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def package_of(path: Path) -> str:
    """The package a relative import in ``path`` starts from ("" outside
    ``src/repro``)."""
    if PACKAGE not in path.parents:
        return ""
    module = module_name(path)
    return module if path.name == "__init__.py" else module.rpartition(".")[0]


def is_public(name: str) -> bool:
    return not name.startswith("_")


def decorator_names(node) -> Set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _lines(node) -> int:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return node.end_lineno - first + 1


def _function_params(node, method: bool) -> Tuple[List[str], List[str]]:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    decorators = decorator_names(node)
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
        # ``decoded``/``domain`` (repro.core.records) wrap ``field``: a
        # default comes only from their default= or default_factory=.
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("field", "decoded", "domain")):
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


def _is_function(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


class Index:
    """Every public def in the package, looked up by name."""

    def __init__(self):
        #: Function or method name -> the callables of that name.
        self.by_name: Dict[str, List[Def]] = {}
        #: Class name -> its constructors.
        self.classes: Dict[str, List[Def]] = {}
        #: Class name -> member name -> its methods and properties.
        self.methods: Dict[str, Dict[str, List[Def]]] = {}
        self.modules: Set[str] = set()
        #: Function name -> the class names its definitions return.
        self.returns: Dict[str, Set[str]] = {}
        self.dataclasses: List[Def] = []
        self.bases: Dict[str, List[str]] = {}
        #: Every public def by key (``__call__`` is a dunder, so none).
        self.defs: Dict[str, Def] = {}
        #: Class name -> ``self.<attr>`` -> the kinds assigned to it.
        self.attrs: Dict[str, Dict[str, Set[Optional[str]]]] = {}
        trees = []
        for path in sorted(PACKAGE.rglob("*.py")):
            if not all(is_public(p) or p == "__init__.py"
                       for p in path.relative_to(PACKAGE).parts):
                continue
            module = module_name(path)
            self.modules.add(module)
            tree = ast.parse(path.read_text(), str(path))
            trees.append((path, tree))
            for node in tree.body:
                if _is_function(node) and is_public(node.name):
                    params, defaulted = _function_params(node, method=False)
                    self._add(node.name, Def(
                        f"{module}.{node.name}", params, defaulted,
                        _lines(node)))
                    self.returns.setdefault(node.name, set()).add(
                        ast.unparse(node.returns).strip("'\"")
                        if node.returns is not None else "")
                elif isinstance(node, ast.ClassDef) and is_public(node.name):
                    self._add_class(module, node)
        # Dataclass subclasses inherit their bases' fields, in order.
        for name, ctors in self.classes.items():
            for ctor in ctors:
                if ctor in self.dataclasses:
                    for base in self.bases.get(name, ()):
                        for base_ctor in self.classes.get(base, ()):
                            if base_ctor in self.dataclasses:
                                ctor.params[:0] = base_ctor.params
        for path, tree in trees:
            scope = Scope(self, tree, package_of(path))
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    for attr, kinds in class_attrs(node, scope).items():
                        self.attrs.setdefault(node.name, {}).setdefault(
                            attr, set()).update(kinds)

    def _add(self, name: str, item: Def) -> None:
        self.by_name.setdefault(name, []).append(item)
        if is_public(name):
            self.defs[item.key] = item

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        qual = f"{module}.{node.name}"
        self.bases[node.name] = [
            b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases]
        ctor = None
        if "dataclass" in decorator_names(node):
            params, defaulted = _dataclass_fields(node)
            ctor = Def(qual, params, defaulted)
            self.dataclasses.append(ctor)
        for stmt in node.body:
            if not _is_function(stmt):
                continue
            decorators = decorator_names(stmt)
            if decorators & {"setter", "deleter"}:
                continue
            if stmt.name == "__init__":
                params, defaulted = _function_params(stmt, method=True)
                ctor = Def(qual, params, defaulted)
            elif is_public(stmt.name) or stmt.name == "__call__":
                params, defaulted = ([], []) if "property" in decorators \
                    else _function_params(stmt, method=True)
                method = Def(f"{qual}.{stmt.name}", params, defaulted,
                             _lines(stmt))
                self._add(stmt.name, method)
                self.methods.setdefault(node.name, {}).setdefault(
                    stmt.name, []).append(method)
        if ctor is None:
            ctor = Def(qual, [], [])
        ctor.lines = _lines(node)
        self.classes.setdefault(node.name, []).append(ctor)
        self.defs[qual] = ctor

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

    def method(self, class_name: str, name: str) -> List[Def]:
        """The public members ``name`` a ``class_name`` receiver can reach."""
        return [m for cls in sorted(self.related(class_name))
                for m in self.methods.get(cls, {}).get(name, ())]

    def attr_kind(self, class_name: str, attr: str) -> Optional[str]:
        """The one class every assignment of ``self.<attr>`` in
        ``class_name`` and its relatives gives it, else None."""
        kinds = set()
        for cls in self.related(class_name):
            kinds |= self.attrs.get(cls, {}).get(attr, set())
        return kinds.pop() if len(kinds) == 1 and None not in kinds \
            else None

    def settable(self) -> Iterator[str]:
        for group in list(self.by_name.values()) + list(self.classes.values()):
            for item in group:
                for param in item.defaulted:
                    yield f"{item.key}({param})"


#: Built-in constructors: a value built by one is no repro class.
_BUILTIN_TYPES = frozenset(("dict", "list", "set", "frozenset", "tuple",
                            "str", "bytes", "int", "float", "object"))
#: Annotations of a value that is no repro class (``object`` is
#: anything).
_PLAIN_ANNOTATIONS = (_BUILTIN_TYPES - {"object"}) | frozenset((
    "bool", "Dict", "List", "Set", "FrozenSet", "Tuple", "Sequence",
    "Mapping", "MutableMapping", "Iterable", "Iterator", "Path"))


class Scope:
    """What a file binds: import aliases and module names."""

    def __init__(self, index: Index, tree: ast.AST, package: str):
        self.index = index
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

    def call_kind(self, call: ast.Call) -> Optional[str]:
        """The class a call builds: "" when no repro class, None when
        the scan cannot tell."""
        index, func = self.index, call.func
        if isinstance(func, ast.Name):
            name = self.aliases.get(func.id, func.id)
            returns = index.returns.get(name, set())
            if name in index.classes:
                return name
            if name in _BUILTIN_TYPES:
                return ""
            if len(returns) == 1 and next(iter(returns)) in index.classes:
                return next(iter(returns))
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in self.modules
              and self.modules[func.value.id] not in index.modules):
            return ""
        return None

    def annotation_kind(self, node) -> Optional[str]:
        """The class an annotation names: "" when no repro class, None
        when the scan cannot tell."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)):
            if node.value.id == "Optional":
                return self.annotation_kind(node.slice)
            return "" if node.value.id in _PLAIN_ANNOTATIONS else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [s for s in (node.left, node.right)
                     if not (isinstance(s, ast.Constant) and s.value is None)]
            return self.annotation_kind(sides[0]) if len(sides) == 1 \
                else None
        if isinstance(node, ast.Name):
            name = self.aliases.get(node.id, node.id)
            if name in self.index.classes:
                return name
            return "" if name in _PLAIN_ANNOTATIONS else None
        return None


def local_classes(function, scope: Scope) -> Dict[str, Optional[str]]:
    """Every name ``function`` binds -> the class of its value where
    every binding gives it the same one (see :meth:`Scope.call_kind`
    and :meth:`Scope.annotation_kind`), else None."""
    args = function.args
    built: Dict[str, Set[Optional[str]]] = {
        a.arg: {scope.annotation_kind(a.annotation)}
        for a in args.posonlyargs + args.args + args.kwonlyargs}
    for a in (args.vararg, args.kwarg):
        if a is not None:
            built[a.arg] = {None}
    assigned: Dict[int, Optional[str]] = {}
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            kind = scope.call_kind(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[id(target)] = kind
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            built.setdefault(node.id, set()).add(assigned.get(id(node)))
    return {name: kinds.pop() if len(kinds) == 1 else None
            for name, kinds in built.items()}


def _is_self_attr(node) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def class_attrs(node: ast.ClassDef, scope: Scope
                ) -> Dict[str, Set[Optional[str]]]:
    """``self.<attr>`` -> the classes the body and methods of ``node``
    give it, None for a value the scan cannot type."""
    kinds: Dict[str, Set[Optional[str]]] = {}
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            kinds.setdefault(stmt.target.id, set()).add(
                scope.annotation_kind(stmt.annotation))
    for method in filter(_is_function, node.body):
        local = local_classes(method, scope)
        typed: Dict[int, Optional[str]] = {}
        blank: Set[int] = set()
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.AnnAssign) and _is_self_attr(stmt.target):
                typed[id(stmt.target)] = scope.annotation_kind(
                    stmt.annotation)
            elif not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                      and _is_self_attr(stmt.targets[0])):
                continue
            elif (isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None):
                blank.add(id(stmt.targets[0]))
            elif isinstance(stmt.value, ast.Call):
                typed[id(stmt.targets[0])] = scope.call_kind(stmt.value)
            elif isinstance(stmt.value, ast.Name):
                typed[id(stmt.targets[0])] = local.get(stmt.value.id)
        for stmt in ast.walk(method):
            if (_is_self_attr(stmt) and isinstance(stmt.ctx, ast.Store)
                    and id(stmt) not in blank):
                kinds.setdefault(stmt.attr, set()).add(typed.get(id(stmt)))
    return kinds


class Where:
    """What the scan knows at one node: the file's :class:`Scope`, the
    enclosing class names, the names the enclosing functions bind with
    their classes, and the keys of the enclosing defs."""

    __slots__ = ("scope", "classes", "local", "inside")

    def __init__(self, scope: Scope, classes: List[str],
                 local: Dict[str, Optional[str]], inside: Tuple[str, ...]):
        self.scope = scope
        self.classes = classes
        self.local = local
        self.inside = inside


def walk(index: Index, path: Path) -> Iterator[Tuple[ast.AST, Where]]:
    """Yield every node of ``path`` with its :class:`Where`.  Type
    annotations and the arguments of a ``lazy_exports`` call are
    skipped: they name a def, they do not use one."""
    tree = ast.parse(path.read_text(), str(path))
    scope = Scope(index, tree, package_of(path))

    def visit(node, where, prefix):
        if isinstance(node, ast.ClassDef):
            prefix = f"{prefix}.{node.name}"
            where = Where(scope, where.classes + [node.name], where.local,
                          where.inside + (prefix,))
        elif _is_function(node):
            prefix = f"{prefix}.{node.name}"
            where = Where(scope, where.classes,
                          {**where.local, **local_classes(node, scope)},
                          where.inside + (prefix,))
        yield node, where
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            return
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from visit(child, where, prefix)

    module = module_name(path) if PACKAGE in path.parents else ""
    yield from visit(tree, Where(scope, [], {}, ()), module)


def kind_of(expr, where: Where) -> Optional[str]:
    """The class of ``expr``'s value: "" when no repro class, None when
    the scan cannot tell."""
    index = where.scope.index
    if isinstance(expr, ast.Name):
        if (expr.id in ("self", "cls") and where.classes
                and where.classes[-1] in index.classes):
            return where.classes[-1]
        return where.local.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = kind_of(expr.value, where)
        return index.attr_kind(owner, expr.attr) if owner else None
    return None


def targets(func, where: Where) -> List[Def]:
    """The defs a name or attribute ``func`` may reach."""
    scope = where.scope
    index = scope.index
    if isinstance(func, ast.Attribute):
        if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and where.classes):
            return [c for base in index.bases.get(where.classes[-1], ())
                    for c in index.classes.get(base, ())]
        name = func.attr
        receiver = func.value
        owner = kind_of(receiver, where)
        if owner is not None:
            return index.method(owner, name) if owner else []
        if (isinstance(receiver, ast.Name) and receiver.id not in where.local
                and receiver.id in scope.modules):
            module = scope.modules[receiver.id]
            # A package exports the names of its submodules.
            return [c for c in index.by_name.get(name, [])
                    + index.classes.get(name, [])
                    if c.key.rpartition(".")[0] in index.modules
                    and f"{c.key}.".startswith(f"{module}.")]
        return index.by_name.get(name, []) + index.classes.get(name, [])
    if isinstance(func, ast.Name):
        name = scope.aliases.get(func.id, func.id)
        if name == "cls" and where.classes:
            name = where.classes[-1]
        return index.by_name.get(name, []) + index.classes.get(name, [])
    return []


def files(*trees: str) -> Iterator[Path]:
    for tree in trees:
        yield from sorted((ROOT / tree).rglob("*.py"))
