"""Ratchet: every public def in ``src/repro`` is reached by some caller.

A *public def* is a public function, class, method or property of a
public module (dunder methods are the language's to call, so none is
one).  If no code in ``src/``, ``scripts/``, ``perfbench/`` or
``examples/`` reaches it, no real run uses it, and it is a dead end
every change has to carry.  The scan shares its index and receiver
resolution with ``tests/test_settable_values.py``
(``tests/source_index.py``).  A use is a name or an attribute that
resolves to the def outside the def's own body, and also:

- a name in a class's ``derived`` tuple (``Record.to_dict`` reads each
  with ``getattr``) is a use of that member of the class;
- ``getattr(obj, "name")`` is a use of ``obj.name``;
- a string that is exactly a public class's name is a use of the class
  (``cli._SWEEPS`` names each plan class, read with ``getattr``).

An entry of a ``lazy_exports`` table is no use: it names a def so a
caller can reach it.  A def that stays without such a use needs an
:data:`ALLOWED` entry with a one-line reason.

Run as a script to list the unreached defs, split into those only
``tests/`` reach and those nothing reaches::

    PYTHONPATH=src python tests/test_reachable_defs.py
"""

from __future__ import annotations

import ast
import functools
from typing import Dict, List, Set, Tuple

try:
    from tests.source_index import CALLER_TREES, Index, files, targets, walk
except ImportError:  # run as a script, with tests/ on sys.path
    from source_index import CALLER_TREES, Index, files, targets, walk


_KERNEL = ("repro.sim kernel API: the kernel's own tests drive resources, "
           "streams and samplers through it")
_FAULT_KINDS = ("one constructor per fault kind; committed plans load the "
                "kind from JSON, tests build plans with it")
_REFERENCE = ("closed-form reference of a per-request fast path; tests "
              "check the path against it")
_TRACE_READS = "README-documented TraceLog read"

#: Public defs kept without a non-test caller, each with its reason.
ALLOWED: Dict[str, str] = {
    "repro.faults.models.disk_failure": _FAULT_KINDS,
    "repro.faults.models.node_set_partition": _FAULT_KINDS,
    "repro.faults.models.switch_down": _FAULT_KINDS,
    "repro.hardware.cpu.Cpu.service_time": _REFERENCE,
    "repro.hardware.storage.Storage.io_time": _REFERENCE,
    "repro.sim.monitor.periodic_sampler": _KERNEL,
    "repro.sim.resources.Resource.request": _KERNEL,
    "repro.sim.resources.Store": _KERNEL,
    "repro.sim.resources.Store.put": _KERNEL,
    "repro.sim.rng.RngStreams.spawn": _KERNEL,
    "repro.trace.events.TraceLog.evicted": _TRACE_READS,
    "repro.trace.events.TraceLog.spans": _TRACE_READS,
}


def _uses(node, where) -> List:
    """The defs ``node`` uses."""
    index = where.scope.index
    if isinstance(node, ast.Name):
        # A name the enclosing function binds is a local, not a def.
        return [] if node.id in where.local \
            or not isinstance(node.ctx, ast.Load) else targets(node, where)
    if isinstance(node, ast.Attribute):
        return targets(node, where)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return index.classes.get(node.value, [])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return targets(ast.Attribute(value=node.args[0],
                                     attr=node.args[1].value), where)
    if (isinstance(node, ast.Assign) and where.classes
            and any(isinstance(t, ast.Name) and t.id == "derived"
                    for t in node.targets)
            and isinstance(node.value, ast.Tuple)):
        return [d for elt in node.value.elts
                if isinstance(elt, ast.Constant)
                for d in index.method(where.classes[-1], elt.value)]
    return []


def _reached(index: Index, paths) -> Set[str]:
    """Keys of every public def some code in ``paths`` uses."""
    reached: Set[str] = set()
    for path in paths:
        for node, where in walk(index, path):
            reached.update(d.key for d in _uses(node, where)
                           if d.key not in where.inside)
    return reached


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, int], Set[str], Set[str]]:
    """Return every public def with its line count, and the keys used
    outside/inside tests."""
    index = Index()
    return ({key: d.lines for key, d in index.defs.items()},
            _reached(index, files(*CALLER_TREES)),
            _reached(index, files("tests")))


def unreached_defs() -> List[str]:
    defs, reached, _ = scan()
    return sorted(key for key in defs if key not in reached)


def test_every_public_def_is_reached_or_allowed():
    unexplained = sorted(set(unreached_defs()) - set(ALLOWED))
    assert not unexplained, (
        "public defs no caller outside tests/ reaches; delete each, or "
        "add an ALLOWED entry with its reason:\n  "
        + "\n  ".join(unexplained))


def test_allowlist_names_only_unreached_defs():
    stale = sorted(set(ALLOWED) - set(unreached_defs()))
    assert not stale, ("ALLOWED entries that a caller now reaches, or "
                       "that no longer exist:\n  " + "\n  ".join(stale))
    assert all(reason.strip() for reason in ALLOWED.values())


def test_uses_count_dynamic_names_but_not_names_alone(tmp_path):
    index = Index()
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from repro._exports import lazy_exports\n"
        "from repro.energy.account import OverheadLedger\n"
        "__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), "
        "{'.scorecard': ('ProportionalityScorecard',)})\n"
        "class DvfsArm:\n"
        "    derived = ('work_per_joule',)\n"
        "def f(ledger: OverheadLedger):\n"
        "    ledger.charge('web', 1.0, 2.0)\n"
        "    getattr(ledger, 'count')\n"
        "    return 'CarbonDayPlan'\n")
    uses = {
        "repro.energy.account.OverheadLedger.charge": True,
        "repro.energy.account.OverheadLedger.count": True,   # getattr
        "repro.dvfs.report.DvfsArm.work_per_joule": True,    # derived
        "repro.carbon.report.CarbonDayPlan": True,           # a class name
        # Named only by an import, an annotation or an export table.
        "repro.energy.account.OverheadLedger": False,
        "repro.dvfs.scorecard.ProportionalityScorecard": False,
        "repro.dvfs.report.DvfsArm.slo_attained": False,
    }
    reached = _reached(index, [caller])
    assert {key: key in reached for key in uses} == uses


if __name__ == "__main__":
    defs, reached, test_reached = scan()
    unreached = sorted(key for key in defs if key not in reached)
    only_tests = [key for key in unreached if key in test_reached]
    nothing = [key for key in unreached if key not in test_reached]
    print(f"{len(defs)} public defs, {len(unreached)} unreached outside "
          f"tests/ ({sum(defs[k] for k in unreached)} lines): "
          f"{len(only_tests)} only tests reach, {len(nothing)} nothing "
          f"reaches; {len(set(unreached) - set(ALLOWED))} not allowed")
    for title, keys in (("only tests reach", only_tests),
                        ("nothing reaches", nothing)):
        print(f"\n# {title}")
        for key in keys:
            print(("  allowed " if key in ALLOWED else "          ")
                  + f"{key} ({defs[key]} lines)")
