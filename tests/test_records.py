"""Tests for the shared record codec and the committed plane plans."""

import copy
import dataclasses
import glob
import importlib
import json
import math
import os
import pkgutil
import typing
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import pytest

import repro
from repro.core.records import Record, decoded, domain, find, keyed, many

EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "experiments")


@dataclass(frozen=True)
class Leaf(Record):
    derived = ("double",)

    value: float
    tag: str = "leaf"

    @property
    def double(self) -> float:
        return 2 * self.value


@dataclass(frozen=True)
class Tree(Record):
    derived = ("size",)

    name: str
    root: Leaf = decoded(Leaf.from_dict)
    leaves: Tuple[Leaf, ...] = decoded(many(Leaf.from_dict), default=())
    named: Mapping[str, Leaf] = decoded(keyed(Leaf.from_dict),
                                        default_factory=dict)
    pairs: Tuple[Tuple[int, int], ...] = decoded(
        lambda items: tuple(tuple(item) for item in items), default=())
    note: Optional[str] = None
    counts: Mapping[str, int] = field(default_factory=dict)

    def size(self) -> int:
        return 1 + len(self.leaves) + len(self.named)


def sample_tree() -> Tree:
    return Tree(name="t", root=Leaf(1.0),
                leaves=(Leaf(2.0, tag="a"), Leaf(3.0)),
                named={"x": Leaf(4.0)}, pairs=((1, 2),),
                counts={"n": 3})


def test_to_dict_emits_fields_in_order_then_derived_values():
    data = sample_tree().to_dict()
    assert list(data) == ["name", "root", "leaves", "named", "pairs",
                          "note", "counts", "size"]
    assert data["root"] == {"value": 1.0, "tag": "leaf", "double": 2.0}
    assert data["leaves"][0] == {"value": 2.0, "tag": "a", "double": 4.0}
    assert data["named"] == {"x": {"value": 4.0, "tag": "leaf",
                                   "double": 8.0}}
    assert data["pairs"] == [[1, 2]]
    assert data["size"] == 4


def test_from_dict_inverts_to_dict_through_json():
    tree = sample_tree()
    assert Tree.from_dict(json.loads(json.dumps(tree.to_dict()))) == tree


def test_from_dict_rejects_unknown_keys_and_uses_defaults():
    tree = Tree.from_dict({"name": "t", "root": {"value": 1.0}})
    assert tree == Tree(name="t", root=Leaf(1.0))
    # Derived names are what to_dict emitted, so they load back.
    assert Tree.from_dict({"name": "t", "root": {"value": 1.0,
                                                  "double": 2.0},
                           "size": 1}) == tree
    with pytest.raises(ValueError, match="Tree: unknown key 'bogus'"):
        Tree.from_dict({"name": "t", "root": {"value": 1.0}, "bogus": 7})
    with pytest.raises(ValueError, match="Leaf: unknown key 'bogus'"):
        Tree.from_dict({"name": "t", "root": {"value": 1.0, "bogus": 7}})


def test_a_stale_plan_with_a_deleted_knob_fails_loudly():
    from repro.durability import DurabilityPlan
    # durability_day.json as committed before its detector, repair and
    # census knobs became constants.
    stale = {
        "name": "durability-day-v1",
        "faults": {"faults": [{"kind": "disk_fail",
                               "node": "{platform}-slave-2", "at": 36.0}],
                   "recurring": []},
        "slaves": 8, "racks": 2, "job": "wordcount2",
        "replications": [1, 2, 3], "settle_s": 30.0, "seed": 20260809,
        "detection_s": 0.25,
        "phi": {"threshold": 8.0, "window": 64, "min_std_s": 0.05,
                "heartbeat_s": 1.0},
        "repair": {"throttle_bps": 200000000.0, "max_streams": 2},
        "sample_interval_s": 1.0,
    }
    with pytest.raises(ValueError,
                       match="DurabilityPlan: unknown key 'phi'"):
        DurabilityPlan.from_dict(stale)
    for key in ("phi", "repair", "sample_interval_s"):
        del stale[key]
    assert DurabilityPlan.from_dict(stale).detection_s == 0.25


def test_from_dict_names_the_class_and_the_missing_field():
    with pytest.raises(ValueError, match="Tree: missing required field "
                                         "'root'"):
        Tree.from_dict({"name": "t"})
    with pytest.raises(ValueError, match="Leaf: missing required field "
                                         "'value'"):
        Tree.from_dict({"name": "t", "root": {}})
    with pytest.raises(ValueError, match="expected a JSON object"):
        Tree.from_dict([1, 2])


@dataclass(frozen=True)
class Gauge(Record):
    reading: float = domain(">= 0")
    count: int = domain("> 0", integer=True, default=1)
    offset: float = domain("any", default=0.0)
    ceiling: float = domain("> 0", finite=False, default=math.inf)
    limit: Optional[float] = domain("> 0", default=None)
    series: Tuple[Tuple[float, float], ...] = domain(
        ">= 0", decode=lambda items: tuple(map(tuple, items)), default=())
    by_name: Mapping[str, int] = domain(">= 2", integer=True,
                                        default_factory=dict)


def test_domain_accepts_what_it_declares():
    gauge = Gauge(reading=0, count=3, offset=-2.5, ceiling=math.inf,
                  limit=None, series=((0.0, 1), [2, 3.5]),
                  by_name={"a": 2})
    assert gauge.reading == 0 and gauge.offset == -2.5
    assert Gauge.from_dict(json.loads(json.dumps(gauge.to_dict()))) == \
        Gauge(reading=0, count=3, offset=-2.5, ceiling=math.inf,
              series=((0.0, 1), (2, 3.5)), by_name={"a": 2})


@pytest.mark.parametrize("name, value", [
    ("reading", -1.0), ("reading", float("nan")), ("reading", math.inf),
    ("reading", True), ("reading", "1"), ("reading", None),
    ("count", 0), ("count", 2.0), ("count", False),
    ("offset", float("nan")), ("offset", -math.inf),
    ("ceiling", float("nan")), ("ceiling", 0.0),
    ("limit", float("nan")), ("limit", 0),
    ("series", ((0.0, float("nan")),)), ("series", ((0.0, -1.0),)),
    ("series", ((0.0, None),)), ("series", ((0.0, "1"),)),
    ("by_name", {"a": 1}), ("by_name", {"a": 2, "b": 2.5}),
])
def test_domain_rejects_naming_the_class_and_field(name, value):
    fields = {"reading": 1.0, name: value}
    with pytest.raises(ValueError, match=f"Gauge: field '{name}' must be"):
        Gauge(**fields)


def test_domain_rejects_an_unknown_bound():
    with pytest.raises(ValueError, match="unknown lower bound"):
        domain("< 3")


def test_from_dict_turns_json_of_the_wrong_shape_into_value_errors():
    with pytest.raises(ValueError, match="Tree: field 'leaves'"):
        Tree.from_dict({"name": "t", "root": {"value": 1.0}, "leaves": 3})
    with pytest.raises(ValueError, match="Tree: field 'named'"):
        Tree.from_dict({"name": "t", "root": {"value": 1.0}, "named": []})
    from repro.faults import Fault
    with pytest.raises(ValueError, match="Fault: 'int' object"):
        Fault.from_dict({"kind": "partition", "node": "cut", "at": 1.0,
                         "duration": 2.0, "nodes": 5})


def test_save_writes_indented_json_with_a_trailing_newline(tmp_path):
    path = tmp_path / "tree.json"
    tree = sample_tree()
    tree.save(str(path))
    text = path.read_text()
    assert text == json.dumps(tree.to_dict(), indent=1) + "\n"
    assert Tree.load(str(path)) == tree


def test_find_matches_every_key_or_raises_key_error():
    leaves = sample_tree().leaves
    assert find(leaves, value=3.0) is leaves[1]
    assert find(leaves, value=2.0, tag="a") is leaves[0]
    with pytest.raises(KeyError):
        find(leaves, value=2.0, tag="leaf")


# -- the committed plans ------------------------------------------------------


def _plan_classes():
    from repro.autoscale import DayPlan
    from repro.carbon import CarbonDayPlan
    from repro.durability import DurabilityPlan
    from repro.dvfs import DvfsPlan
    return {"autoscale_day.json": DayPlan,
            "carbon_day.json": CarbonDayPlan,
            "durability_day.json": DurabilityPlan,
            "dvfs_day.json": DvfsPlan}


def test_every_committed_day_has_a_plan_class():
    committed = {os.path.basename(path) for path in
                 glob.glob(os.path.join(EXPERIMENTS, "*_day.json"))}
    assert committed == set(_plan_classes())


@pytest.mark.parametrize("name", sorted(_plan_classes()))
def test_committed_plan_roundtrips_byte_for_byte(name, tmp_path):
    cls = _plan_classes()[name]
    path = os.path.join(EXPERIMENTS, name)
    plan = cls.load(path)
    assert cls.from_dict(plan.to_dict()) == plan
    copy = tmp_path / name
    plan.save(str(copy))
    with open(path, "rb") as handle:
        assert copy.read_bytes() == handle.read()


# -- every numeric leaf of every committed plan has a declared domain --------


def _committed_cases():
    from repro.faults import FaultPlan
    cases = [(name, cls, os.path.join(EXPERIMENTS, name), None)
             for name, cls in sorted(_plan_classes().items())]
    cases += [(f"gray_failures.json:{key}", FaultPlan,
               os.path.join(EXPERIMENTS, "gray_failures.json"), key)
              for key in ("web", "job")]
    return cases


def _load_case(path, key):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data if key is None else data[key]


def _numbers(value, path=()):
    """JSON paths of every number (bools excepted) inside ``value``."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numbers(item, path + (index,))


def _strings(value, path=()):
    """JSON paths of every string inside ``value``."""
    if isinstance(value, str):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _strings(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _strings(item, path + (index,))


def _record_type(hint):
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint
    for arg in typing.get_args(hint):
        found = _record_type(arg)
        if found is not None:
            return found
    return None


def _owned_numbers(cls, data, path=()):
    """(path, class, field) of every number the classes' declared
    domains cover, walking nested records through the type hints."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        here = path + (f.name,)
        if "domain" in f.metadata:
            for sub in _numbers(data[f.name]):
                yield here + sub, cls, f
            continue
        inner = _record_type(hints[f.name])
        if inner is None:
            continue
        value = data[f.name]
        origin = typing.get_origin(hints[f.name])
        if origin in (tuple, list):
            items = enumerate(value)
        elif origin is not None and issubclass(origin, Mapping):
            items = value.items()
        else:
            yield from _owned_numbers(inner, value, here)
            continue
        for key, item in items:
            yield from _owned_numbers(inner, item, here + (key,))


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.mark.parametrize("name, cls, path, key", _committed_cases(),
                         ids=[case[0] for case in _committed_cases()])
def test_every_bad_number_in_a_committed_plan_fails_at_load(name, cls, path,
                                                           key):
    data = _load_case(path, key)
    owned = list(_owned_numbers(cls, data))
    # No number escapes a declared domain.
    assert sorted(map(str, (leaf for leaf, _, _ in owned))) == \
        sorted(map(str, _numbers(data)))
    assert cls.from_dict(data) is not None
    for leaf, owner, f in owned:
        bad = [float("nan"), math.inf, "8"]
        if f.metadata["domain"].low >= 0:
            bad.append(-1)
        for value in bad:
            mutated = copy.deepcopy(data)
            _set(mutated, leaf, value)
            with pytest.raises(ValueError,
                               match=f"{owner.__name__}: field "
                                     f"'{f.name}'"):
                cls.from_dict(mutated)
    # Nor does a number in a string field load.
    leaves = list(_strings(data))
    assert leaves
    for leaf in leaves:
        name = next(key for key in reversed(leaf) if isinstance(key, str))
        mutated = copy.deepcopy(data)
        _set(mutated, leaf, 5)
        with pytest.raises(ValueError, match=f": field '{name}' must be"):
            cls.from_dict(mutated)


def _record_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


def _instances(value, into):
    if dataclasses.is_dataclass(value) and isinstance(value, Record):
        into.setdefault(type(value), value)
        for f in dataclasses.fields(value):
            _instances(getattr(value, f.name), into)
    elif isinstance(value, Mapping):
        for item in value.values():
            _instances(item, into)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _instances(item, into)


def test_every_record_subclass_runs_the_domain_check():
    from repro.dvfs.scorecard import LoadPoint, ProportionalityScorecard
    from repro.faults import RecurringFault
    samples = {}
    for _, cls, path, key in _committed_cases():
        _instances(cls.from_dict(_load_case(path, key)), samples)
    _instances(RecurringFault(kind="packet_loss", node="n", mtbf_s=60.0,
                              mttr_s=5.0), samples)
    _instances(ProportionalityScorecard(
        platform="edison", scale="1/8", governor="nominal", idle_w=4.0,
        points=(LoadPoint(fraction=1.0, offered_rps=100.0, ok_calls=500,
                          window_s=2.0, mean_power_w=6.0),)), samples)
    checked = 0
    for cls in _record_classes():
        declared = [f.name for f in dataclasses.fields(cls)
                    if "domain" in f.metadata]
        if not declared:
            continue
        assert cls in samples, f"no valid sample of {cls.__name__}"
        for name in declared:
            # NaN in the value's own shape: a bare number, an item or a
            # mapping value.
            good = getattr(samples[cls], name)
            bad = (float("nan") if not isinstance(good, (tuple, Mapping))
                   else {key: float("nan") for key in good}
                   if isinstance(good, Mapping) else (float("nan"),))
            with pytest.raises(ValueError,
                               match=f"{cls.__name__}: field '{name}'"):
                dataclasses.replace(samples[cls], **{name: bad})
            checked += 1
    assert checked >= 40
