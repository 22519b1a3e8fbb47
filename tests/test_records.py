"""Tests for the shared record codec and the committed plane plans."""

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import pytest

from repro.core.records import Record, decoded, find, keyed, many

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
