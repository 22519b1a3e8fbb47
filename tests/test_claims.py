"""Tests for the paper's claims table and the EXPERIMENTS.md generator."""

import importlib.util
import math
import os

import pytest

from repro.cli import main
from repro.core import claims

#: Cells cheap enough for the tier-1 suite (well under a second in all).
QUICK_CELLS = ("table2", "table3", "sec41", "sec42", "table5", "sec44", "tco")


def test_claim_ids_are_unique():
    ids = [claim.id for claim in claims.CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_claim_has_a_non_empty_interval_and_a_known_cell():
    for claim in claims.CLAIMS:
        assert claim.lo <= claim.hi, claim.id
        assert claim.cell in claims.CELLS, claim.id


@pytest.mark.parametrize("cell", QUICK_CELLS)
def test_every_claim_names_a_key_its_cell_returns(cell):
    returned = set(claims.CELLS[cell]())
    read = {claim.key for claim in claims.CLAIMS if claim.cell == cell}
    assert read <= returned


def test_quick_claims_pass_from_the_cli(capsys):
    assert main(["claims", "T2", "T3", "T5", "T10", "S4"]) == 0
    out = capsys.readouterr().out
    assert "all within bounds" in out
    assert "FAIL" not in out


def test_a_value_just_outside_its_bound_fails_the_gate(monkeypatch, capsys):
    claim = next(c for c in claims.CLAIMS if c.id == "T3.edison.idle_w")
    measured = claims.CELLS["table3"]()
    measured[claim.key] = math.nextafter(claim.hi, math.inf)
    monkeypatch.setitem(claims.CELLS, "table3", lambda: measured)
    assert main(["claims", "T3"]) == 1
    out = capsys.readouterr().out
    assert "1 out of bounds: T3.edison.idle_w" in out
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert len(failing) == 1
    assert failing[0].startswith("| T3.edison.idle_w ")


def test_each_cell_runs_once_per_check(monkeypatch):
    calls = []
    real = claims.CELLS["table2"]
    monkeypatch.setitem(claims.CELLS, "table2",
                        lambda: calls.append(1) or real())
    assert len(claims.check(claims.select(["T2"]))) == 4
    assert calls == [1]


def test_prefixes_match_whole_id_parts():
    assert {c.id.split(".")[0] for c in claims.select(["T10"])} == {"T10"}
    assert all(c.id.startswith("S4.2.") for c in claims.select(["S4.2"]))
    with pytest.raises(ValueError, match="T1"):
        claims.select(["T1"])


def test_unknown_prefix_is_a_usage_error():
    with pytest.raises(SystemExit, match="no claim id starts with T1"):
        main(["claims", "T1"])


def test_error_column_is_relative_to_the_paper():
    row = claims.Claim("X.y", "sec", 100.0, "cell", "key", 90.0, 120.0)
    result = claims.Result(row, 110.0)
    assert result.error == pytest.approx(0.10)
    assert result.ok
    text = claims.render([result])
    assert "| +10.0% | [90, 120] | ok     |" in text
    ordering = claims.Result(
        claims.Claim("X.z", "sec", None, "cell", "key", 1.0, math.inf), 0.5)
    assert ordering.error is None and not ordering.ok
    assert "| n/a   | [1, inf] | FAIL   |" in claims.render([ordering])


def _generator():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "generate_experiments_report.py")
    spec = importlib.util.spec_from_file_location("generate_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DOCUMENT = """<!-- generated:claims -->
old claims
<!-- /generated:claims -->

## Hand-written

Kept byte for byte.
<!-- generated:faults -->
old faults
<!-- /generated:faults -->
tail without newline"""


def test_generator_rewrites_only_its_regions():
    new = _generator().splice(DOCUMENT, {"claims": "new claims\n",
                                         "faults": "new faults"})
    assert new == DOCUMENT.replace("old claims", "new claims") \
        .replace("old faults", "new faults")


@pytest.mark.parametrize("document", [
    "no markers at all",
    "<!-- /generated:claims -->\n<!-- generated:claims -->\n",
    "<!-- generated:claims -->\n<!-- /generated:claims -->\n" * 2,
], ids=["missing", "reversed", "repeated"])
def test_generator_refuses_a_document_with_broken_markers(document):
    with pytest.raises(ValueError, match="claims"):
        _generator().splice(document, {"claims": "x"})
