"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table2_command(capsys):
    assert main(["claims", "T2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "T2.required | 16" in out


def test_table10_command(capsys):
    assert main(["claims", "T10"]) == 0
    out = capsys.readouterr().out
    assert "T10.web.low.dell_usd" in out
    assert "T10.best_saving_pct" in out


def test_web_command_small_scale(capsys):
    assert main(["web", "--platform", "edison", "--scale", "1/8",
                 "--concurrency", "16", "--duration", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "requests/s" in out
    assert "cluster power" in out


def test_job_command_reports_paper_value(capsys):
    assert main(["job", "pi", "--platform", "edison", "--slaves", "4"]) == 0
    out = capsys.readouterr().out
    assert "run time" in out
    assert "paper:" in out       # 4-slave pi is a Table 8 cell


def test_job_command_unknown_job_rejected():
    with pytest.raises(SystemExit):
        main(["job", "sort-of-sort"])


def test_chaos_web_command_small_scale(capsys):
    assert main(["chaos", "web", "--scale", "1/8", "--concurrency", "64",
                 "--duration", "2.0", "--kill-at", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "chaos: web-0 down on edison/1/8 (3 web servers)" in out
    assert "goodput loss:" in out
    assert "faults injected: 1" in out


def test_chaos_job_command_pi_on_four_slaves(capsys):
    assert main(["chaos", "job", "pi", "--slaves", "4",
                 "--kill-at", "20"]) == 0
    out = capsys.readouterr().out
    assert "chaos: pi, edison-slave-0 down on 4 edison slaves" in out
    assert "maps re-executed" in out
    assert "faults injected: 1" in out


def test_histogram_command(capsys):
    assert main(["histogram", "--platform", "edison", "--rate", "500",
                 "--duration", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "delay (s)" in out


def test_seed_flag_changes_nothing_structural(capsys):
    assert main(["--seed", "7", "claims", "T2"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_autoscale_command_runs_a_tiny_day(tmp_path, capsys):
    import json

    from repro.autoscale import DayPlan
    from repro.web import DiurnalShape, ShapedLoad

    plan = DayPlan(
        name="tiny", duration_s=8.0, calls=4,
        shape=ShapedLoad(DiurnalShape(base_rps=40.0, peak_rps=200.0,
                                      period_s=8.0)),
        edison_scale="2x1", dell_scale="1x1",
        hybrid_edison_web=2, hybrid_dell_web=1, hybrid_cache=1)
    plan_path = tmp_path / "day.json"
    plan.save(str(plan_path))
    json_path = tmp_path / "report.json"

    assert main(["autoscale", "--plan", str(plan_path),
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "autoscaled-hybrid" in out
    assert "scaling overhead" in out
    report = json.loads(json_path.read_text())
    assert [arm["label"] for arm in report["arms"]] == [
        "static-edison", "static-dell", "autoscaled-hybrid"]


def test_dvfs_command_runs_a_tiny_sweep(tmp_path, capsys):
    import json

    from repro.dvfs import DvfsPlan
    from repro.web import DiurnalShape, ShapedLoad

    plan = DvfsPlan(
        name="tiny",
        shapes={"diurnal": ShapedLoad(DiurnalShape(
            base_rps=40.0, peak_rps=260.0, period_s=6.0))},
        duration_s=6.0, calls=4)
    plan_path = tmp_path / "day.json"
    plan.save(str(plan_path))
    json_path = tmp_path / "report.json"

    assert main(["dvfs", "--plan", str(plan_path), "--no-scorecards",
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "governor sweep" in out
    assert "verdict" in out
    report = json.loads(json_path.read_text())
    assert [arm["governor"] for arm in report["arms"]] == [
        "performance", "powersave", "ondemand"] * 2
    assert {arm["platform"] for arm in report["arms"]} == \
        {"edison", "dell"}
    assert report["scorecards"] == []


def test_carbon_command_runs_a_tiny_day(tmp_path, capsys):
    import json

    from repro.carbon import CarbonDayPlan, CarbonJobSpec
    from tests.test_carbon import evening_peak_price, solar_dip_intensity

    plan = CarbonDayPlan(
        name="tiny-day", day_s=7200.0,
        intensity=solar_dip_intensity(7200.0),
        price=evening_peak_price(7200.0),
        jobs=(CarbonJobSpec("ts", "terasort-mini", 300.0, 6000.0,
                            est_s={"edison": 400.0, "dell": 80.0}),),
        slaves={"edison": 2, "dell": 1},
        policies=("no-wait", "threshold"))
    plan_path = tmp_path / "day.json"
    plan.save(str(plan_path))
    json_path = tmp_path / "report.json"

    assert main(["carbon", "--plan", str(plan_path),
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "grams CO2" in out
    assert "verdict" in out
    report = json.loads(json_path.read_text())
    assert [(arm["policy"], arm["platform"]) for arm in report["arms"]] \
        == [("no-wait", "edison"), ("threshold", "edison"),
            ("no-wait", "dell"), ("threshold", "dell")]
    assert report["platform_delta"]["no_wait_ratio"] > 1.0


def test_web_flame_flag_writes_both_formats(tmp_path, capsys):
    html = tmp_path / "flame.html"
    collapsed = tmp_path / "flame.txt"
    assert main(["web", "--platform", "edison", "--scale", "1/8",
                 "--concurrency", "16", "--duration", "1.5",
                 "--flame", str(html)]) == 0
    assert main(["web", "--platform", "edison", "--scale", "1/8",
                 "--concurrency", "16", "--duration", "1.5",
                 "--flame", str(collapsed)]) == 0
    out = capsys.readouterr().out
    assert out.count("flame:") == 2
    assert html.read_text().startswith("<!DOCTYPE html>")
    assert "<svg" in html.read_text()
    first_line = collapsed.read_text().splitlines()[0]
    stack, _, count = first_line.rpartition(" ")
    assert ";" in stack or "@" in stack
    assert int(count) > 0


def test_flame_flag_rejects_missing_directory():
    with pytest.raises(SystemExit):
        main(["web", "--platform", "edison", "--scale", "1/8",
              "--concurrency", "16", "--duration", "1.5",
              "--flame", "/no/such/dir/flame.html"])


def test_trace_extension_picks_jsonl_format(tmp_path, capsys):
    from repro.trace import read_jsonl
    path = tmp_path / "run.jsonl"
    assert main(["web", "--platform", "edison", "--scale", "1/8",
                 "--concurrency", "16", "--duration", "1.5",
                 "--trace", str(path)]) == 0
    assert "repro causality" in capsys.readouterr().out
    log = read_jsonl(str(path))
    assert len(log) > 100
    assert any(event.span_id for event in log)


def test_causality_command_reports_trees_and_energy(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(["web", "--platform", "edison", "--scale", "1/8",
                 "--concurrency", "16", "--duration", "1.5",
                 "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    flame = tmp_path / "flame.txt"
    energy_flame = tmp_path / "energy.html"
    assert main(["causality", str(trace_path), "--after", "0.5",
                 "--flame", str(flame),
                 "--energy-flame", str(energy_flame)]) == 0
    out = capsys.readouterr().out
    assert "causal trees" in out
    assert "slowest tree: connection" in out
    assert "decomposition (" in out
    assert "energy web-0:" in out
    assert flame.read_text()
    assert energy_flame.read_text().startswith("<!DOCTYPE html>")


def test_causality_command_rejects_unidentified_trace(tmp_path):
    from repro.trace import TraceLog, write_jsonl
    path = tmp_path / "empty.jsonl"
    write_jsonl(TraceLog(), str(path))
    with pytest.raises(SystemExit):
        main(["causality", str(path)])


def test_durability_command_runs_a_tiny_day(tmp_path, capsys):
    import json

    from repro.durability import DurabilityPlan
    from repro.faults import FaultPlan, switch_down

    plan = DurabilityPlan(
        name="tiny-day", slaves=4, racks=2, job="wordcount2",
        replications=(2,), settle_s=10.0,
        faults=FaultPlan(faults=(
            switch_down("{platform}-rack-0", at=8.0, duration=6.0),)))
    plan_path = tmp_path / "day.json"
    plan.save(str(plan_path))
    json_path = tmp_path / "report.json"

    assert main(["durability", "--plan", str(plan_path),
                 "--platforms", "dell", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Durability day" in out
    assert "verdict [dell]" in out
    assert "reconciliation" in out
    report = json.loads(json_path.read_text())
    labels = [arm["label"] for arm in report["arms"]]
    assert labels == ["dell/oblivious/r2", "dell/rack-aware/r2"]
    assert [c["label"] for c in report["controls"]] == \
        ["dell/rack-aware/r2/control"]


@pytest.mark.parametrize("command", ["autoscale", "carbon", "dvfs",
                                     "durability"])
@pytest.mark.parametrize("content, reason", [
    (None, "No such file"),
    ('{"name": "x"}', "missing required field"),
])
def test_plan_commands_reject_bad_plans_cleanly(tmp_path, command,
                                                content, reason):
    path = tmp_path / "plan.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--plan", str(path)])
    message = str(excinfo.value.code)
    assert message.startswith("repro: error: --plan: ")
    assert reason in message


def _scorecard():
    from repro.dvfs.scorecard import LoadPoint, ProportionalityScorecard
    point = LoadPoint(fraction=1.0, offered_rps=100.0, ok_calls=500,
                      window_s=2.0, mean_power_w=6.0)
    return ProportionalityScorecard(platform="edison", scale="1/8",
                                    governor="nominal", idle_w=4.0,
                                    points=(point,)).to_dict()


@pytest.mark.parametrize("where, key, value", [
    ((), "idle_w", float("nan")),
    (("points", 0), "fraction", float("nan")),
    (("points", 0), "ok_calls", "x"),
    (("points", 0), "mean_power_w", float("inf")),
])
def test_report_refuses_a_bundle_with_a_bad_scorecard(tmp_path, capsys,
                                                      where, key, value):
    import json
    card = _scorecard()
    target = card
    for step in where:
        target = target[step]
    target[key] = value
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"series": [],
                                "dvfs": {"scorecards": [card]}}))
    with pytest.raises(SystemExit) as excinfo:
        main(["report", str(path)])
    message = str(excinfo.value.code)
    assert message.startswith("repro: error: ")
    assert f"field '{key}'" in message
    assert capsys.readouterr().out == ""


def _committed_plan(name):
    import json
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "experiments",
                        f"{name}_day.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _misspelled_onset(plan):
    fault = plan["faults"]["faults"][0]
    fault["att"] = fault.pop("at")


def _string_onset(plan):
    plan["faults"]["faults"][0]["at"] = "8"


def _nan_peak(plan):
    plan["shape"]["diurnal"]["peak_rps"] = float("nan")


def _numbered_victim(plan):
    plan["faults"]["faults"][0]["node"] = 5


def _numbered_scale(plan):
    plan["edison_scale"] = 8


@pytest.mark.parametrize("command, spoil, reason", [
    ("durability", _misspelled_onset, "Fault: unknown key 'att'"),
    ("durability", _string_onset, "Fault: field 'at'"),
    ("autoscale", _nan_peak, "DiurnalShape: field 'peak_rps'"),
    ("durability", _numbered_victim, "Fault: field 'node'"),
    ("dvfs", _numbered_scale, "DvfsPlan: field 'edison_scale'"),
])
def test_plan_commands_reject_bad_numbers_before_running(
        tmp_path, capsys, command, spoil, reason):
    import json
    plan = _committed_plan(command)
    spoil(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--plan", str(path)])
    message = str(excinfo.value.code)
    assert message.startswith("repro: error: --plan: ")
    assert reason in message
    assert capsys.readouterr().out == ""     # no arm ran
