import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transitopt
import transitopt.cli
import transitopt.oracle
from transitopt.backend import DecodeError, SolverError
from transitopt.evaluator import EvaluationError
from transitopt.cli import main

from _factories import full_pattern_plan_doc, ladder_doc, random_toy_doc, scenario_doc
from transitopt import load_scenario, validate_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc()))
    return path


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_scenario(path):
    """The scenario in the file at ``path``, parsed as the CLI parses it."""
    return load_scenario(json.loads(path.read_bytes()))


def _unroutable(tmp_path):
    """A scenario with one demand pair (period 0, route 0, stop 0 -> 2) and a
    plan whose only pattern never serves stop C."""
    path = write_doc(tmp_path, scenario_doc(n_patterns=1, transfers=False,
                                            demand=(((0, 0, 2), 10.0),)))
    plan = full_pattern_plan_doc(read_scenario(path))
    plan["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 1, 4, 5]
    return path, write_doc(tmp_path, plan, "plan.json")


def _checked_manifest(out: Path) -> dict:
    """The manifest under ``out``, once every digest in it matches its file."""
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    return manifest


class TestValidate:
    def test_clean_exit_zero(self, scenario_file, capsys):
        assert main(["validate", "--scenario", str(scenario_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_descending_menu_exit_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, scenario_doc(menu=(7.0, 5.0)))
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "ascending" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 2

    def test_bad_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 2

    def test_bad_utf8_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"a": "\xff"}')
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: not valid JSON")

    def test_overlong_integer_exit_two(self, tmp_path, capsys):
        # past CPython's int digit limit json raises a plain ValueError
        path = tmp_path / "big.json"
        path.write_text('{"a": ' + "1" * 5000 + "}")
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: not valid JSON")

    @pytest.mark.parametrize("command", ["validate", "export"])
    def test_non_finite_number_exit_one(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, scenario_doc(fleet_cap=float("inf")))
        assert "Infinity" in path.read_text()
        argv = [command, "--scenario", str(path)]
        if command == "export":
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["invalid scenario: fleet_cap: must be a finite number, got inf"]


# (path in the scenario document, refused value, the violation's text)
_VALUE_RULES = [
    (["routes", 0, "link_run_times", "outbound", 0], 0.0,
     "routes[0].link_run_times.outbound[0]: run times must be > 0"),
    (["routes", 0, "link_run_times", "inbound", 1], -4.0,
     "routes[0].link_run_times.inbound[1]: run times must be > 0"),
    (["routes", 0, "headway_menus", 0, 0], 0.0,
     "routes[0].headway_menus[0]: headway values must be > 0"),
    (["routes", 0, "capacity"], 0.0, "routes[0].capacity: must be > 0"),
    (["routes", 0, "dwell_saving"], -0.5, "routes[0].dwell_saving: must be >= 0"),
    (["routes", 0, "turnback_time"], -2.0, "routes[0].turnback_time: must be >= 0"),
    (["routes", 0, "demand", 0, "riders"], -30.0,
     "routes[0].demand(t=0, o=0, d=2): riders must be >= 0"),
    (["periods", 0, "duration_hours"], 0.0, "periods[0].duration_hours: must be > 0"),
    (["routes"], [], "routes: at least one route is required"),
]


class TestValueRules:
    """A number of the wrong sign loads, and validate_scenario refuses it:
    `validate` prints the violation and `export` one `invalid:` line, both
    with exit 1."""

    @pytest.mark.parametrize("path, value, violation", _VALUE_RULES,
                             ids=["outbound", "inbound", "headway", "capacity", "dwell-saving",
                                  "turnback", "riders", "duration", "no-routes"])
    def test_wrong_sign_exit_one(self, tmp_path, capsys, path, value, violation):
        doc = scenario_doc()
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        scenario_path = write_doc(tmp_path, doc)
        assert [str(v) for v in validate_scenario(load_scenario(doc))] == [violation]
        assert main(["validate", "--scenario", str(scenario_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [violation]
        assert main(["export", "--scenario", str(scenario_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"invalid: {violation}"]


class TestNegativeArcTime:
    """A dwell credit larger than the ride it shortens would price an arc
    below zero; validate_scenario names the first such allowed arc."""

    VIOLATION = ("routes[0].dwell_saving: makes allowed arc (0, 2) take -1 minutes; "
                 "arc times must be >= 0")

    @pytest.fixture
    def doc(self):
        return scenario_doc(stops=tuple("ABC"), out_times=(1.0, 1.0), in_times=(1.0, 1.0),
                            dwell_saving=3.0, turnback_time=0.0, symmetry=False, n_patterns=1,
                            demand=(((0, 0, 2), 5.0),), fleet_cap=5.0)

    def test_masked_arc_is_not_checked(self, doc):
        # with (0, 2) forbidden the first negative allowed arc is (0, 3)
        doc["routes"][0]["allowed_arcs"] = [[i != j and (i, j) != (0, 2) for j in range(6)]
                                            for i in range(6)]
        assert [str(v) for v in validate_scenario(load_scenario(doc))] == [
            self.VIOLATION.replace("(0, 2) take -1", "(0, 3) take -4")]

    def test_zero_time_is_allowed(self, doc):
        # every step takes 1 minute: five steps less four credits of 1.25 is 0
        doc["routes"][0]["turnback_time"] = 1.0
        doc["routes"][0]["dwell_saving"] = 1.25
        scenario = load_scenario(doc)
        assert scenario.routes[0].travel_time_matrix()[0][5] == 0.0
        assert validate_scenario(scenario) == []

    def test_cli_exit_one(self, doc, tmp_path, capsys):
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [self.VIOLATION]
        assert main(["export", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"invalid: {self.VIOLATION}"]


class TestNoRoutes:
    """A scenario without routes, which no command can build a model for,
    ends every command past `validate` and `export` (``_VALUE_RULES``) with
    one `invalid:` line and exit 1."""

    @pytest.mark.parametrize("command", ["solve", "evaluate", "compare", "oracle"])
    def test_one_line_exit_one(self, tmp_path, capsys, command):
        doc = scenario_doc()
        doc["routes"] = []
        scenario_path = write_doc(tmp_path, doc)
        plan_path = write_doc(tmp_path, {"routes": []}, "plan.json")
        extra = {"evaluate": ["--plan", str(plan_path)],
                 "compare": ["--baseline", str(plan_path)]}.get(command, [])
        assert main([command, "--scenario", str(scenario_path), "--out", str(tmp_path / "o"),
                     *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: routes: at least one route is required"]


class TestFullPatternMask:
    """Under --full-pattern a mask that forbids an arc of the full loop is a
    violation like any other: `validate` prints it and every other command
    ends with one `invalid:` line and exit 1."""

    VIOLATION = ("routes[0].allowed_arcs: full pattern required but loop arcs "
                 "[(0, 1)] are not allowed")

    @pytest.fixture
    def masked(self, tmp_path):
        mask = [[i != j and (i, j) != (0, 1) for j in range(6)] for i in range(6)]
        return write_doc(tmp_path, scenario_doc(symmetry=False, allowed_arcs=mask))

    def test_validate_prints_the_violation(self, masked, capsys):
        assert main(["validate", "--scenario", str(masked)]) == 0
        assert main(["validate", "--scenario", str(masked), "--full-pattern"]) == 1
        assert capsys.readouterr().out.splitlines() == [self.VIOLATION]

    @pytest.mark.parametrize("command", ["export", "solve", "evaluate", "compare", "oracle"])
    def test_one_line_exit_one(self, masked, tmp_path, capsys, command):
        # the plan skips stop 1, so it never takes the forbidden arc
        plan = full_pattern_plan_doc(read_scenario(masked))
        plan["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 2, 3, 4, 5]
        plan_path = write_doc(tmp_path, plan, "plan.json")
        extra = {"evaluate": ["--plan", str(plan_path)],
                 "compare": ["--baseline", str(plan_path)]}.get(command, [])
        assert main([command, "--scenario", str(masked), "--out", str(tmp_path / "o"),
                     "--full-pattern", *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [f"invalid: {self.VIOLATION}"]


class TestSolve:
    def test_artifacts_and_exit(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        for name in ("plan.json", "metrics.json", "metrics.csv", "model_stats.json",
                     "model.lp", "patterns.txt", "manifest.json"):
            assert (out / name).is_file(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["solver_status"] == "optimal"
        assert set(manifest["artifacts"]) >= {"plan.json", "metrics.json", "model.lp"}
        assert "objective" in capsys.readouterr().out

    def test_infeasible_exit_three(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc(fleet_cap=0.5, vehicle_hours_cap=0.5))
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(path), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_status"] == "infeasible"

    def test_determinism_byte_identical(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out1)]) == 0
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out2)]) == 0
        for name in ("model.lp", "plan.json", "metrics.json", "model_stats.json",
                     "patterns.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_no_transfers_override(self, scenario_file, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out),
                     "--no-transfers"]) == 0
        stats = json.loads((out / "model_stats.json").read_text())
        assert stats["variables"]["by_family"]["ft"] == stats["variables"]["by_family"]["fx"] == 0

    @pytest.mark.parametrize("flag, field, value", [
        ("--no-transfers", "allow_transfers", False),
        ("--symmetry", "enforce_symmetry", True),
        ("--capacity", "enforce_capacity", True),
        ("--full-pattern", "require_full_pattern", True),
        ("--integer-fleet", "integer_fleet", True),
    ])
    def test_option_flag_in_manifest(self, scenario_file, tmp_path, flag, field, value):
        out = tmp_path / "run"
        assert main(["export", "--scenario", str(scenario_file), "--out", str(out), flag]) == 0
        assert _checked_manifest(out)["options_overrides"] == {field: value}

    def test_invalid_scenario_exit_one(self, tmp_path):
        path = write_doc(tmp_path, scenario_doc(menu=(7.0, 5.0)))
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_decode_failure_exit_five(self, scenario_file, tmp_path, monkeypatch, capsys):
        def split_loops(model, result):
            raise DecodeError("period 0 route 0 pattern 0: arcs split into multiple loops")
        monkeypatch.setattr(transitopt.cli, "decode_plan", split_loops)
        out = tmp_path / "o"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out)]) == 5
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: DecodeError: period 0 route 0 pattern 0: arcs split into multiple loops")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_status"] == "optimal"
        assert set(manifest["artifacts"]) == {"model.lp", "model_stats.json"}
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_solver_failure_exit_five(self, scenario_file, tmp_path, monkeypatch, capsys):
        def broken(model, cfg):
            raise SolverError("solver failure: bad input")
        monkeypatch.setattr(transitopt.cli, "solve", broken)
        assert main(["solve", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == "error: SolverError: solver failure: bad input\n"


class TestEvaluate:
    def test_metrics_written(self, scenario_file, tmp_path, capsys):
        scenario = read_scenario(scenario_file)
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(scenario), "plan.json")
        out = tmp_path / "run"
        assert main(["evaluate", "--scenario", str(scenario_file),
                     "--plan", str(plan_path), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["riders_total"] == 60.0
        assert (out / "metrics.csv").read_text().startswith("metric,value")

    def test_unroutable_exit_three(self, tmp_path, capsys):
        doc = scenario_doc(n_patterns=1, transfers=False,
                           demand=(((0, 0, 2), 10.0),))
        path = write_doc(tmp_path, doc)
        scenario = read_scenario(path)
        plan = full_pattern_plan_doc(scenario)
        # short-turn the only pattern so stop C is never served
        plan["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 1, 4, 5]
        plan_path = write_doc(tmp_path, plan, "plan.json")
        out = tmp_path / "run"
        assert main(["evaluate", "--scenario", str(path),
                     "--plan", str(plan_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "origin 0 -> destination 2" in err

    def test_unroutable_pair_in_manifest(self, tmp_path):
        path, plan_path = _unroutable(tmp_path)
        out = tmp_path / "run"
        assert main(["evaluate", "--scenario", str(path), "--plan", str(plan_path),
                     "--out", str(out)]) == 3
        assert _checked_manifest(out)["infeasible_pair"] == {"t": 0, "route": 0, "o": 0, "d": 2}

    def test_insufficient_capacity_exit_three(self, tmp_path, capsys):
        path = write_doc(tmp_path, scenario_doc(enforce_capacity=True, capacity=1.0,
                                                symmetry=False))
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(read_scenario(path)), "plan.json")
        assert main(["evaluate", "--scenario", str(path), "--plan", str(plan_path),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "infeasible: insufficient capacity to route demand on route 0 in period 0\n")

    def test_missing_plan_exit_two(self, scenario_file, tmp_path):
        assert main(["evaluate", "--scenario", str(scenario_file),
                     "--plan", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_plan_not_on_menu_exit_one(self, scenario_file, tmp_path):
        scenario = read_scenario(scenario_file)
        plan = full_pattern_plan_doc(scenario)
        plan["routes"][0]["periods"][0]["patterns"][0]["headway"] = 6.0
        plan_path = write_doc(tmp_path, plan, "plan.json")
        assert main(["evaluate", "--scenario", str(scenario_file),
                     "--plan", str(plan_path), "--out", str(tmp_path / "o")]) == 1


class TestPlanOrder:
    """evaluate and compare price only loops in stop order, as the model does."""

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_out_of_order_plan_exit_one(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, scenario_doc(symmetry=False, n_patterns=1))
        plan = full_pattern_plan_doc(read_scenario(path))
        plan["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 2, 1, 3, 4, 5]
        plan_path = write_doc(tmp_path, plan, "plan.json")
        flag = "--plan" if command == "evaluate" else "--baseline"
        assert main([command, "--scenario", str(path), flag, str(plan_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid plan: ")
        assert "stop order" in err[0]


class TestPlanValues:
    """Plan stops are integers and headways and fleets finite numbers, as in
    scenarios, and fleets not negative; anything else is one `invalid plan:`
    line and exit 1."""

    @pytest.mark.parametrize("field, value, message", [
        ("stop", "a", "stops[1]: expected an integer, got 'a'"),
        ("stop", 1.7, "stops[1]: expected an integer, got 1.7"),
        ("stop", True, "stops[1]: expected an integer, got True"),
        ("headway", "x", "headway: expected a number, got 'x'"),
        ("fleet", "x", "fleet: expected a number, got 'x'"),
        ("fleet", float("nan"), "fleet: must be a finite number, got nan"),
        ("fleet", -3.0, "fleet -3.0 is not a finite number of vehicles >= 0"),
    ], ids=["stop-text", "stop-fraction", "stop-bool", "headway-text", "fleet-text", "fleet-nan",
            "fleet-negative"])
    def test_bad_value_exit_one(self, tmp_path, capsys, field, value, message):
        path = write_doc(tmp_path, scenario_doc(symmetry=False, n_patterns=1))
        plan = full_pattern_plan_doc(read_scenario(path))
        cell = plan["routes"][0]["periods"][0]
        if field == "stop":
            cell["patterns"][0]["stops"][1] = value
        elif field == "headway":
            cell["patterns"][0]["headway"] = value
        else:
            cell["fleet"] = value
        plan_path = write_doc(tmp_path, plan, "plan.json")
        assert main(["evaluate", "--scenario", str(path), "--plan", str(plan_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid plan: ")
        assert err[0].endswith(message)


# the 3-stop arc mask with one entry written as text
_TEXT_MASK = [["no" if (i, j) == (0, 1) else i != j for j in range(6)] for i in range(6)]


class TestDocumentShapes:
    """A list or object where the other, or a scalar, is expected is one
    `invalid …:` line and exit 1, never a traceback."""

    @pytest.mark.parametrize("kind, path, value, message", [
        ("scenario", ["periods"], 3, "periods: expected a list, got int"),
        ("scenario", ["periods"], [5], "periods[0]: expected an object, got int"),
        ("scenario", ["routes"], 5, "routes: expected a list, got int"),
        ("scenario", ["routes", 0, "demand", 0], 5,
         "routes[0].demand[0]: expected an object, got int"),
        ("scenario", ["routes", 0, "link_run_times", "outbound"], 5,
         "routes[0].link_run_times.outbound: expected a list, got int"),
        ("scenario", ["routes", 0, "headway_menus"], [5],
         "routes[0].headway_menus[0]: expected a list, got int"),
        ("scenario", ["routes", 0, "allowed_arcs"], 3,
         "routes[0].allowed_arcs: expected a list, got int"),
        ("scenario", ["routes", 0, "allowed_arcs"], _TEXT_MASK,
         "routes[0].allowed_arcs[0][1]: expected true or false, got 'no'"),
        ("scenario", ["options", "allow_transfers"], "false",
         "options.allow_transfers: expected true or false, got 'false'"),
        ("scenario", ["options", "enforce_symmetry"], "no",
         "options.enforce_symmetry: expected true or false, got 'no'"),
        ("scenario", ["options", "integer_fleet"], 0,
         "options.integer_fleet: expected true or false, got 0"),
        ("plan", [], [], "plan: expected an object, got list"),
        ("plan", ["routes", 0], 1, "plan routes[0]: expected an object, got int"),
        ("plan", ["routes", 0, "periods", 0, "patterns", 0], 1,
         "plan routes[0].periods[0].patterns[0]: expected an object, got int"),
        ("plan", ["routes", 0, "periods", 0, "patterns"], 3,
         "plan routes[0].periods[0].patterns: expected a list, got int"),
    ], ids=["periods-number", "period-number", "routes-number", "demand-record-number",
            "outbound-number", "menu-number", "allowed-arcs-number", "allowed-arc-text",
            "transfers-text-false", "symmetry-text-no", "fleet-flag-zero", "plan-list",
            "plan-route-number", "pattern-number", "patterns-number"])
    def test_wrong_shape_exit_one(self, tmp_path, capsys, kind, path, value, message):
        scenario = scenario_doc(symmetry=False, n_patterns=1)
        plan = full_pattern_plan_doc(load_scenario(scenario))
        doc = scenario if kind == "scenario" else plan
        if path:
            *parents, last = path
            for key in parents:
                doc = doc[key]
            doc[last] = value
        else:
            plan = value
        scenario_path = write_doc(tmp_path, scenario)
        plan_path = write_doc(tmp_path, plan, "plan.json")
        assert main(["evaluate", "--scenario", str(scenario_path), "--plan", str(plan_path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"invalid {kind}: {message}"]


class TestCompare:
    def test_optimizer_never_loses(self, scenario_file, tmp_path, capsys):
        scenario = read_scenario(scenario_file)
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(scenario), "base.json")
        out = tmp_path / "run"
        assert main(["compare", "--scenario", str(scenario_file),
                     "--baseline", str(plan_path), "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["percent_change"]["objective"] <= 1e-9
        assert comparison["baseline"]["objective"] >= comparison["optimized"]["objective"] - 1e-9

    def test_self_comparison_is_zero(self, scenario_file, tmp_path):
        out1 = tmp_path / "first"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(out1)]) == 0
        out2 = tmp_path / "second"
        assert main(["compare", "--scenario", str(scenario_file),
                     "--baseline", str(out1 / "plan.json"), "--out", str(out2)]) == 0
        comparison = json.loads((out2 / "comparison.json").read_text())
        assert comparison["percent_change"]["objective"] == pytest.approx(0.0, abs=1e-9)

    def test_baseline_insufficient_capacity_exit_three(self, tmp_path, capsys):
        path = write_doc(tmp_path, scenario_doc(enforce_capacity=True, capacity=1.0,
                                                symmetry=False))
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(read_scenario(path)), "base.json")
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(path), "--baseline", str(plan_path),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "infeasible baseline: insufficient capacity to route demand "
            "on route 0 in period 0\n")
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == {}

    def test_unroutable_baseline_pair_in_manifest(self, tmp_path, capsys):
        path, plan_path = _unroutable(tmp_path)
        out = tmp_path / "run"
        assert main(["compare", "--scenario", str(path), "--baseline", str(plan_path),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "infeasible baseline: no feasible path for demand origin 0 -> destination 2 ")
        assert _checked_manifest(out)["infeasible_pair"] == {"t": 0, "route": 0, "o": 0, "d": 2}


class TestOracleCommand:
    def test_solver_fields_recorded(self, scenario_file, tmp_path, capsys):
        # the oracle reports its solve as solve and compare do
        out = tmp_path / "run"
        assert main(["oracle", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        manifest = _checked_manifest(out)
        assert manifest["solver_status"] == "optimal"
        assert manifest["solver_wall_time_s"] > 0
        solver_line = capsys.readouterr().err.splitlines()[0]
        assert solver_line.startswith("solver: status=optimal objective=")
        assert " wall=" in solver_line

    def test_match_exit_zero(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["oracle", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["verdict"] == "match"
        assert "verdict match" in capsys.readouterr().out

    def test_internal_inconsistency_exit_five(self, scenario_file, tmp_path, monkeypatch,
                                              capsys):
        # a fixed-design solve that prices a design 1.0 above the evaluator
        # is a program failure, not a verdict on the optimum
        solve = transitopt.oracle.solve

        def off_by_one(model, cfg):
            res = solve(model, cfg)
            return dataclasses.replace(res, objective=res.objective + 1.0)

        monkeypatch.setattr(transitopt.oracle, "solve", off_by_one)
        out = tmp_path / "o"
        assert main(["oracle", "--scenario", str(scenario_file), "--out", str(out)]) == 5
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: InternalInconsistencyError: evaluator priced a plan at ")
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == {}

    def test_each_route_enumerated_once(self, scenario_file, tmp_path, monkeypatch):
        # the size checks' enumeration is the one certify prices
        calls = []
        route_cells = transitopt.oracle._route_cells

        def counting(route, scenario):
            calls.append(route.id)
            return route_cells(route, scenario)

        monkeypatch.setattr(transitopt.oracle, "_route_cells", counting)
        assert main(["oracle", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]) == 0
        assert calls == [0]

    def test_oversized_exit_one(self, tmp_path):
        doc = scenario_doc(menu=(4.0, 5.0, 6.0))
        path = write_doc(tmp_path, doc)
        assert main(["oracle", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_oversized_refused_before_solving(self, tmp_path, monkeypatch, capsys):
        def no_solve(model, cfg):
            raise AssertionError("the size check must come before the solve")
        monkeypatch.setattr(transitopt.cli, "solve", no_solve)
        path = write_doc(tmp_path, ladder_doc(8, 7, transfers=False))
        assert main(["oracle", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: route 0 has 8 stops; oracle limit is 6"]


class TestSolverSettings:
    """Solver settings SolverConfig refuses end in one `invalid:` line and
    exit 1 before any artifact is written."""

    @pytest.mark.parametrize("command", ["solve", "compare", "oracle"])
    @pytest.mark.parametrize("flag, value", [
        ("--time-limit", "0"), ("--time-limit", "-1"), ("--time-limit", "nan"),
        ("--gap", "1"), ("--gap", "nan"),
    ])
    def test_bad_setting_exit_one(self, scenario_file, tmp_path, capsys, command, flag, value):
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(read_scenario(scenario_file)),
                              "plan.json")
        out = tmp_path / "o"
        extra = ["--baseline", str(plan_path)] if command == "compare" else []
        assert main([command, "--scenario", str(scenario_file), "--out", str(out),
                     flag, value, *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid: ")
        assert not (out / "model.lp").exists()


    def test_only_solving_commands_take_settings(self, scenario_file, tmp_path, capsys):
        out = ["--out", str(tmp_path / "o")]
        for argv, flag in [(["validate"], "--time-limit"),
                           (["evaluate", *out, "--plan", "plan.json"], "--gap"),
                           (["export", *out], "--time-limit"), (["solve", *out], "--seed")]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--scenario", str(scenario_file), flag, "1"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_manifest_records_settings_only_when_solving(self, scenario_file, tmp_path):
        solved, exported = tmp_path / "s", tmp_path / "e"
        assert main(["solve", "--scenario", str(scenario_file), "--out", str(solved),
                     "--time-limit", "60", "--gap", "0.01"]) == 0
        assert main(["export", "--scenario", str(scenario_file), "--out", str(exported)]) == 0
        manifest = json.loads((solved / "manifest.json").read_text())
        assert manifest["solver"] == {"time_limit_s": 60.0, "rel_gap": 0.01}
        assert "solver" not in json.loads((exported / "manifest.json").read_text())


class TestOutDirectory:
    """An --out that cannot be a directory is an I/O failure: one `error:`
    line and exit 2."""

    @pytest.mark.parametrize("where", ["is-a-file", "under-a-file"])
    def test_unusable_out_exit_two(self, scenario_file, tmp_path, capsys, where):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if where == "is-a-file" else blocker / "run"
        assert main(["export", "--scenario", str(scenario_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot create output directory ")


def _off_by_one(solve):
    """``solve`` with every objective 1.0 higher."""
    def solved(model, cfg):
        res = solve(model, cfg)
        return dataclasses.replace(res, objective=res.objective + 1.0)
    return solved


_EXITS = [("export", 0), ("solve", 0), ("solve", 3), ("solve", 5), ("evaluate", 0),
          ("evaluate", 3), ("evaluate", 5), ("compare", 0), ("compare", 3), ("compare", 5),
          ("oracle", 0), ("oracle", 1), ("oracle", 3), ("oracle", 4), ("oracle", 5)]

# what each command writes besides the manifest when it succeeds
_ARTIFACTS = {
    "export": {"model.lp", "model_stats.json"},
    "solve": {"model.lp", "model_stats.json", "plan.json", "metrics.json", "metrics.csv",
              "patterns.txt"},
    "evaluate": {"metrics.json", "metrics.csv", "patterns.txt"},
    "compare": {"model.lp", "model_stats.json", "plan.json", "metrics.json", "metrics.csv",
                "patterns.txt", "comparison.json"},
    "oracle": {"oracle_report.json"},
}


class TestManifestOnEveryExit:
    """Once --out exists, every exit a command can reach leaves a manifest
    whose digests match the files it lists."""

    @pytest.mark.parametrize("command, code", _EXITS, ids=[f"{c}-{e}" for c, e in _EXITS])
    def test_manifest_written(self, tmp_path, monkeypatch, command, code):
        scenario_path = write_doc(tmp_path, scenario_doc())
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(read_scenario(scenario_path)),
                              "plan.json")
        if code == 1:    # more designs than the oracle enumerates
            scenario_path = write_doc(tmp_path, scenario_doc(menu=(4.0, 5.0, 6.0)))
        elif code == 3 and command in ("evaluate", "compare"):
            scenario_path, plan_path = _unroutable(tmp_path)
        elif code == 3:  # no design within the fleet caps
            scenario_path = write_doc(tmp_path, scenario_doc(fleet_cap=0.5,
                                                             vehicle_hours_cap=0.5))
        elif code == 4:  # a solver optimum 1.0 above the best enumerated design
            monkeypatch.setattr(transitopt.cli, "solve", _off_by_one(transitopt.cli.solve))
        elif code == 5 and command in ("evaluate", "compare"):
            def broken(scenario, plan):
                raise EvaluationError("assignment program failed")
            monkeypatch.setattr(transitopt.cli, "assign_flows", broken)
        elif code == 5 and command == "solve":
            def split_loops(model, result):
                raise DecodeError("arcs split into multiple loops")
            monkeypatch.setattr(transitopt.cli, "decode_plan", split_loops)
        elif code == 5:  # a fixed-design solve that disagrees with the evaluator
            monkeypatch.setattr(transitopt.oracle, "solve", _off_by_one(transitopt.oracle.solve))
        out = tmp_path / "run"
        extra = {"evaluate": ["--plan", str(plan_path)],
                 "compare": ["--baseline", str(plan_path)]}.get(command, [])
        assert main([command, "--scenario", str(scenario_path), "--out", str(out), *extra]) == code
        manifest = _checked_manifest(out)
        assert manifest["command"] == command
        if code == 0:
            assert set(manifest["artifacts"]) == _ARTIFACTS[command]


class TestUnwritableArtifact:
    """An artifact that cannot be written is an I/O failure: one `error:`
    line and exit 2, never a traceback, with the manifest listing the files
    written before it."""

    @pytest.mark.parametrize("command, blocked, written", [
        ("export", "model.lp", set()),
        ("solve", "plan.json", {"model.lp", "model_stats.json"}),  # written after the solve
    ], ids=["export-model.lp", "solve-plan.json"])
    def test_directory_in_the_way_exit_two(self, scenario_file, tmp_path, capsys, command,
                                           blocked, written):
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--scenario", str(scenario_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {out / blocked}: ")
        assert set(_checked_manifest(out)["artifacts"]) == written

    @pytest.mark.parametrize("fails", [False, True], ids=["priced", "evaluator-fails"])
    def test_unwritable_manifest(self, scenario_file, tmp_path, monkeypatch, capsys, fails):
        # a manifest that cannot be written is exit 2, unless a failure ended
        # the command first: that failure keeps its exit code and its line
        plan_path = write_doc(tmp_path, full_pattern_plan_doc(read_scenario(scenario_file)),
                              "plan.json")
        if fails:
            def broken(scenario, plan):
                raise EvaluationError("assignment program failed")
            monkeypatch.setattr(transitopt.cli, "assign_flows", broken)
        out = tmp_path / "run"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["evaluate", "--scenario", str(scenario_file), "--plan", str(plan_path),
                     "--out", str(out)]) == (5 if fails else 2)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert err[0].startswith(f"error: cannot write {out / 'manifest.json'}: ")
        assert err[1:] == (["error: EvaluationError: assignment program failed"] if fails else [])
        assert captured.out == ""


class TestExport:
    def test_artifacts(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["export", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        text = (out / "model.lp").read_text()
        assert text.startswith("\\ transitopt\nMinimize")
        assert text.rstrip().endswith("End")
        assert (out / "model_stats.json").is_file()
        assert "exported" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["export", "solve"])
    def test_model_lp_is_write_lp(self, tmp_path, capsys, command):
        # the CLI streams the writer's chunks to the file and hashes them on
        # the way; the file is the joined text and the manifest its digest
        doc = random_toy_doc(3, transfers=True, dwell_saving=0.5)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "run"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
        data = (out / "model.lp").read_bytes()
        assert data == transitopt.write_lp(transitopt.build_model(load_scenario(doc))).encode()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["model.lp"] == hashlib.sha256(data).hexdigest()
        for name, digest in manifest["artifacts"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name
        assert manifest["scenario_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_piped_scenario_is_hashed(self, tmp_path):
        # a pipe is no regular file: the digest is of the bytes parsed
        data = json.dumps(scenario_doc()).encode()
        out = tmp_path / "run"
        src = Path(transitopt.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-m", "transitopt.cli", "export",
                               "--scenario", "/dev/stdin", "--out", str(out)],
                              input=data, capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        manifest = _checked_manifest(out)
        assert manifest["scenario_path"] == "/dev/stdin"
        assert manifest["scenario_sha256"] == hashlib.sha256(data).hexdigest()


class TestLazyScipy:
    """Commands that never solve load no scipy module; commands that solve
    load scipy's HiGHS binding (with the submodules it registers itself) and
    nothing else of scipy."""

    @staticmethod
    def scipy_modules_after(argv_lists) -> list:
        """[exit codes, scipy modules loaded] of one process running them."""
        src = Path(transitopt.__file__).resolve().parent.parent
        code = ("import json, sys\n"
                "from transitopt.cli import main\n"
                f"codes = [main(argv) for argv in {argv_lists!r}]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules\n"
                "                                if m.split('.')[0] == 'scipy')]))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_validate_and_export_never_load_scipy(self, scenario_file, tmp_path):
        codes, modules = self.scipy_modules_after([
            ["validate", "--scenario", str(scenario_file)],
            ["export", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]])
        assert codes == [0, 0]
        assert modules == []

    @pytest.mark.parametrize("command", ["solve", "evaluate", "oracle"])
    def test_solving_commands_load_only_the_binding(self, scenario_file, tmp_path, command):
        argv = [command, "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]
        if command == "evaluate":  # transfers on: one assignment program
            plan = full_pattern_plan_doc(read_scenario(scenario_file))
            argv += ["--plan", str(write_doc(tmp_path, plan, "plan.json"))]
        codes, modules = self.scipy_modules_after([argv])
        assert codes == [0]
        core = "scipy.optimize._highspy._core"
        assert core in modules
        assert all(m == core or m.startswith(core + ".") for m in modules), modules


class TestRendering:
    def test_patterns_file_shape(self, scenario_file, tmp_path):
        out = tmp_path / "run"
        main(["solve", "--scenario", str(scenario_file), "--out", str(out)])
        text = (out / "patterns.txt").read_text()
        assert "route 0 period 0" in text
        assert "pattern 0" in text
        assert "A" in text and "C" in text
