"""Cross-cutting model and pipeline invariants beyond the acceptance gate."""

import json

import numpy as np
import pytest

from transitopt import (
    SolverConfig, SolveResult, assign_flows, build_model, certify,
    compute_metrics, decode_plan, load_plan, load_scenario, solve,
)
from transitopt.backend import DecodeError, _model_arrays, solve_arrays
from transitopt.cli import main as cli_main

from _blocks import var_ids, var_labels
from _factories import (add_route, full_pattern_plan_doc, ladder_doc, make_scenario,
                        random_toy_doc, scenario_doc)


class TestRelaxation:
    def test_lp_relaxation_bounded_and_below_milp(self):
        model = build_model(make_scenario())
        milp_result = solve(model, SolverConfig(time_limit_s=120))
        c, a, lo, hi, integrality, lb, ub = _model_arrays(model)
        relaxed = solve_arrays(c, a, lo, hi, np.zeros_like(integrality), lb, ub,
                               SolverConfig(time_limit_s=120))
        assert relaxed.status == "optimal"  # bounded: big-M choices are sane
        assert relaxed.objective <= milp_result.objective + 1e-6

    @pytest.mark.parametrize("n, bound", [(3, 721.525), (4, 1150.3477272727)])
    def test_ladder_root_bound_never_weakens(self, n, bound):
        # the LP relaxation of the corridor rungs with transfers on, as
        # first measured: a change of formulation may raise it, never lower
        # it. n = 4 rose from 1139.625 when a cell's picks were held to the
        # patterns that stop at its entry stop.
        model = build_model(load_scenario(ladder_doc(n, 7, transfers=True)))
        c, a, lo, hi, integrality, lb, ub = _model_arrays(model)
        relaxed = solve_arrays(c, a, lo, hi, np.zeros_like(integrality), lb, ub,
                               SolverConfig(time_limit_s=120))
        assert relaxed.status == "optimal"
        assert relaxed.objective >= bound - 1e-9

    @pytest.mark.parametrize("seed, transfers, bound", [
        (6, False, 421.91818181818184),
        (35, False, 677.0041379310344),
        (7, True, 219.8117088607595),
    ])
    def test_toy_root_bound_never_weakens(self, seed, transfers, bound):
        # the LP relaxation of toys whose bound rose when combination_menu
        # summed a cell's picks per pattern and menu entry: a change of
        # formulation may raise it, never lower it
        model = build_model(load_scenario(random_toy_doc(seed, transfers=transfers)))
        c, a, lo, hi, integrality, lb, ub = _model_arrays(model)
        relaxed = solve_arrays(c, a, lo, hi, np.zeros_like(integrality), lb, ub,
                               SolverConfig(time_limit_s=120))
        assert relaxed.status == "optimal"
        assert relaxed.objective >= bound - 1e-6


class TestModelWellFormed:
    def test_rows_reference_registered_variables_only(self):
        model = build_model(make_scenario())
        nvar = model.n_vars
        for b in model.row_blocks:
            assert ((0 <= b.cols) & (b.cols < nvar)).all(), b.family
        assert ((0 <= model.obj_ids) & (model.obj_ids < nvar)).all()

    def test_variable_ids_dense_and_ordered(self):
        model = build_model(make_scenario())
        stop = 0
        for b in model.var_blocks:
            assert b.start == stop and len(b.keys) == len(b.lb) == len(b.ub), b.family
            stop = b.stop
        assert stop == model.n_vars == len(var_labels(model))

    def test_transfers_off_rows_have_no_transfer_terms(self):
        model = build_model(make_scenario(transfers=False))
        families = [family for family, _ in var_labels(model)]
        for b in model.row_blocks:
            for vid in b.cols.tolist():
                assert families[vid] not in ("ft", "fx")


class TestDecodeGuards:
    def test_fractional_binary_rejected(self):
        model = build_model(make_scenario())
        good = solve(model, SolverConfig(time_limit_s=120))
        x = np.array(good.assignment, copy=True)
        some_binary = next(b.start for b in model.var_blocks if b.kind == "B")
        x[some_binary] = 0.4
        bad = SolveResult(status="optimal", objective=good.objective,
                          assignment=x, wall_time_s=0.0)
        with pytest.raises(DecodeError, match="binary"):
            decode_plan(model, bad)

    def test_negative_flow_beyond_tolerance_rejected(self):
        model = build_model(make_scenario())
        good = solve(model, SolverConfig(time_limit_s=120))
        x = np.array(good.assignment, copy=True)
        some_flow = next(b.start for b in model.var_blocks if b.family == "fw")
        x[some_flow] = -1e-6
        bad = SolveResult(status="optimal", objective=good.objective,
                          assignment=x, wall_time_s=0.0)
        with pytest.raises(DecodeError, match="negative"):
            decode_plan(model, bad)

    def test_negative_flow_within_solver_tolerance_dropped(self):
        # HiGHS's optima hold flows as low as -1e-9 (its primal feasibility
        # tolerance is 1e-7): they decode, and the flow reads as absent
        model = build_model(make_scenario())
        good = solve(model, SolverConfig(time_limit_s=120))
        _, flows = decode_plan(model, good)
        key, idle = next((k, v) for k, v in var_ids(model, "fw").items()
                         if good.assignment[v] == 0.0)
        x = np.array(good.assignment, copy=True)
        x[idle] = -5e-8
        _, near = decode_plan(model, SolveResult(status="optimal", objective=good.objective,
                                                 assignment=x, wall_time_s=0.0))
        assert key not in near.entry
        assert near == flows


class TestIntegerFleet:
    def test_fleet_counts_are_whole_and_objective_no_better(self):
        kw = dict(demand=(((0, 0, 2), 30.0), ((0, 2, 0), 20.0)), fleet_cap=6.0,
                  vehicle_hours_cap=6.0, transfers=False)
        cont = make_scenario(**kw)
        integ = make_scenario(integer_fleet=True, **kw)
        r_cont = solve(build_model(cont), SolverConfig(time_limit_s=120))
        r_int = solve(build_model(integ), SolverConfig(time_limit_s=120))
        assert r_int.status == "optimal"
        assert r_int.objective >= r_cont.objective - 1e-9
        plan, _ = decode_plan(build_model(integ), r_int)
        fleet = plan.cell(0, 0).fleet
        assert abs(fleet - round(fleet)) <= 1e-6


class TestEvaluatorMonotonicity:
    @pytest.mark.parametrize("transfers", [False, True])
    def test_adding_a_pattern_never_hurts(self, transfers):
        scenario = load_scenario(random_toy_doc(61, transfers=transfers))
        route = scenario.routes[0]
        menu = route.headway_menu(0)
        single = {"routes": [{"route": 0, "periods": [{"period": 0, "patterns": [
            {"pattern": 0, "headway": menu[0], "stops": list(range(route.n_dir))},
            {"pattern": 1, "headway": None, "stops": []},
        ]}]}]}
        both = {"routes": [{"route": 0, "periods": [{"period": 0, "patterns": [
            {"pattern": 0, "headway": menu[0], "stops": list(range(route.n_dir))},
            {"pattern": 1, "headway": menu[1], "stops": list(range(route.n_dir))},
        ]}]}]}
        p1 = load_plan(single, scenario)
        p2 = load_plan(both, scenario)
        m1 = compute_metrics(assign_flows(scenario, p1), scenario, p1)
        m2 = compute_metrics(assign_flows(scenario, p2), scenario, p2)
        assert m2.objective <= m1.objective + 1e-9


class TestCompareMatchesOracleGap:
    def test_delta_equals_oracle_gap(self, tmp_path):
        doc = scenario_doc()          # baseline at the largest menu headway
        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(doc))
        scenario = load_scenario(doc)
        base_doc = full_pattern_plan_doc(scenario)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base_doc))
        out = tmp_path / "cmp"
        assert cli_main(["compare", "--scenario", str(scen_path),
                         "--baseline", str(base_path), "--out", str(out)]) == 0
        comparison = json.loads((out / "comparison.json").read_text())

        result = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        report = certify(scenario, result, cross_check="none")
        base_plan = load_plan(base_doc, scenario)
        base_obj = compute_metrics(assign_flows(scenario, base_plan),
                                   scenario, base_plan).objective
        oracle_gap = (report.best_objective - base_obj) / base_obj * 100.0
        assert comparison["percent_change"]["objective"] == pytest.approx(oracle_gap, abs=1e-6)


class TestMultiRoutePooling:
    def _doc(self, fleet_cap):
        doc = scenario_doc(
            demand=(((0, 0, 2), 25.0), ((0, 2, 1), 10.0)),
            fleet_cap=fleet_cap, vehicle_hours_cap=fleet_cap, transfers=False)
        add_route(doc, stops=("X", "Y"), out_times=(6.0,), in_times=(6.0,),
                  menu=(4.0, 8.0), n_patterns=1, turnback_time=1.0,
                  demand=(((0, 0, 1), 30.0), ((0, 1, 0), 12.0)))
        return doc

    def test_shared_pool_is_respected_and_binding_hurts(self):
        loose = load_scenario(self._doc(12.0))
        tight = load_scenario(self._doc(5.2))
        r_loose = solve(build_model(loose), SolverConfig(time_limit_s=120))
        r_tight = solve(build_model(tight), SolverConfig(time_limit_s=120))
        assert r_loose.status == "optimal" and r_tight.status == "optimal"
        assert r_tight.objective >= r_loose.objective - 1e-9
        plan, _ = decode_plan(build_model(tight), r_tight)
        total = plan.cell(0, 0).fleet + plan.cell(1, 0).fleet
        assert total <= 5.2 + 1e-6

    def test_vehicle_hours_couple_periods(self):
        doc = scenario_doc(
            period_hours=(2.0, 3.0),
            demand=(((0, 0, 2), 40.0), ((1, 0, 2), 12.0)),
            fleet_cap=10.0, vehicle_hours_cap=14.0, transfers=False,
            full_pattern=True)
        scenario = load_scenario(doc)
        result = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        plan, _ = decode_plan(build_model(scenario), result)
        spent = (2.0 * plan.cell(0, 0).fleet + 3.0 * plan.cell(0, 1).fleet)
        assert spent <= 14.0 + 1e-6


class TestInfrastructureMask:
    def test_only_full_loop_allowed_forces_full_or_nothing(self):
        nd = 6
        loop = {(k, (k + 1) % nd) for k in range(nd)}
        mask = [[(i, j) in loop for j in range(nd)] for i in range(nd)]
        scenario = make_scenario(allowed_arcs=mask, symmetry=False,
                                 demand=(((0, 0, 2), 20.0),))
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        plan, _ = decode_plan(model, result)
        for pat in plan.cell(0, 0).patterns:
            if pat.in_service and pat.stops:
                assert pat.stops == tuple(range(nd))
