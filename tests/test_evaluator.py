import numpy as np
import pytest

import transitopt.evaluator as evaluator
from transitopt import (
    EvaluationError, SolverConfig, UnroutableDemandError, assign_flows, build_model,
    compute_metrics, conservation_residuals, decode_plan, fix_baseline, fleet_requirement,
    load_plan, load_scenario, solve,
)
from transitopt.evaluator import _assign_lp
from transitopt.plan import FlowAssignment

from _factories import (full_pattern_plan_doc, make_scenario, random_toy_doc,
                        scenario_doc)


def plan_doc(patterns_by_rt, scenario):
    """patterns_by_rt: {(r, t): [(stops, headway) or None, ...]}"""
    routes = []
    for r in range(len(scenario.routes)):
        periods = []
        for t in range(len(scenario.periods)):
            pats = []
            for entry in patterns_by_rt[(r, t)]:
                if entry is None:
                    pats.append({"pattern": len(pats), "headway": None, "stops": []})
                else:
                    stops, headway = entry
                    pats.append({"pattern": len(pats), "headway": headway,
                                 "stops": list(stops)})
            periods.append({"period": t, "patterns": pats})
        routes.append({"route": r, "periods": periods})
    return {"routes": routes}


class TestHandExamples:
    def test_single_pattern_objective_585(self):
        scenario = make_scenario(
            stops=("A", "B"), out_times=(12.0,), in_times=(12.0,),
            menu=(10.0,), n_patterns=1,
            demand=(((0, 0, 1), 30.0),),
            fleet_cap=10.0, turnback_time=0.0,
        )
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        assert m.objective == pytest.approx(30 * 12 + 1.5 * 5 * 30)  # 585
        assert m.avg_riding_min == pytest.approx(12.0)
        assert m.avg_waiting_min == pytest.approx(5.0)
        assert m.transfers_count == 0.0
        assert m.avg_journey_min == pytest.approx(17.0)

    def test_two_pattern_frequency_split(self):
        scenario = make_scenario(
            stops=("A", "B"), out_times=(12.0,), in_times=(12.0,),
            menu=(5.0, 10.0), n_patterns=2,
            demand=(((0, 0, 1), 30.0),),
            fleet_cap=10.0, turnback_time=0.0,
        )
        plan = load_plan(plan_doc({(0, 0): [((0, 1, 2, 3), 5.0), ((0, 1, 2, 3), 10.0)]},
                                  scenario), scenario)
        fa = assign_flows(scenario, plan)
        boardings = {p: v for (t, r, d, i, c, p), v in fa.boarding.items()}
        assert boardings[0] == pytest.approx(20.0)
        assert boardings[1] == pytest.approx(10.0)
        (key,) = fa.entry.keys()
        c = key[-1]
        from transitopt import enumerate_combinations
        combos = enumerate_combinations(2, (5.0, 10.0))
        assert combos[c].perceived_headway == pytest.approx(10.0 / 3.0)
        m = compute_metrics(fa, scenario, plan)
        assert m.avg_waiting_min == pytest.approx(10.0 / 6.0)

    def test_zero_demand_all_zero(self):
        scenario = make_scenario(demand=())
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        assert m.objective == 0.0
        assert not fa.entry and not fa.boarding and not fa.inter_stop

    def test_transfer_required_journey(self):
        # pattern 0 covers A-B, pattern 1 covers B-C; A->C must change at B
        scenario = make_scenario(
            menu=(6.0, 8.0),
            demand=(((0, 0, 2), 10.0),),
            fleet_cap=12.0, turnback_time=2.0,
            transfers=True,
        )
        plan = load_plan(plan_doc(
            {(0, 0): [((0, 1, 4, 5), 6.0), ((1, 2, 3, 4), 8.0)]}, scenario), scenario)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        # wait 1.5*3 + ride 3 + transfer 2*(4+3) + ride 4, all times 10 riders
        assert m.objective == pytest.approx(10 * (4.5 + 3 + 14 + 4))
        assert m.transfers_count == pytest.approx(10.0)

    def test_transfer_journey_priced_identically_by_solver(self):
        # same disjoint-pattern design, this time through the fixed-design
        # solver path: wait 4.5 + ride 3 + transfer 14 + ride 4 per rider
        from transitopt import build_model, fix_baseline, solve
        scenario = make_scenario(
            menu=(6.0, 8.0),
            demand=(((0, 0, 2), 10.0),),
            fleet_cap=12.0, turnback_time=2.0,
            transfers=True,
        )
        plan = load_plan(plan_doc(
            {(0, 0): [((0, 1, 4, 5), 6.0), ((1, 2, 3, 4), 8.0)]}, scenario), scenario)
        model = fix_baseline(build_model(scenario), plan)
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(10 * (4.5 + 3 + 14 + 4), rel=1e-9)

    @pytest.mark.parametrize("transfers, capacity", [(False, False), (True, False), (False, True)],
                             ids=["False", "True", "capacity-on"])
    def test_unroutable_pair_is_named(self, transfers, capacity):
        # both pairs are unroutable; every path names the first in sorted order
        scenario = make_scenario(
            demand=(((0, 0, 2), 10.0), ((0, 2, 0), 10.0)), transfers=transfers,
            enforce_capacity=capacity, n_patterns=1)
        plan = load_plan(plan_doc({(0, 0): [((0, 1, 4, 5), 5.0)]}, scenario), scenario)
        with pytest.raises(UnroutableDemandError) as err:
            assign_flows(scenario, plan)
        assert (err.value.t, err.value.r, err.value.o, err.value.d) == (0, 0, 0, 2)
        assert "origin 0 -> destination 2" in str(err.value)

    def test_pattern_change_needs_transfers(self):
        # 0 -> 1 on one pattern and 1 -> 2 on the other joins only by a
        # transfer; with transfers off the pair is unroutable, not a lack of
        # capacity
        scenario = make_scenario(menu=(6.0, 8.0), demand=(((0, 0, 2), 10.0),),
                                 transfers=False, enforce_capacity=True)
        plan = load_plan(plan_doc(
            {(0, 0): [((0, 1, 4, 5), 6.0), ((1, 2, 3, 4), 8.0)]}, scenario), scenario)
        with pytest.raises(UnroutableDemandError) as err:
            assign_flows(scenario, plan)
        assert (err.value.o, err.value.d) == (0, 2)


class TestFleetRequirement:
    def test_cycle_70_headway_7(self):
        scenario = make_scenario(
            stops=("A", "B"), out_times=(33.0,), in_times=(33.0,),
            menu=(7.0,), n_patterns=1, turnback_time=2.0,
            demand=(((0, 0, 1), 5.0),), fleet_cap=10.0,
        )
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        need = fleet_requirement(plan, scenario)
        assert need[(0, 0)] == pytest.approx(10.0)

    def test_two_patterns_add_up(self):
        # full loop cycles at 60 minutes, the short loop at 30
        scenario = make_scenario(
            stops=("A", "B", "C"), out_times=(10.0, 10.0), in_times=(10.0, 10.0),
            menu=(5.0, 10.0), n_patterns=2, turnback_time=10.0, dwell_saving=15.0,
            demand=(((0, 0, 2), 5.0),), fleet_cap=20.0,
        )
        plan = load_plan(plan_doc(
            {(0, 0): [(tuple(range(6)), 5.0), ((0, 2, 3, 5), 10.0)]}, scenario), scenario)
        need = fleet_requirement(plan, scenario)
        assert need[(0, 0)] == pytest.approx(12.0 + 3.0)

    def test_out_of_service_contributes_zero(self):
        scenario = make_scenario(demand=(((0, 0, 2), 5.0),))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        full_only = fleet_requirement(plan, scenario)[(0, 0)]
        assert full_only == pytest.approx(18.0 / 7.0)


class TestCrossPathEquivalence:
    """The closed-form path and the mini-program path must agree exactly."""

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_direct_vs_lp_no_transfers(self, seed):
        scenario = load_scenario(random_toy_doc(seed, transfers=False))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa_direct = assign_flows(scenario, plan)
        m_direct = compute_metrics(fa_direct, scenario, plan)
        fa_lp = FlowAssignment()
        _assign_lp(scenario, plan, 0, 0, fa_lp)
        m_lp = compute_metrics(fa_lp, scenario, plan)
        assert m_direct.objective == pytest.approx(m_lp.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_direct_vs_lp_two_pattern_plan(self, seed):
        scenario = load_scenario(random_toy_doc(seed, transfers=False))
        route = scenario.routes[0]
        menu = route.headway_menu(0)
        short = tuple(sorted([0, 1] + [route.mirror(0), route.mirror(1)]))
        doc = plan_doc({(0, 0): [(tuple(range(route.n_dir)), menu[0]), (short, menu[1])]},
                       scenario)
        try:
            plan = load_plan(doc, scenario)
        except Exception:
            pytest.skip("plan outside fleet bounds for this seed")
        fa_direct = assign_flows(scenario, plan)
        fa_lp = FlowAssignment()
        _assign_lp(scenario, plan, 0, 0, fa_lp)
        m1 = compute_metrics(fa_direct, scenario, plan)
        m2 = compute_metrics(fa_lp, scenario, plan)
        assert m1.objective == pytest.approx(m2.objective, rel=1e-9, abs=1e-9)


class TestScalingAndConservation:
    def test_doubling_demand_doubles_totals(self):
        base = dict(menu=(5.0, 7.0), fleet_cap=12.0)
        s1 = make_scenario(demand=(((0, 0, 2), 30.0), ((0, 1, 2), 10.0)), **base)
        s2 = make_scenario(demand=(((0, 0, 2), 60.0), ((0, 1, 2), 20.0)), **base)
        p1 = load_plan(full_pattern_plan_doc(s1), s1)
        p2 = load_plan(full_pattern_plan_doc(s2), s2)
        m1 = compute_metrics(assign_flows(s1, p1), s1, p1)
        m2 = compute_metrics(assign_flows(s2, p2), s2, p2)
        assert m2.objective == pytest.approx(2 * m1.objective, rel=1e-9)
        assert m2.riding_minutes_total == pytest.approx(2 * m1.riding_minutes_total, rel=1e-9)
        assert m2.avg_riding_min == pytest.approx(m1.avg_riding_min, rel=1e-9)
        assert m2.avg_waiting_min == pytest.approx(m1.avg_waiting_min, rel=1e-9)

    @pytest.mark.parametrize("transfers", [False, True])
    def test_evaluator_conservation(self, transfers):
        scenario = load_scenario(random_toy_doc(31, transfers=transfers))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa = assign_flows(scenario, plan)
        res = conservation_residuals(fa, scenario, plan)
        for family, worst in res.items():
            assert worst <= 1e-6, (family, worst)

    def test_objective_recomposition_identity(self):
        scenario = load_scenario(random_toy_doc(41, transfers=True))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        recomposed = (m.riding_minutes_total
                      + scenario.gamma_wait * m.waiting_perceived_total
                      + scenario.gamma_transfer * m.transfer_perceived_total)
        assert m.objective == recomposed

    def test_solver_flows_pass_conservation(self):
        scenario = make_scenario()
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=120))
        plan, flows = decode_plan(model, result)
        res = conservation_residuals(flows, scenario, plan)
        for family, worst in res.items():
            assert worst <= 1e-6, (family, worst)


class TestAgainstSolver:
    @pytest.mark.parametrize("transfers", [False, True])
    def test_evaluator_matches_solver_on_decoded_plan(self, transfers):
        scenario = load_scenario(random_toy_doc(51, transfers=transfers))
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=300))
        assert result.status == "optimal"
        plan, _ = decode_plan(model, result)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        assert m.objective == pytest.approx(result.objective, rel=1e-6)

    def test_three_headways_split_by_inexact_shares(self):
        # a pool of 8 vehicles runs the three patterns at 5, 7 and 10
        # minutes: riders split 14/31, 10/31 and 7/31, none of them an exact
        # decimal, and the decoded split must price as the evaluator's own
        scenario = make_scenario(menu=(5.0, 7.0, 10.0), n_patterns=3, fleet_cap=8.0,
                                 symmetry=False)
        assert scenario.options.allow_transfers
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        plan, flows = decode_plan(model, result)
        assert sorted(pat.headway for pat in plan.cell(0, 0).patterns) == [5.0, 7.0, 10.0]
        m = compute_metrics(assign_flows(scenario, plan), scenario, plan)
        assert m.objective == pytest.approx(result.objective, rel=1e-9)
        for family, worst in conservation_residuals(flows, scenario, plan).items():
            assert worst <= 1e-9, (family, worst)

    @pytest.mark.parametrize("gamma_transfer, optimum", [(2.0, 835.0), (1.5, 780.0)],
                             ids=["transfer-weighs-more", "equal-weights"])
    def test_origin_and_transfer_boarders_share_a_cell(self, gamma_transfer, optimum):
        # Stops A B C D, headway 10 on every pattern: pattern 0 runs B..D
        # and back, pattern 1 passes D outbound and serves it after the
        # 8.5-minute turnback, pattern 2 shuttles A-B. Riders B -> D and
        # riders from A, who change at B, share the cell (D, B). Joining
        # pattern 1 halves the wait and costs half the riders the turnback:
        # worth it at a transfer wait weight of 2.0, not at the origin's 1.5.
        # The design model picks one combination for the whole cell, so
        # the evaluator must too.
        scenario = make_scenario(
            stops=("A", "B", "C", "D"), out_times=(3.0, 3.0, 3.0), in_times=(3.0, 3.0, 3.0),
            menu=(10.0,), n_patterns=3, turnback_time=8.5, transfer_time=1.0,
            demand=(((0, 0, 3), 20.0), ((0, 1, 3), 20.0)), fleet_cap=40.0,
            gamma_wait=1.5, gamma_transfer=gamma_transfer, symmetry=False)
        plan = load_plan(plan_doc({(0, 0): [((1, 2, 3, 4, 5, 6), 10.0), ((1, 2, 4, 5, 6), 10.0),
                                            ((0, 1, 6, 7), 10.0)]}, scenario), scenario)
        fa = assign_flows(scenario, plan)
        assert {k[3] for k in fa.entry} == {0, 1}
        assert {k[4] for k in fa.transfer} == {1}
        fixed = solve(fix_baseline(build_model(scenario), plan), SolverConfig(time_limit_s=60))
        assert fixed.status == "optimal"
        assert fixed.objective == pytest.approx(optimum, rel=1e-9)
        assert compute_metrics(fa, scenario, plan).objective == pytest.approx(optimum, rel=1e-9)

    def test_capacity_binds_when_enabled(self):
        # one vehicle of 10 riders every 10 minutes: 60 riders/hour per arc
        base = dict(
            stops=("A", "B"), out_times=(12.0,), in_times=(12.0,),
            menu=(10.0,), n_patterns=1, turnback_time=3.0,
            demand=(((0, 0, 1), 90.0),), fleet_cap=10.0, capacity=10.0,
            transfers=False,
        )
        s_free = make_scenario(**base)
        plan = load_plan(full_pattern_plan_doc(s_free), s_free)
        assert compute_metrics(assign_flows(s_free, plan), s_free, plan).objective > 0
        s_cap = make_scenario(enforce_capacity=True, **base)
        with pytest.raises(Exception, match="capacity"):
            assign_flows(s_cap, plan)

    def test_capacity_feasible_when_headway_tightened(self):
        base = dict(
            stops=("A", "B"), out_times=(12.0,), in_times=(12.0,),
            menu=(5.0, 10.0), n_patterns=1, turnback_time=3.0,
            demand=(((0, 0, 1), 90.0),), fleet_cap=10.0, capacity=10.0,
            transfers=False,
        )
        s_cap = make_scenario(enforce_capacity=True, **base)
        plan = load_plan(full_pattern_plan_doc(s_cap, headway_choice=0), s_cap)
        fa = assign_flows(s_cap, plan)
        m = compute_metrics(fa, s_cap, plan)
        # 12 vehicles/hour x 10 riders covers the 90 riders
        assert m.riders_total == pytest.approx(90.0)

    def test_insufficient_capacity_is_named(self):
        # one rider per vehicle cannot carry the full pattern's demand
        scenario = make_scenario(enforce_capacity=True, capacity=1.0, symmetry=False)
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        with pytest.raises(EvaluationError, match=r"^insufficient capacity to route demand "
                                                  r"on route 0 in period 0$"):
            assign_flows(scenario, plan)


class TestProgramKind:
    @pytest.mark.parametrize("capacity, gamma_transfer, integer", [
        (False, 1.5, True), (False, 2.0, True), (True, 1.5, True),
    ], ids=["capacity-off-equal-weights", "capacity-off-transfer-weighs-more", "capacity-on"])
    def test_integer_columns_only_where_a_cell_could_split(self, monkeypatch, capacity,
                                                           gamma_transfer, integer):
        # binary picks hold each cell to one combination in every regime
        # the program covers, with equal wait weights too
        seen = []
        solve_arrays = evaluator.solve_arrays

        def recording(c, a, row_lo, row_hi, integrality, *rest):
            seen.append(np.asarray(integrality))
            return solve_arrays(c, a, row_lo, row_hi, integrality, *rest)

        monkeypatch.setattr(evaluator, "solve_arrays", recording)
        scenario = make_scenario(enforce_capacity=capacity, capacity=25.0, symmetry=False,
                                 gamma_wait=1.5, gamma_transfer=gamma_transfer)
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        assign_flows(scenario, plan)
        assert len(seen) == 1
        assert bool(seen[0].any()) == integer
