import pytest

from transitopt import (
    OracleSizeError, SolverConfig, assign_flows, build_model, certify,
    compute_metrics, enumerate_plans, load_plan, load_scenario, solve,
)
from transitopt import oracle
from transitopt.plan import model_order, vehicle_need

from _factories import full_pattern_plan_doc, make_scenario, random_toy_doc, scenario_doc


def tiny_scenario(**kw):
    defaults = dict(
        menu=(5.0,), n_patterns=1, demand=(((0, 0, 2), 10.0),),
        fleet_cap=8.0, symmetry=True, transfers=False,
    )
    defaults.update(kw)
    return make_scenario(**defaults)


class TestEnumeration:
    def test_single_pattern_single_headway_counts_subsets(self):
        scenario = tiny_scenario(fleet_cap=30.0)
        plans = list(enumerate_plans(scenario))
        # physical subsets of size >= 2 out of 3 stops: C(3,2) + C(3,3) = 4
        assert len(plans) == 4

    def test_full_pattern_leaves_only_headway_choice(self):
        scenario = tiny_scenario(menu=(5.0, 7.0), full_pattern=True, fleet_cap=30.0)
        plans = list(enumerate_plans(scenario))
        assert len(plans) == 2
        for plan in plans:
            assert plan.cell(0, 0).patterns[0].stops == tuple(range(6))

    def test_two_pattern_dedup_count(self):
        scenario = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, fleet_cap=100.0,
                                 vehicle_hours_cap=100.0)
        plans = list(enumerate_plans(scenario))
        # 4 subsets x 2 headways = 8 single-pattern choices; ordered pairs
        # with ties allowed: 8 + 8*9/2 = 44 (instead of the naive 8 + 64)
        assert len(plans) == 44
        for plan in plans:
            assert model_order(plan.cell(0, 0).patterns) == plan.cell(0, 0).patterns

    def test_full_pattern_two_pattern_count(self):
        scenario = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, full_pattern=True,
                                 fleet_cap=100.0, vehicle_hours_cap=100.0)
        plans = list(enumerate_plans(scenario))
        # pattern 0 is the full loop at h0; pattern 1 is off or any of the
        # 4 subsets at a headway no faster than h0: (1 + 8) + (1 + 4) = 14
        assert len(plans) == 14
        for plan in plans:
            cell = plan.cell(0, 0)
            assert model_order(cell.patterns) == cell.patterns
            assert cell.patterns[0].stops == tuple(range(6))

    def test_fleet_cap_skips_designs(self):
        loose = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, fleet_cap=100.0,
                              vehicle_hours_cap=100.0)
        # full cycle is 18 min; cap of 3 excludes every two-pattern design
        # (two patterns need >= 18/7 + 18/7 > 5 vehicles) and 5-min singles
        tight = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, fleet_cap=2.6,
                              vehicle_hours_cap=2.6)
        n_loose = len(list(enumerate_plans(loose)))
        n_tight = len(list(enumerate_plans(tight)))
        assert n_tight < n_loose
        for plan in enumerate_plans(tight):
            assert plan.cell(0, 0).fleet <= 2.6 + 1e-9

    def test_asymmetric_subsets_when_symmetry_off(self):
        scenario = tiny_scenario(symmetry=False, fleet_cap=30.0)
        plans = list(enumerate_plans(scenario))
        # direction-stop subsets of size >= 2 from 6 stops: 2^6 - 6 - 1 = 57
        assert len(plans) == 57

    def test_design_limit_bounds_the_cells_built(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_DESIGNS", 50)
        scenario = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, symmetry=False)
        # 57 subsets x 2 headways admit 114 + 114*115/2 = 6,669 designs;
        # building stops at the 51st
        with pytest.raises(OracleSizeError, match=r"^51\+ designs exceed"):
            enumerate_plans(scenario)

    @pytest.mark.parametrize("kwargs, count", [
        pytest.param({"fleet_cap": 4.0, "vehicle_hours_cap": 4.0}, 114, id="binding-pool"),
        pytest.param({"full_pattern": True, "fleet_cap": 7.0, "vehicle_hours_cap": 7.0}, 166,
                     id="full-pattern"),
    ])
    def test_cells_carry_their_vehicle_need(self, kwargs, count):
        # 57 subsets x 2 headways with dwell credits: a pool of 4 admits 114
        # of the 6,669 designs, and under the full pattern a pool of 7 admits
        # 166 of 173
        scenario = tiny_scenario(menu=(5.0, 7.0), n_patterns=2, symmetry=False,
                                 dwell_saving=0.5, **kwargs)
        plans = list(enumerate_plans(scenario))
        assert len(plans) == count
        for plan in plans:
            cell = plan.cell(0, 0)
            assert cell.fleet == vehicle_need(scenario.routes[0], cell.patterns)

    def test_deterministic(self):
        doc = scenario_doc(menu=(5.0, 7.0), n_patterns=2, fleet_cap=100.0)
        a = [p.to_dict() for p in enumerate_plans(load_scenario(doc))]
        b = [p.to_dict() for p in enumerate_plans(load_scenario(doc))]
        assert a == b

    def test_size_refusals(self):
        # the checks run on the call, before a plan is drawn
        with pytest.raises(OracleSizeError, match="stops"):
            enumerate_plans(make_scenario(
                stops=tuple("ABCDEFG"),
                out_times=(3.0,) * 6, in_times=(3.0,) * 6,
                demand=(((0, 0, 2), 5.0),)))
        with pytest.raises(OracleSizeError, match="menu"):
            enumerate_plans(make_scenario(menu=(5.0, 7.0, 9.0)))
        with pytest.raises(OracleSizeError, match="single-period"):
            enumerate_plans(make_scenario(period_hours=(1.0, 2.0)))
        with pytest.raises(OracleSizeError, match="patterns"):
            enumerate_plans(make_scenario(n_patterns=3))


class TestCertify:
    def test_match_on_toy(self):
        scenario = make_scenario()
        result = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        report = certify(scenario, result, cross_check="sample")
        assert report.verdict == "match"
        assert report.best_objective == pytest.approx(result.objective, rel=1e-6)
        assert report.enumerated_count == 44
        assert report.cross_checked >= 1
        assert report.best_plans

    def test_full_cross_check_tiny(self):
        scenario = tiny_scenario(menu=(5.0, 7.0), fleet_cap=30.0)
        result = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        report = certify(scenario, result, cross_check="all")
        assert report.verdict == "match"
        assert report.cross_checked == report.enumerated_count - report.unroutable_count + 1

    def test_tightened_milp_never_beats_oracle(self):
        tight = make_scenario(fleet_cap=18.0 / 7.0 + 0.01, vehicle_hours_cap=3.0)
        loose = make_scenario(fleet_cap=30.0, vehicle_hours_cap=30.0)
        tight_result = solve(build_model(tight), SolverConfig(time_limit_s=120))
        assert tight_result.status == "optimal"
        report = certify(loose, tight_result, cross_check="none")
        assert report.verdict == "mismatch"
        assert report.milp_objective >= report.best_objective - 1e-9

    def test_zero_demand_matches_at_zero(self):
        scenario = make_scenario(demand=())
        result = solve(build_model(scenario), SolverConfig(time_limit_s=60))
        report = certify(scenario, result, cross_check="none")
        assert report.verdict == "match"
        assert report.best_objective == pytest.approx(0.0, abs=1e-9)

    def test_oracle_lower_bounds_any_feasible_plan(self):
        scenario = make_scenario()
        result = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        report = certify(scenario, result, cross_check="none")
        for choice in (0, -1):
            plan = load_plan(full_pattern_plan_doc(scenario, headway_choice=choice), scenario)
            obj = compute_metrics(assign_flows(scenario, plan), scenario, plan).objective
            assert report.best_objective <= obj + 1e-9

    def test_unroutable_designs_are_counted_not_fatal(self):
        scenario = tiny_scenario(menu=(5.0,), fleet_cap=30.0,
                                 demand=(((0, 0, 2), 10.0), ((0, 1, 0), 4.0)))
        result = solve(build_model(scenario), SolverConfig(time_limit_s=60))
        report = certify(scenario, result, cross_check="none")
        assert report.verdict == "match"
        assert report.unroutable_count > 0
        assert report.enumerated_count == 4


class TestRandomizedCertification:
    @pytest.mark.parametrize("seed,kwargs", [
        pytest.param(101, {}, id="101"),
        pytest.param(202, {}, id="202"),
        pytest.param(10, {"dwell_saving": 0.5}, id="10-dwell"),
        pytest.param(11, {"dwell_saving": 0.5, "transfers": True}, id="11-dwell-transfers"),
        pytest.param(13, {"full_pattern": True, "dwell_saving": 0.5}, id="13-full-dwell"),
        pytest.param(11, {"full_pattern": True, "dwell_saving": 0.5, "transfers": True},
                     id="11-full-dwell-transfers"),
    ])
    def test_random_toys_match(self, seed, kwargs):
        scenario = load_scenario(random_toy_doc(seed, **kwargs))
        result = solve(build_model(scenario), SolverConfig(time_limit_s=300))
        assert result.status == "optimal"
        report = certify(scenario, result, cross_check="sample")
        assert report.verdict == "match", (
            f"seed {seed}: oracle {report.best_objective} vs solver {report.milp_objective}")
