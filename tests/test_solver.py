import math

import numpy as np
import pytest

from transitopt import (
    SolverConfig, assign_flows, build_model, compute_metrics, conservation_residuals,
    decode_plan, fix_baseline, load_plan, model_stats, solve, write_lp,
)
from transitopt.backend import DecodeError
from transitopt.model import MilpModel, row_block, var_block

from _blocks import var_ids
from _factories import (full_pattern_plan_doc, ladder_doc, make_scenario, random_toy_doc,
                        scenario_doc)
from transitopt import load_scenario


def assert_highs_round_trip(model, tmp_path):
    """Load ``write_lp(model)`` with HiGHS's own LP reader, which shares no
    code with the writer: row and column counts must equal the model's, and
    solving the text must reach the direct solve's optimum."""
    try:
        from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs
    except ImportError as exc:
        pytest.fail(f"HiGHS binding scipy.optimize._highspy._core is missing: {exc}")
    path = tmp_path / "model.lp"
    path.write_text(write_lp(model))
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("mip_rel_gap", 0.0)
    highs.setOptionValue("time_limit", 120.0)
    assert highs.readModel(str(path)) == HighsStatus.kOk
    lp = highs.getLp()
    assert lp.num_row_ == model_stats(model)["rows"]["total"]
    assert lp.num_col_ == model.n_vars
    direct = solve(model, SolverConfig(time_limit_s=120))
    highs.run()
    assert highs.getModelStatus() == HighsModelStatus.kOptimal
    assert highs.getInfo().objective_function_value == pytest.approx(direct.objective, rel=1e-6)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.rel_gap == 0.0
        assert cfg.time_limit_s > 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(time_limit_s=0)
        with pytest.raises(ValueError):
            SolverConfig(rel_gap=1.5)
        for bad in ({"time_limit_s": float("nan")}, {"rel_gap": float("nan")}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


class TestSolve:
    def test_optimal_status_and_recomputation(self):
        model = build_model(make_scenario())
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        assert result.ok
        c = np.zeros(model.n_vars)
        for vid, coef in zip(model.obj_ids.tolist(), model.obj_coefs.tolist()):
            c[vid] = coef
        assert result.objective == pytest.approx(float(c @ result.assignment), rel=1e-9)

    def test_infeasible_status(self):
        # fleet pool too small for any service, but demand must be served
        scenario = make_scenario(fleet_cap=0.5, vehicle_hours_cap=0.5)
        result = solve(build_model(scenario), SolverConfig(time_limit_s=60))
        assert result.status == "infeasible"
        assert not result.ok

    def test_same_model_solves_identically(self):
        scenario = make_scenario()
        r1 = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        r2 = solve(build_model(scenario), SolverConfig(time_limit_s=120))
        assert r1.objective == r2.objective


class TestExport:
    def test_byte_identical_across_builds(self):
        doc = scenario_doc()
        a = write_lp(build_model(load_scenario(doc)))
        b = write_lp(build_model(load_scenario(doc)))
        assert a == b

    def test_row_count_matches_stats(self, tmp_path):
        for seed in (1, 2, 3):
            assert_highs_round_trip(build_model(load_scenario(random_toy_doc(seed))), tmp_path)

    @pytest.mark.parametrize("kwargs", [
        {},
        {"enforce_capacity": True},
        {"period_hours": (1.0, 1.0),
         "demand": (((0, 0, 2), 30.0), ((0, 2, 0), 20.0), ((1, 1, 2), 10.0), ((1, 2, 1), 25.0))},
        {"integer_fleet": True},
    ], ids=["transfers-on", "capacity-on", "two-periods", "integer-fleet"])
    def test_round_trip_objective(self, kwargs, tmp_path):
        assert_highs_round_trip(build_model(make_scenario(**kwargs)), tmp_path)

    def test_round_trip_transfers_off(self, tmp_path):
        assert_highs_round_trip(build_model(make_scenario(transfers=False)), tmp_path)

    def test_round_trip_fixed_baseline(self, tmp_path):
        # fixed designs are written as `name = value` bounds
        scenario = make_scenario()
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        model = fix_baseline(build_model(scenario), plan)
        assert "\n x_t0_r0_p0_i0_j1 = 1\n" in write_lp(model)
        assert_highs_round_trip(model, tmp_path)

    def test_text_rules(self):
        variables = [
            var_block("y", "B", 0, (0, 0, 0, range(9))),
            var_block("cy", "C", 9, (0, 0, 0, [1, 2, 3]), lb=[2.5, 1.0, 0.5],
                      ub=[2.5, 4.0, math.inf]),
            var_block("n", "I", 12, (0, 0)),
        ]
        rows = [
            row_block("fleet_need", (0, 0), [([[12, 9, 10]], [-1.0, 0.2, 1 / 7])], "<=", 0.0),
            row_block("one_headway", (0, 0, [0, 1]), [([range(8)] * 2, 1.0), ([-1, 8], -1.5)],
                      ["=", ">="], [1.0, -3.5]),
            row_block("fleet_hours", (), [([11], 2.0)], "<=", 1e16),
        ]
        model = MilpModel(var_blocks=variables, row_blocks=rows, obj_ids=np.array([9, 0, 12]),
                          obj_coefs=np.array([3.0, 0.0, -0.5]), scenario=None)
        ys = [f"y_t0_r0_p0_h{k}" for k in range(9)]
        assert write_lp(model) == "\n".join([
            "\\ transitopt",
            "Minimize",
            " obj: 3 cy_t0_r0_p0_h1 - 0.5 n_r0_t0",
            "Subject To",
            " fleet_need_0_0: - 1 n_r0_t0 + 0.2 cy_t0_r0_p0_h1"
            " + 0.14285714285714285 cy_t0_r0_p0_h2 <= 0",
            " one_headway_0_0_0: 1 " + " + 1 ".join(ys[:8]) + " = 1",
            " one_headway_0_0_1: 1 " + " + 1 ".join(ys[:8]),
            "  - 1.5 y_t0_r0_p0_h8 >= -3.5",
            " fleet_hours: 2 cy_t0_r0_p0_h3 <= 1e+16",
            "Bounds",
            " cy_t0_r0_p0_h1 = 2.5",
            " 1 <= cy_t0_r0_p0_h2 <= 4",
            " cy_t0_r0_p0_h3 >= 0.5",
            "Binaries",
            " " + " ".join(ys[:8]),
            " " + ys[8],
            "Generals",
            " n_r0_t0",
            "End",
            "",
        ])

    def test_all_zero_objective_names_the_first_variable(self):
        model = MilpModel(
            var_blocks=[var_block("n", "C", 0, ([0, 1], 0))],
            row_blocks=[row_block("fleet_pool", (0,), [([1], 1.0)], "<=", 1.0)],
            obj_ids=np.array([1]), obj_coefs=np.array([0.0]), scenario=None)
        assert write_lp(model).splitlines()[:5] == [
            "\\ transitopt", "Minimize", " obj: 0 n_r0_t0", "Subject To",
            " fleet_pool_0: 1 n_r1_t0 <= 1"]

    def test_variable_naming_scheme(self):
        model = build_model(make_scenario())
        text = write_lp(model)
        assert "x_t0_r0_p0_i0_j1" in text
        assert "y_t0_r0_p0_h0" in text
        assert "n_r0_t0" in text


class TestLadderOptima:
    # Proven optima of the corridor rungs as first measured. A change of
    # formulation may change rows, never these values.
    @pytest.mark.parametrize("n, transfers, optimum", [
        (3, False, 761.025), (3, True, 761.025), (4, False, 1196.325), (4, True, 1196.325),
    ], ids=["n3-direct", "n3-transfers", "n4-direct", "n4-transfers"])
    def test_proven_optimum_pinned(self, n, transfers, optimum):
        model = build_model(load_scenario(ladder_doc(n, 7, transfers=transfers)))
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(optimum, rel=1e-9)


class TestDecode:
    def test_decoded_loops_visit_each_stop_once(self):
        model = build_model(make_scenario())
        result = solve(model, SolverConfig(time_limit_s=120))
        plan, flows = decode_plan(model, result)
        for r in range(1):
            cell = plan.cell(r, 0)
            for pat in cell.patterns:
                if pat.in_service and pat.stops:
                    assert len(set(pat.stops)) == len(pat.stops)

    def test_headway_ordering_enforced_in_solutions(self):
        for seed in (1, 2, 3):
            scenario = load_scenario(random_toy_doc(seed))
            model = build_model(scenario)
            result = solve(model, SolverConfig(time_limit_s=120))
            assert result.status == "optimal"
            plan, _ = decode_plan(model, result)
            idx = [pat.headway_index for pat in plan.cell(0, 0).patterns]
            for p1 in range(len(idx)):
                for p2 in range(p1 + 1, len(idx)):
                    if idx[p2] != 0:
                        assert idx[p1] != 0 and idx[p1] <= idx[p2]

    def test_ladder_decodes_as_one_loop_per_pattern(self):
        # Without the wrap row HiGHS returns pattern 0 of this instance as
        # two disjoint loops and decoding fails.
        scenario = load_scenario(ladder_doc(3, 7, transfers=False))
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=120))
        assert result.status == "optimal"
        plan, _ = decode_plan(model, result)
        evaluated = compute_metrics(assign_flows(scenario, plan), scenario, plan).objective
        assert abs(evaluated - result.objective) <= 1e-6 * max(1.0, abs(result.objective))

    def test_decode_refuses_non_optimal(self):
        from transitopt import SolveResult
        model = build_model(make_scenario())
        bad = SolveResult(status="infeasible", objective=None, assignment=None, wall_time_s=0.0)
        with pytest.raises(DecodeError):
            decode_plan(model, bad)

    @pytest.mark.parametrize("arcs", [
        {(0, 1), (1, 0), (2, 3), (3, 2)},
        {(0, 1), (0, 2), (1, 0), (2, 0)},
        {(0, 1)},
        {(0, 2), (2, 1), (1, 3), (3, 0)},
    ], ids=["two-loops", "two-out-arcs", "one-arc", "out-of-order"])
    def test_decode_refuses_anything_but_one_ascending_loop(self, arcs):
        # one pattern at headway 1 with the given arcs, every other variable 0
        from transitopt import SolveResult
        model = build_model(make_scenario(n_patterns=1, symmetry=False))
        x = np.zeros(model.n_vars)
        x[var_ids(model, "y")[(0, 0, 0, 1)]] = 1.0
        for key, vid in var_ids(model, "x").items():
            if key[3:] in arcs:
                x[vid] = 1.0
        with pytest.raises(DecodeError, match="not one loop"):
            decode_plan(model, SolveResult("optimal", 0.0, x, 0.0))

    def test_decode_refuses_patterns_out_of_model_order(self):
        # pattern 0 off, pattern 1 on the full loop: the headway_order rows
        # admit only the other order
        from transitopt import SolveResult
        model = build_model(make_scenario(symmetry=False))
        loop = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)}
        x = np.zeros(model.n_vars)
        x[[var_ids(model, "y")[key] for key in ((0, 0, 0, 0), (0, 0, 1, 1))]] = 1.0
        for key, vid in var_ids(model, "x").items():
            if key[2] == 1 and key[3:] in loop:
                x[vid] = 1.0
        with pytest.raises(DecodeError, match="model order"):
            decode_plan(model, SolveResult("optimal", 0.0, x, 0.0))

    def test_decoded_fleet_covers_requirement(self):
        from transitopt import fleet_requirement
        scenario = make_scenario()
        model = build_model(scenario)
        plan, _ = decode_plan(model, solve(model, SolverConfig(time_limit_s=120)))
        need = fleet_requirement(plan, scenario)
        for (r, t), v in need.items():
            assert plan.cell(r, t).fleet >= v - 1e-6


class TestTransferDecode:
    """Stops A B C D, direction stops 0-7 (mirror 7 - i), every pattern at
    10 minutes: pattern 0 runs A B C outbound, pattern 1 C D outbound and D C
    inbound, pattern 2 C A inbound. Riders A -> D change pattern at C
    outbound; riders B -> A alight at C outbound and board at C inbound;
    riders D -> A change pattern at C inbound. The last two meet in one
    transfer node (stop C, destination A)."""

    def solved(self):
        scenario = make_scenario(
            stops=("A", "B", "C", "D"), out_times=(3.0, 3.0, 3.0), in_times=(3.0, 3.0, 3.0),
            menu=(10.0,), n_patterns=3, fleet_cap=40.0, symmetry=False,
            demand=(((0, 0, 3), 10.0), ((0, 1, 0), 20.0), ((0, 3, 0), 30.0)))
        doc = {"routes": [{"route": 0, "periods": [{"period": 0, "patterns": [
            {"pattern": p, "headway": 10.0, "stops": stops}
            for p, stops in enumerate([[0, 1, 2], [2, 3, 4, 5], [5, 7]])]}]}]}
        plan = load_plan(doc, scenario)
        model = fix_baseline(build_model(scenario), plan)
        result = solve(model, SolverConfig(time_limit_s=60))
        assert result.status == "optimal"
        return scenario, plan, model, result

    def test_direction_and_pattern_changes_decode_exactly(self):
        scenario, plan, model, result = self.solved()
        _, flows = decode_plan(model, result)
        # (destination, alight stop, board stop, alight pattern) -> riders
        changes: dict[tuple, float] = {}
        for (t, r, d, i, j, p, c), v in flows.transfer.items():
            changes[(d, i, j, p)] = changes.get((d, i, j, p), 0.0) + v
        assert changes == pytest.approx({(3, 2, 2, 0): 10.0, (0, 2, 5, 0): 20.0,
                                         (0, 5, 5, 1): 30.0}, rel=1e-9)
        for family, worst in conservation_residuals(flows, scenario, plan).items():
            assert worst <= 1e-9, (family, worst)
        assert compute_metrics(flows, scenario, plan).objective == pytest.approx(
            result.objective, rel=1e-9)
        evaluated = compute_metrics(assign_flows(scenario, plan), scenario, plan)
        assert evaluated.objective == pytest.approx(result.objective, rel=1e-9)

    def test_node_whose_alighters_and_boarders_differ_is_refused(self):
        from transitopt import SolveResult
        _, _, model, result = self.solved()
        x = np.array(result.assignment, copy=True)
        # one more rider alights pattern 0 at C outbound for A than boards again
        alight = var_ids(model, "ft")[(0, 0, 0, 0, 2)]
        x[alight] += 1.0
        with pytest.raises(DecodeError, match="stop 2 label 0: .* riders alight to transfer"):
            decode_plan(model, SolveResult("optimal", result.objective, x, 0.0))
