from dataclasses import replace
from math import comb

import numpy as np
import pytest

from transitopt import (
    BuildError, PlanError, ServicePlan, SolverConfig, assign_flows, big_m_flow,
    build_model, compute_metrics, decode_plan, enumerate_combinations, fix_baseline,
    load_plan, model_stats, solve,
)
from transitopt.model import ROW_FAMILIES

from _factories import full_pattern_plan_doc, make_scenario, scenario_doc


def closed_form_variable_counts(n, n_patterns, menu_size, transfers, n_periods=1):
    """Independent enumeration of every family's domain, all arcs allowed."""
    s = 2 * n
    arcs = s * (s - 1)
    n_combos = (menu_size + 1) ** n_patterns - 1
    per_period = {
        "x": n_patterns * arcs,
        "y": n_patterns * (menu_size + 1),
        "cy": n_patterns * menu_size,
        "z": n_combos * n * (s - 2),
        "fw": n_combos * n * (s - 2),
        "fa": n_combos * n * (s - 2),
        "fl": n * n_patterns * (comb(s, 2) - (s - 1)),
        "fb": s * n_patterns,
        "ft": n * n_patterns * (s - 2) if transfers else 0,
        "fx": n_combos * n * (s - 2) if transfers else 0,
        "n": 1,
    }
    return {fam: v * n_periods for fam, v in per_period.items()}


class TestVariableCounts:
    def test_toy_counts_match_closed_form(self):
        scenario = make_scenario()  # 3 stops, 2 patterns, menu of 2, transfers on
        stats = model_stats(build_model(scenario))
        expected = closed_form_variable_counts(3, 2, 2, transfers=True)
        assert stats["variables"]["by_family"] == expected
        assert stats["variables"]["total"] == sum(expected.values())

    def test_transfers_off_removes_transfer_family(self):
        scenario = make_scenario(transfers=False)
        stats = model_stats(build_model(scenario))
        assert stats["variables"]["by_family"]["ft"] == 0
        assert stats["variables"]["by_family"]["fx"] == 0
        assert stats["rows"]["by_family"]["transfer_balance"] == 0
        expected = closed_form_variable_counts(3, 2, 2, transfers=False)
        assert stats["variables"]["by_family"] == expected

    def test_two_periods_double_the_route_families(self):
        scenario = make_scenario(period_hours=(1.0, 2.0), fleet_cap=20.0)
        stats = model_stats(build_model(scenario))
        expected = closed_form_variable_counts(3, 2, 2, transfers=True, n_periods=2)
        expected["n"] = 2
        assert stats["variables"]["by_family"] == expected

    def test_allowed_arcs_prune_variables(self):
        nd = 6
        # forward arcs plus all closure arcs (j > i allowed both ways here)
        mask = [[i != j for j in range(nd)] for i in range(nd)]
        mask[0][3] = False
        mask[2][5] = False
        scenario = make_scenario(allowed_arcs=mask, symmetry=False)
        stats = model_stats(build_model(scenario))
        base = closed_form_variable_counts(3, 2, 2, transfers=True)
        assert stats["variables"]["by_family"]["x"] == base["x"] - 2 * 2
        assert stats["variables"]["by_family"]["cy"] == base["cy"]  # one per (pattern, headway)
        # both dropped arcs are forward arcs: riding flows shrink per label
        # (0,3): labels excluding i=0 -> d in {1,2}; (2,5): d in {0,1}
        assert stats["variables"]["by_family"]["fl"] == base["fl"] - 2 * (2 + 2)

    def test_row_families_all_tagged(self):
        stats = model_stats(build_model(make_scenario()))
        assert set(stats["rows"]["by_family"]) == set(ROW_FAMILIES)
        assert stats["rows"]["total"] == sum(stats["rows"]["by_family"].values())


class TestRowCounts:
    def test_toy_row_counts_match_closed_form(self):
        n, patterns, m = 3, 2, 2
        s = 2 * n
        n_combos = (m + 1) ** patterns - 1
        actives = patterns * m * (m + 1) ** (patterns - 1)
        fl_per = comb(s, 2) - (s - 1)
        scenario = make_scenario(symmetry=False)
        rows = model_stats(build_model(scenario))["rows"]["by_family"]
        assert rows["loop_balance"] == patterns * s
        assert rows["loop_visit_cap"] == patterns * s
        assert rows["loop_wrap"] == patterns
        assert rows["ride_arc_gate"] == n * patterns * fl_per
        assert rows["pattern_symmetry"] == 0
        assert rows["one_headway"] == patterns
        assert rows["headway_order"] == m  # one pattern pair, prefixes 1..m
        assert rows["cycle_gate"] == patterns * m
        assert rows["cycle_split"] == patterns
        assert rows["fleet_need"] == 1
        assert rows["fleet_pool"] == 1
        assert rows["fleet_hours"] == 1
        assert rows["one_combination"] == n * (s - 2)
        assert rows["combination_menu"] == n * (s - 2) * actives
        assert rows["board_gate"] == n * (s - 2) * n_combos
        assert rows["demand_entry"] == n * (n - 1)
        assert rows["demand_exit"] == n
        assert rows["entry_board_balance"] == n * (s - 2) * n_combos
        assert rows["onboard_balance"] == n * patterns * (s - 2)
        assert rows["transfer_balance"] == n * (n - 1)
        assert rows["arrive_exit_balance"] == n * 2 * patterns

    def test_symmetry_rows(self):
        rows = model_stats(build_model(make_scenario(symmetry=True)))["rows"]["by_family"]
        # 30 arcs per pattern, 6 self-mirrored, remaining 24 pair up
        assert rows["pattern_symmetry"] == 2 * 12

    def test_capacity_rows_only_when_enabled(self):
        rows_off = model_stats(build_model(make_scenario()))["rows"]["by_family"]
        rows_on = model_stats(build_model(make_scenario(enforce_capacity=True)))["rows"]["by_family"]
        assert rows_off["arc_capacity"] == 0
        s = 6
        assert rows_on["arc_capacity"] == 2 * comb(s, 2)


class TestShareCoefficients:
    @pytest.mark.parametrize("transfers", [False, True], ids=["direct", "transfers"])
    @pytest.mark.parametrize("n_patterns", [2, 3])
    def test_onboard_rows_board_each_pattern_its_share(self, transfers, n_patterns):
        # riders go to destinations 0 and 2 only: the cells of destination 1
        # get the same terms as the others
        menu = (5.0, 7.0)
        model = build_model(make_scenario(transfers=transfers, menu=menu, n_patterns=n_patterns,
                                          symmetry=n_patterns == 2))
        combos = enumerate_combinations(n_patterns, menu)
        variables = model.variables
        rows = [row for row in model.rows if row.family == "onboard_balance"]
        assert {row.key[2] for row in rows} == {0, 1, 2}
        assert len(rows) == 3 * n_patterns * 4      # (d, p, j): 4 entry stops per label
        for row in rows:
            t, r, d, p, j = row.key
            boarding = [(variables[v].key, a) for v, a in row.coeffs
                        if variables[v].family == "fa"]
            # one term per combination in which p is active, in combination
            # order, with p's frequency share as its coefficient
            assert boarding == [((t, r, d, j, c), combo.shares[p])
                                for c, combo in enumerate(combos)
                                if p in combo.active_patterns]
        # no row other than the entry balance and the gate reads a boarding
        for row in model.rows:
            if row.family not in ("onboard_balance", "entry_board_balance", "board_gate"):
                assert all(variables[v].family != "fa" for v, _ in row.coeffs), row.family


class TestTransferNodes:
    @pytest.mark.parametrize("n_patterns", [2, 3])
    def test_alighters_and_boarders_meet_in_one_row_per_stop(self, n_patterns):
        # riders alight into one node per physical stop and destination and
        # board out of it: the node's row reads every pattern's alighting at
        # both direction stops and every combination's boarding at both
        menu = (5.0, 7.0)
        model = build_model(make_scenario(menu=menu, n_patterns=n_patterns,
                                          symmetry=n_patterns == 2))
        n_combos = len(enumerate_combinations(n_patterns, menu))
        variables = model.variables
        rows = [row for row in model.rows if row.family == "transfer_balance"]
        assert sorted(row.key[2:] for row in rows) == [(o, d) for o in range(3)
                                                       for d in range(3) if o != d]
        for row in rows:
            t, r, o, d = row.key
            stops = (o, 5 - o)
            assert row.sense == "=" and row.rhs == 0.0
            terms = sorted((variables[v].family, variables[v].key, a) for v, a in row.coeffs)
            assert terms == sorted(
                [("ft", (t, r, d, p, i), 1.0) for i in stops for p in range(n_patterns)]
                + [("fx", (t, r, d, i, c), -1.0) for i in stops for c in range(n_combos)])
        # each balance carries exactly its own alighting or re-boarding
        for row in model.rows:
            terms = [(variables[v].family, variables[v].key, a) for v, a in row.coeffs
                     if variables[v].family in ("ft", "fx")]
            if row.family == "onboard_balance":
                assert terms == [("ft", row.key, -1.0)]
            elif row.family == "entry_board_balance":
                assert terms == [("fx", row.key, 1.0)]
            else:
                assert row.family == "transfer_balance" or not terms, row.family


class TestStoredLayout:
    @pytest.mark.parametrize("transfers", [False, True], ids=["direct", "transfers"])
    def test_indices_are_int32(self, transfers):
        # the layout behind the city model's memory: every stored index is
        # 32-bit and a key shared by a whole row block takes no memory
        model = build_model(make_scenario(transfers=transfers))
        assert model.obj_ids.dtype == np.int32
        for b in model.var_blocks:
            assert b.keys.dtype == np.int32, b.family
        for b in model.row_blocks:
            assert b.indptr.dtype == b.cols.dtype == np.int32, b.family
            for key in b.keys:
                assert key.dtype == np.int32, b.family
        gate = next(b for b in model.row_blocks if b.family == "ride_arc_gate")
        t, r, d = gate.keys[:3]
        assert t.strides == r.strides == (0,)
        assert d.strides == (4,)


class TestBigM:
    def test_sum_of_demand_into_destination(self):
        scenario = make_scenario(demand=(((0, 0, 2), 30.0), ((0, 1, 2), 12.0)))
        assert big_m_flow(scenario, 0, 0, 2) == 42.0

    def test_zero_demand_gives_zero(self):
        scenario = make_scenario(demand=(((0, 0, 2), 30.0),))
        assert big_m_flow(scenario, 0, 0, 1) == 0.0


class TestBuildValidation:
    def test_invalid_scenario_rejected(self):
        scenario = make_scenario(menu=(7.0, 5.0))
        with pytest.raises(BuildError, match="ascending"):
            build_model(scenario)

    def test_zero_patterns_rejected(self):
        scenario = make_scenario(n_patterns=0)
        with pytest.raises(BuildError, match="n_patterns"):
            build_model(scenario)

    def test_full_pattern_needs_its_loop_arcs(self):
        # the closing arc of the full loop is not allowed
        mask = [[i != j for j in range(6)] for i in range(6)]
        mask[5][0] = False
        scenario = make_scenario(full_pattern=True, allowed_arcs=mask, symmetry=False)
        with pytest.raises(BuildError, match="full pattern required"):
            build_model(scenario)

    def test_zero_demand_builds_and_solves_to_zero(self):
        scenario = make_scenario(demand=())
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=60))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.0, abs=1e-9)
        plan, flows = decode_plan(model, result)
        assert not flows.entry and not flows.inter_stop

    def test_full_pattern_fixes_pattern_zero(self):
        scenario = make_scenario(full_pattern=True)
        model = build_model(scenario)
        result = solve(model, SolverConfig(time_limit_s=60))
        plan, _ = decode_plan(model, result)
        assert plan.cell(0, 0).patterns[0].stops == tuple(range(6))
        assert plan.cell(0, 0).patterns[0].headway is not None


class TestFixBaseline:
    def test_fixing_restricts_objective(self):
        scenario = make_scenario()
        model = build_model(scenario)
        free = solve(model, SolverConfig(time_limit_s=120))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fixed = solve(fix_baseline(model, plan), SolverConfig(time_limit_s=120))
        assert fixed.status == "optimal"
        assert fixed.objective >= free.objective - 1e-9

    def test_fixing_to_own_optimum_reproduces_objective(self):
        scenario = make_scenario()
        model = build_model(scenario)
        free = solve(model, SolverConfig(time_limit_s=120))
        plan, _ = decode_plan(model, free)
        refixed = solve(fix_baseline(model, plan), SolverConfig(time_limit_s=120))
        assert refixed.objective == pytest.approx(free.objective, rel=1e-9)

    def test_only_loops_in_stop_order_can_be_fixed(self):
        scenario = make_scenario(symmetry=False)
        model = build_model(scenario)
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = [2, 3, 4, 5, 0, 1]
        rotated = load_plan(doc, scenario)
        assert rotated.cell(0, 0).patterns[0].stops == (0, 1, 2, 3, 4, 5)
        result = solve(fix_baseline(model, rotated), SolverConfig(time_limit_s=60))
        evaluated = compute_metrics(assign_flows(scenario, rotated), scenario, rotated)
        assert result.objective == pytest.approx(evaluated.objective, rel=1e-9)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 2, 1, 3, 4, 5]
        with pytest.raises(PlanError, match="stop order"):
            load_plan(doc, scenario)
        # a hand-built plan meets the same rule when its pattern is made
        pattern = rotated.cell(0, 0).patterns[0]
        for stops in [(), (3,), (0, 2, 1, 3, 4, 5), (2, 3, 4, 5, 0, 1)]:
            with pytest.raises(PlanError, match="stop order"):
                replace(pattern, stops=stops)

    @pytest.mark.parametrize("full_pattern", [False, True], ids=["free", "full-pattern"])
    def test_off_first_plan_prices_as_the_evaluator_does(self, full_pattern):
        scenario = make_scenario(full_pattern=full_pattern)
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"].reverse()
        plan = load_plan(doc, scenario)
        assert not plan.cell(0, 0).patterns[0].in_service
        result = solve(fix_baseline(build_model(scenario), plan), SolverConfig(time_limit_s=60))
        evaluated = compute_metrics(assign_flows(scenario, plan), scenario, plan)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(evaluated.objective, rel=1e-9)

    def test_out_of_range_arc_refused(self):
        scenario = make_scenario(symmetry=False)
        model = build_model(scenario)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        stray = replace(cell.patterns[0], stops=(0, 1, 2, 3, 4, 99))
        plan = ServicePlan(cells=((replace(cell, patterns=(stray,) + cell.patterns[1:]),),))
        with pytest.raises(PlanError, match=r"arc \(4, 99\) not allowed"):
            fix_baseline(model, plan)

    def test_fixing_beyond_fleet_cap_is_infeasible(self):
        scenario = make_scenario(fleet_cap=12.0)
        model = build_model(scenario)
        doc = full_pattern_plan_doc(scenario, headway_choice=0)
        doc["routes"][0]["periods"][0]["fleet"] = 40.0  # exceeds the pool
        plan = load_plan(doc, scenario)
        result = solve(fix_baseline(model, plan), SolverConfig(time_limit_s=60))
        assert result.status == "infeasible"
