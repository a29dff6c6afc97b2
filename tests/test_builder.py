import random
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from transitopt import (
    BuildError, PlanError, ServicePlan, SolverConfig, assign_flows, big_m_flow,
    build_model, compute_metrics, decode_plan, enumerate_combinations, fix_baseline,
    load_plan, load_scenario, model_stats, solve,
)
from transitopt.model import ROW_FAMILIES
from transitopt.plan import PatternPlan, RoutePeriodPlan, loop_arcs, model_order

from _blocks import rows_of, var_ids, var_labels
from _factories import (add_route, full_pattern_plan_doc, make_scenario, random_toy_doc,
                        scenario_doc)


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
        "fl": n * n_patterns * (comb(s, 2) - (s - 1)),
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
        fl_per = comb(s, 2) - (s - 1)
        scenario = make_scenario(symmetry=False)
        rows = model_stats(build_model(scenario))["rows"]["by_family"]
        assert rows["loop_balance"] == patterns * s
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
        assert rows["combination_menu"] == n * (s - 2) * patterns * m
        assert rows["board_gate"] == n * (s - 2) * n_combos
        assert rows["demand_entry"] == n * (n - 1)
        assert rows["onboard_balance"] == n * patterns * (s - 2)
        assert rows["transfer_balance"] == n * (n - 1)

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
        labels = var_labels(model)
        boarding = ("fw", "fx") if transfers else ("fw",)
        rows = list(rows_of(model, "onboard_balance"))
        assert {key[2] for key, *_ in rows} == {0, 1, 2}
        assert len(rows) == 3 * n_patterns * 4      # (d, p, j): 4 entry stops per label
        for (t, r, d, p, j), terms, _, _ in rows:
            # a cell's boarders are its entries and its transfer boardings:
            # one term of each per combination in which p is active, in
            # combination order, with p's frequency share as its coefficient
            for family in boarding:
                assert [(labels[v][1], a) for v, a in terms if labels[v][0] == family] == [
                    ((t, r, d, j, c), combo.shares[p])
                    for c, combo in enumerate(combos) if p in combo.active_patterns]
        # a boarding flow appears in exactly its cell's rows: its gate, the
        # on-board balances of the patterns its combination boards, and the
        # demand row (entries) or the node row (re-boardings) of its stop
        seen: dict[int, set] = {}
        for family in ROW_FAMILIES:
            for key, terms, _, _ in rows_of(model, family):
                for v, _ in terms:
                    seen.setdefault(v, set()).add((family, key))
        own_row = {"fw": "demand_entry", "fx": "transfer_balance"}
        for family in boarding:
            for (t, r, d, i, c), v in var_ids(model, family).items():
                assert seen[v] == (
                    {("board_gate", (t, r, d, i, c)), (own_row[family], (t, r, min(i, 5 - i), d))}
                    | {("onboard_balance", (t, r, d, p, i)) for p in combos[c].active_patterns})


class TestCombinationMenu:
    def test_one_row_per_cell_pattern_and_entry(self):
        # a cell picks at most one combination, so one row per pattern p and
        # menu entry h caps all the cell's picks that run p at h by y[p, h]
        menu = (5.0, 7.0)
        model = build_model(make_scenario(menu=menu, n_patterns=2))
        combos = enumerate_combinations(2, menu)
        labels = var_labels(model)
        rows = list(rows_of(model, "combination_menu"))
        cells = sorted({(i, d) for _, _, i, d, _ in var_ids(model, "z")})
        assert len(cells) == 12
        assert [key[2:] for key, *_ in rows] == [
            (i, d, p, h) for i, d in cells for p in range(2) for h in range(1, 3)]
        for (t, r, i, d, p, h), terms, sense, rhs in rows:
            assert (sense, rhs) == ("<=", 0.0)
            assert [(labels[v], a) for v, a in terms] == [
                (("z", (t, r, i, d, c)), 1.0)
                for c, combo in enumerate(combos) if combo.headway_indices[p] == h
            ] + [(("y", (t, r, p, h)), -1.0)]


def test_cycle_gate_bound_added_left_to_right():
    # the loop's six step minutes add to 22.299999999999997 left to right on
    # every interpreter; ``sum`` of floats compensates from Python 3.12: 22.3
    model = build_model(load_scenario(random_toy_doc(1)))
    assert {a for _, terms, _, _ in rows_of(model, "cycle_gate") for _, a in terms} == {
        1.0, -22.299999999999997}


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
        labels = var_labels(model)
        rows = list(rows_of(model, "transfer_balance"))
        assert sorted(key[2:] for key, *_ in rows) == [(o, d) for o in range(3)
                                                       for d in range(3) if o != d]
        for (t, r, o, d), terms, sense, rhs in rows:
            stops = (o, 5 - o)
            assert sense == "=" and rhs == 0.0
            assert sorted((*labels[v], a) for v, a in terms) == sorted(
                [("ft", (t, r, d, p, i), 1.0) for i in stops for p in range(n_patterns)]
                + [("fx", (t, r, d, i, c), -1.0) for i in stops for c in range(n_combos)])
        # each alighting leaves its own balance, each re-boarding passes its
        # own gate
        for family in ROW_FAMILIES:
            for key, terms, _, _ in rows_of(model, family):
                alight = [(*labels[v], a) for v, a in terms if labels[v][0] == "ft"]
                gated = [(*labels[v], a) for v, a in terms if labels[v][0] == "fx"]
                if family == "onboard_balance":
                    assert alight == [("ft", key, -1.0)]
                elif family == "board_gate":
                    assert gated == [("fx", key, 1.0)] and not alight
                else:
                    assert family == "transfer_balance" or not alight + gated, family


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


def pin_reference(model, plan):
    """The values ``fix_baseline`` pins, one variable at a time: a lambda per
    family called on each key. Keyed by each pinned block's first id."""
    scenario = model.scenario
    arcs, headway_index = {}, {}
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            for p, pat in enumerate(model_order(plan.cell(r, t).patterns)):
                arcs[(t, r, p)] = set(pat.arcs())
                headway_index[(t, r, p)] = pat.headway_index
    pinned = {
        "x": lambda key: 1.0 if (key[3], key[4]) in arcs[tuple(key[:3])] else 0.0,
        "y": lambda key: 1.0 if key[3] == headway_index[tuple(key[:3])] else 0.0,
        "n": lambda key: plan.cell(*key).fleet,
    }
    return {b.start: np.array([pinned[b.family](key) for key in b.keys.tolist()],
                              dtype=np.float64)
            for b in model.var_blocks if b.family in pinned}


def random_plan(scenario, rng):
    """A design per cell that ``fix_baseline`` accepts: random headway
    indices and loops on allowed arcs, listed in any order, and a random
    fleet (whole under ``integer_fleet``). Under ``require_full_pattern``
    pattern 0 runs the full loop and no other pattern runs faster."""
    opts = scenario.options
    cells = []
    for route in scenario.routes:
        loops = [stops for size in range(2, route.n_dir + 1)
                 for stops in combinations(range(route.n_dir), size)
                 if all(route.arc_allowed(u, v) for u, v in loop_arcs(stops))]
        row = []
        for t in range(len(scenario.periods)):
            menu = route.headway_menu(t)
            fastest = rng.randint(1, len(menu)) if opts.require_full_pattern else 1
            patterns = []
            for p in range(route.n_patterns):
                if p == 0 and opts.require_full_pattern:
                    h, stops = fastest, tuple(range(route.n_dir))
                else:
                    h = rng.choice([0] + list(range(fastest, len(menu) + 1)))
                    stops = rng.choice(loops) if h else ()
                patterns.append(PatternPlan(stops=stops, headway=menu[h - 1] if h else None,
                                            headway_index=h))
            if not opts.require_full_pattern:
                rng.shuffle(patterns)
            fleet = float(rng.randint(0, 20)) if opts.integer_fleet else rng.uniform(0.0, 20.0)
            row.append(RoutePeriodPlan(patterns=tuple(patterns), fleet=fleet))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells))


def two_route_two_period_doc(full_pattern=False):
    doc = scenario_doc(symmetry=False, period_hours=(1.0, 2.0), full_pattern=full_pattern,
                       demand=(((0, 0, 2), 30.0), ((1, 1, 2), 15.0), ((1, 2, 0), 25.0)))
    return add_route(doc, stops=("D", "E", "F", "G"), out_times=(2.0, 3.0, 4.0),
                     in_times=(2.5, 3.5, 4.5), menu=(4.0, 6.0, 9.0), n_patterns=3,
                     demand=(((0, 0, 3), 12.0), ((1, 3, 1), 8.0)))


class TestPinnedBounds:
    """``fix_baseline``'s array pins against ``pin_reference``: every pinned
    block's ``lb`` and ``ub`` equal the reference values, and every other
    block is shared with the model."""

    CASES = {
        "toy": lambda: random_toy_doc(3),
        "toy-transfers": lambda: random_toy_doc(5, transfers=True, dwell_saving=0.5),
        "two-periods": two_route_two_period_doc,
        "full-pattern": lambda: random_toy_doc(13, full_pattern=True),
        "full-pattern-two-periods": lambda: two_route_two_period_doc(full_pattern=True),
        "integer-fleet": lambda: scenario_doc(integer_fleet=True, n_patterns=3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bounds_as_one_variable_at_a_time(self, case):
        scenario = load_scenario(self.CASES[case]())
        model = build_model(scenario)
        rng = random.Random(case)
        plans = [load_plan(full_pattern_plan_doc(scenario, headway_choice=choice), scenario)
                 for choice in (0, -1)]
        plans += [random_plan(scenario, rng) for _ in range(25)]
        for plan in plans:
            reference = pin_reference(model, plan)
            pinned_blocks = 0
            for block, fixed in zip(model.var_blocks, fix_baseline(model, plan).var_blocks):
                values = reference.get(block.start)
                if values is None:
                    assert fixed is block
                    continue
                pinned_blocks += 1
                assert fixed.lb.dtype == fixed.ub.dtype == np.float64
                assert np.array_equal(fixed.lb, values) and np.array_equal(fixed.ub, values)
                assert fixed.lb is not fixed.ub
            # one x, y and n block per (period, route)
            assert pinned_blocks == 3 * len(scenario.periods) * len(scenario.routes)
