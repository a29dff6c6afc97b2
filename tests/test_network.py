import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from transitopt import (
    DemandMatrix, RouteSpec, ScenarioError, load_scenario, mirror_stop,
    validate_scenario,
)

from _factories import make_scenario, scenario_doc


def simple_route(dwell=0.0, turnback=2.0):
    return RouteSpec(
        id=0,
        stop_names=("A", "B", "C"),
        outbound_times=(3.0, 4.0),
        inbound_times=(4.0, 3.0),
        vehicle_capacity=900.0,
        n_patterns=1,
        headway_menus=((5.0,),),
        dwell_saving=dwell,
        turnback_time=turnback,
    )


def walk_time(route, i, j):
    """Reference travel time: walk the loop from i to j one step at a time,
    crediting ``dwell_saving`` once per direction stop passed."""
    adj = route.adjacent_times()
    total = 0.0
    steps = 0
    k = i
    while k != j:
        total += adj[k]
        k = (k + 1) % route.n_dir
        steps += 1
    return total - route.dwell_saving * (steps - 1)


class TestMirror:
    def test_examples(self):
        assert mirror_stop(0, 10) == 9
        assert mirror_stop(9, 10) == 0
        assert mirror_stop(4, 86) == 81

    def test_out_of_range(self):
        with pytest.raises(ScenarioError):
            mirror_stop(10, 10)
        with pytest.raises(ScenarioError):
            mirror_stop(-1, 10)

    @given(st.integers(min_value=1, max_value=200), st.data())
    def test_involution_and_bijection(self, n, data):
        n_dir = 2 * n
        i = data.draw(st.integers(min_value=0, max_value=n_dir - 1))
        assert mirror_stop(mirror_stop(i, n_dir), n_dir) == i
        if i < n:
            assert n <= mirror_stop(i, n_dir) < n_dir


class TestTravelTimeMatrix:
    def test_adjacent_link(self):
        tmat = simple_route().travel_time_matrix()
        assert tmat[0][1] == pytest.approx(3.0)
        assert tmat[1][2] == pytest.approx(4.0)

    def test_skip_arc_with_dwell_saving(self):
        tmat = simple_route(dwell=0.5).travel_time_matrix()
        # two links, one intermediate stop skipped
        assert tmat[0][2] == pytest.approx(3.0 + 4.0 - 0.5)

    def test_closure_arc_is_turnback_only(self):
        tmat = simple_route(turnback=2.0).travel_time_matrix()
        assert tmat[5][0] == pytest.approx(2.0)
        assert tmat[2][3] == pytest.approx(2.0)

    def test_inbound_links_use_inbound_times(self):
        tmat = simple_route().travel_time_matrix()
        # inbound_times is indexed by the lower physical stop: [B->A, C->B]
        # stop 3 is physical C inbound, so 3->4 rides the C->B link
        assert tmat[3][4] == pytest.approx(3.0)
        assert tmat[4][5] == pytest.approx(4.0)

    def test_composition_rule(self):
        tmat = simple_route(dwell=0.7).travel_time_matrix()
        assert tmat[0][2] == pytest.approx(tmat[0][1] + tmat[1][2] - 0.7)

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_cycle_time_invariant_without_dwell_saving(self, n, data):
        rng = data.draw(st.randoms(use_true_random=False))
        out = tuple(round(rng.uniform(1, 9), 2) for _ in range(n - 1))
        inn = tuple(round(rng.uniform(1, 9), 2) for _ in range(n - 1))
        route = RouteSpec(
            id=0, stop_names=tuple(f"S{k}" for k in range(n)),
            outbound_times=out, inbound_times=inn, vehicle_capacity=1.0,
            n_patterns=1, headway_menus=((5.0,),), turnback_time=1.5,
        )
        full = sum(out) + sum(inn) + 2 * 1.5
        nd = 2 * n
        # any decomposition of the loop into arcs preserves the cycle time
        stops = sorted(rng.sample(range(nd), rng.randint(2, nd)))
        tmat = route.travel_time_matrix()
        cycle = sum(tmat[stops[k]][stops[(k + 1) % len(stops)]] for k in range(len(stops)))
        assert cycle == pytest.approx(full, rel=1e-12)

    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_matrix_agrees_with_scalar(self, n, data):
        times = st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=n - 1,
                         max_size=n - 1).map(tuple)
        drawn = RouteSpec(
            id=0, stop_names=tuple(f"S{k}" for k in range(n)),
            outbound_times=data.draw(times), inbound_times=data.draw(times),
            vehicle_capacity=1.0, n_patterns=1, headway_menus=((5.0,),),
            dwell_saving=data.draw(st.floats(min_value=0.0, max_value=1.0)),
            turnback_time=data.draw(st.floats(min_value=0.0, max_value=5.0)),
        )
        for route in (simple_route(dwell=0.3), drawn):
            mat = route.travel_time_matrix()
            # one shared table per route, which callers cannot mutate, of
            # unboxed doubles
            assert type(mat) is tuple
            assert all(type(row) is memoryview and row.readonly and row.format == "d"
                       for row in mat)
            assert mat is route.travel_time_matrix()
            for i in range(route.n_dir):
                for j in range(route.n_dir):
                    if i != j:
                        assert mat[i][j] == walk_time(route, i, j)


class TestLoadScenario:
    def test_round_trip_defaults(self):
        doc = scenario_doc()
        del doc["routes"][0]["dwell_saving"]
        del doc["routes"][0]["turnback_time"]
        s = load_scenario(doc)
        assert s.routes[0].dwell_saving == 0.0
        assert s.routes[0].turnback_time == 0.0
        assert s.routes[0].n_dir == 6

    def test_missing_demand_block(self):
        doc = scenario_doc()
        del doc["routes"][0]["demand"]
        with pytest.raises(ScenarioError, match="demand"):
            load_scenario(doc)

    def test_error_names_path(self):
        doc = scenario_doc()
        doc["routes"][0]["demand"][0] = {"t": 0, "o": 0, "riders": 3}
        with pytest.raises(ScenarioError, match=r"routes\[0\].demand\[0\]"):
            load_scenario(doc)

    @pytest.mark.parametrize("source", ["scenario.json", Path("scenario.json")],
                             ids=["str", "Path"])
    def test_path_is_not_a_document(self, source):
        # reading files is the CLI's part; a path is refused like any non-object
        with pytest.raises(ScenarioError) as err:
            load_scenario(source)
        assert str(err.value) == f"scenario: expected an object, got {type(source).__name__}"

    def test_unknown_option_is_named(self):
        doc = scenario_doc()
        doc["options"]["allow_transfer"] = False
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert str(err.value) == "options: unknown keys ['allow_transfer']"

    @pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e999", "1" + "0" * 400],
                             ids=["Infinity", "-Infinity", "NaN", "1e999", "int-1e400"])
    def test_non_finite_number_rejected(self, number):
        # Python's json reads all of these; none is a usable number
        text = json.dumps(scenario_doc(fleet_cap=7.0, vehicle_hours_cap=7.0))
        doc = json.loads(text.replace('"fleet_cap": 7.0', f'"fleet_cap": {number}'))
        with pytest.raises(ScenarioError, match="fleet_cap: must be a finite number"):
            load_scenario(doc)


class TestDemandTotals:
    def test_added_left_to_right(self):
        # ten riders of 0.1 into stop 0: left to right they total
        # 0.9999999999999999; the compensated sum() of Python 3.12+ gives 1.0
        dm = DemandMatrix({(0, o, 0): 0.1 for o in range(1, 11)})
        assert dm.total_into(0, 0) == 0.9999999999999999
        assert dm.total() == 0.9999999999999999


class TestValidateScenario:
    def test_clean_toy(self):
        assert validate_scenario(make_scenario()) == []

    def test_routes_required(self):
        doc = scenario_doc()
        doc["routes"] = []
        assert [str(v) for v in validate_scenario(load_scenario(doc))] == [
            "routes: at least one route is required"]

    def test_descending_menu(self):
        s = make_scenario(menu=(7.0, 5.0))
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert "ascending" in violations[0].rule
        assert "headway_menus" in violations[0].field

    def test_diagonal_demand(self):
        s = make_scenario(demand=(((0, 1, 1), 5.0),))
        violations = validate_scenario(s)
        assert len(violations) == 1
        assert "diagonal" in violations[0].rule

    def test_multiple_violations_all_reported(self):
        s = make_scenario(menu=(7.0, 5.0), demand=(((0, 1, 1), 5.0), ((0, 9, 1), 2.0)))
        rules = " | ".join(str(v) for v in validate_scenario(s))
        assert "ascending" in rules
        assert "diagonal" in rules
        assert "lie in" in rules

    def test_negative_time_rejected(self):
        # the loader reads any finite number; its sign is a value rule
        s = load_scenario(scenario_doc(out_times=(-3.0, 4.0)))
        assert [str(v) for v in validate_scenario(s)] == [
            "routes[0].link_run_times.outbound[0]: run times must be > 0"]

    def test_dwell_credit_below_zero(self):
        # a credit of 3 for skipping stop 1 outweighs the two 1-minute links to stop 2
        s = make_scenario(stops=tuple("ABC"), out_times=(1.0, 1.0), in_times=(1.0, 1.0),
                          dwell_saving=3.0, turnback_time=0.0, symmetry=False, n_patterns=1,
                          demand=(((0, 0, 2), 5.0),), fleet_cap=5.0)
        assert [str(v) for v in validate_scenario(s)] == [
            "routes[0].dwell_saving: makes allowed arc (0, 2) take -1 minutes; "
            "arc times must be >= 0"]

    def test_mask_shape(self):
        s = load_scenario(scenario_doc(allowed_arcs=[[False, True]] * 6))
        assert [str(v) for v in validate_scenario(s)] == ["routes[0].allowed_arcs: mask must be 6x6"]

    def test_full_pattern_needs_its_loop_arcs(self):
        mask = [[i != j for j in range(6)] for i in range(6)]
        mask[0][1] = mask[5][0] = False
        assert validate_scenario(make_scenario(allowed_arcs=mask, symmetry=False)) == []
        s = make_scenario(allowed_arcs=mask, symmetry=False, full_pattern=True)
        assert [str(v) for v in validate_scenario(s)] == [
            "routes[0].allowed_arcs: full pattern required but loop arcs "
            "[(0, 1), (5, 0)] are not allowed"]

    def test_allowed_arcs_diagonal(self):
        nd = 6
        mask = [[True] * nd for _ in range(nd)]
        s = make_scenario(allowed_arcs=mask)
        violations = validate_scenario(s)
        assert any("self-loop" in v.rule for v in violations)
