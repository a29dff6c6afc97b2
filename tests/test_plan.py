import math
import operator
from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from transitopt import PatternPlan, PlanError, ScenarioError, load_plan, loop_arcs
from transitopt.plan import check_cell, vehicle_need

from _factories import full_pattern_plan_doc, make_scenario


class TestLoopArcs:
    def test_closed_loop_includes_closure(self):
        assert loop_arcs((0, 2, 3, 5)) == ((0, 2), (2, 3), (3, 5), (5, 0))

    def test_empty_is_empty(self):
        assert loop_arcs(()) == ()

    def test_single_stop_rejected(self):
        with pytest.raises(PlanError):
            loop_arcs((3,))


class TestHeadwayIndex:
    @pytest.mark.parametrize("stops, headway, index", [
        ((0, 1, 2, 3), 5.0, 0), ((0, 1, 2, 3), 5.0, -1), ((), None, 2), ((), None, -1),
    ], ids=["in-service-0", "in-service-negative", "off-2", "off-negative"])
    def test_index_disagreeing_with_service_is_refused(self, stops, headway, index):
        # in service needs a menu position (>= 1), out of service needs 0
        with pytest.raises(PlanError, match=rf"service pattern has headway index {index}$"):
            PatternPlan(stops=stops, headway=headway, headway_index=index)


class TestLoadPlan:
    def test_fleet_defaults_to_requirement(self):
        scenario = make_scenario()
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        # full loop is 18 minutes; largest menu headway is 7
        assert plan.cell(0, 0).fleet == pytest.approx(18.0 / 7.0)

    def test_explicit_fleet_kept(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["fleet"] = 9.5
        assert load_plan(doc, scenario).cell(0, 0).fleet == 9.5

    def test_headway_not_on_menu(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][0]["headway"] = 6.5
        with pytest.raises(PlanError, match="not on the menu"):
            load_plan(doc, scenario)

    def test_out_of_service_with_stops(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][1]["stops"] = [0, 1]
        with pytest.raises(PlanError, match="out-of-service"):
            load_plan(doc, scenario)

    def test_in_service_without_stops_rejected(self):
        scenario = make_scenario(symmetry=False)
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][1].update(headway=5.0, stops=[])
        with pytest.raises(PlanError, match="must serve stops"):
            load_plan(doc, scenario)

    def test_repeated_stop_rejected(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 1, 1, 4, 5]
        with pytest.raises(PlanError, match="twice"):
            load_plan(doc, scenario)

    def test_disallowed_arc_rejected(self):
        nd = 6
        loop = {(k, (k + 1) % nd) for k in range(nd)}
        mask = [[(i, j) in loop for j in range(nd)] for i in range(nd)]
        scenario = make_scenario(allowed_arcs=mask, symmetry=False)
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 2, 3, 5]
        with pytest.raises(PlanError, match="not allowed"):
            load_plan(doc, scenario)

    def test_wrong_pattern_count(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"].pop()
        with pytest.raises(PlanError, match="pattern"):
            load_plan(doc, scenario)

    def test_patterns_refused_before_the_fleet(self):
        scenario = make_scenario()
        doc = full_pattern_plan_doc(scenario)
        doc["routes"][0]["periods"][0]["patterns"][0]["headway"] = 6.5
        doc["routes"][0]["periods"][0]["fleet"] = -3.0
        with pytest.raises(PlanError, match="not on the menu"):
            load_plan(doc, scenario)

    def test_round_trip_through_dict(self):
        scenario = make_scenario()
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        again = load_plan(plan.to_dict(), scenario)
        assert again == plan


class TestCheckCell:
    """The one rule for whether a cell's patterns fit their route, however
    the plan was made."""

    SCENARIO = make_scenario(symmetry=False)       # 6 direction stops, menu (5, 7)
    OFF = PatternPlan(stops=(), headway=None, headway_index=0)

    def check(self, *patterns):
        check_cell(self.SCENARIO.routes[0], 0, patterns)

    def test_fitting_cells_pass(self):
        self.check(PatternPlan(tuple(range(6)), 5.0, 1), self.OFF)
        self.check(PatternPlan((0, 2, 3, 5), 7.0, 2), PatternPlan((1, 4), 5.0, 1))
        self.check(self.OFF, PatternPlan((0, 5), 7.0 * (1 + 1e-10), 2))

    def test_pattern_count_is_the_routes(self):
        with pytest.raises(PlanError, match="runs 2 pattern\\(s\\) in period 0, not 1"):
            self.check(PatternPlan(tuple(range(6)), 5.0, 1))

    @pytest.mark.parametrize("headway, index", [
        (5.0, 3), (5.0, 2), (7.0, 1), (6.0, 1), (5.0 + 1e-6, 1), (math.nan, 1),
    ], ids=["past-menu", "slower-entry", "faster-entry", "between", "off-tolerance", "nan"])
    def test_headway_is_its_menu_entry(self, headway, index):
        with pytest.raises(PlanError, match=rf"is not entry {index} of the menu \[5.0, 7.0\] "
                                            r"on route 0 \(period 0, pattern 1\)"):
            self.check(self.OFF, PatternPlan((0, 5), headway, index))

    @pytest.mark.parametrize("stops, arc", [
        ((-1, 2), (-1, 2)), ((0, 6), (0, 6)), ((0, 1, 2, 3, 4, 5, 6), (5, 6)),
    ], ids=["negative", "n_dir", "past-full-loop"])
    def test_stops_lie_on_the_route(self, stops, arc):
        with pytest.raises(PlanError, match=rf"arc \({arc[0]}, {arc[1]}\) not allowed"):
            self.check(PatternPlan(stops, 5.0, 1), self.OFF)

    def test_load_plan_asks_it(self):
        doc = full_pattern_plan_doc(self.SCENARIO)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = [0, 1, 2, 3, 4, 5, 6]
        with pytest.raises(PlanError, match=r"arc \(5, 6\) not allowed on route 0"):
            load_plan(doc, self.SCENARIO)


class TestCycleTime:
    @pytest.mark.parametrize("stops", [(-1, 2), (0, 6)], ids=["negative", "n_dir"])
    def test_stops_off_the_route_raise(self, stops):
        # the time table's rows are sequences: -1 must not read the last one
        route = make_scenario().routes[0]
        assert route.n_dir == 6
        with pytest.raises(ScenarioError, match="out of range"):
            PatternPlan(stops, 5.0, 1).cycle_time(route)

    # Minutes whose left-to-right sum, 0.6000000000000001, is not their
    # correctly rounded sum, 0.6, which Python 3.12's compensated sum() gives.
    MINUTES = (0.1, 0.2, 0.3)
    LEFT_TO_RIGHT = reduce(operator.add, MINUTES)

    def test_minutes_tell_the_two_sums_apart(self):
        assert self.LEFT_TO_RIGHT != math.fsum(self.MINUTES)

    def test_cycle_time_adds_left_to_right(self):
        a, b, c = self.MINUTES
        route = SimpleNamespace(n_dir=3, travel_time_matrix=lambda: [[0.0, a, 0.0],
                                                                     [0.0, 0.0, b],
                                                                     [c, 0.0, 0.0]])
        assert PatternPlan((0, 1, 2), 5.0, 1).cycle_time(route) == self.LEFT_TO_RIGHT

    def test_vehicle_need_adds_left_to_right(self):
        # three two-stop loops, each a / b / c minutes out and 0 back, every 1 minute
        a, b, c = self.MINUTES
        route = SimpleNamespace(n_dir=3, travel_time_matrix=lambda: [[0.0, a, b],
                                                                     [0.0, 0.0, c],
                                                                     [0.0, 0.0, 0.0]])
        patterns = [PatternPlan(stops, 1.0, 1) for stops in ((0, 1), (0, 2), (1, 2))]
        assert vehicle_need(route, patterns) == self.LEFT_TO_RIGHT


def in_stop_order(stops: list[int]) -> bool:
    """Brute force: at least 2 distinct stops, and some rotation sorted."""
    return len(set(stops)) == len(stops) >= 2 and any(
        stops[k:] + stops[:k] == sorted(stops) for k in range(len(stops)))


# lists drawn at random rarely are rotations; mix some in
STOP_LISTS = st.one_of(
    st.lists(st.integers(0, 5), max_size=7),
    st.lists(st.integers(0, 5), min_size=2, max_size=6, unique=True).map(sorted).flatmap(
        lambda s: st.integers(0, len(s) - 1).map(lambda k: s[k:] + s[:k])),
)


class TestLoopOrder:
    SCENARIO = make_scenario(n_patterns=1, symmetry=False)

    @given(STOP_LISTS)
    def test_load_plan_accepts_exactly_rotations(self, stops):
        doc = full_pattern_plan_doc(self.SCENARIO)
        doc["routes"][0]["periods"][0]["patterns"][0]["stops"] = stops
        try:
            plan = load_plan(doc, self.SCENARIO)
        except PlanError:
            assert not in_stop_order(stops)
        else:
            assert in_stop_order(stops)
            assert plan.cell(0, 0).patterns[0].stops == tuple(sorted(stops))

    @given(STOP_LISTS)
    def test_pattern_plan_accepts_exactly_ascending(self, stops):
        ascending = len(stops) >= 2 and stops == sorted(set(stops))
        try:
            PatternPlan(stops=tuple(stops), headway=5.0, headway_index=1)
        except PlanError:
            assert not ascending
        else:
            assert ascending

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=7))
    def test_out_of_service_pattern_serves_nothing(self, stops):
        with pytest.raises(PlanError, match="out-of-service"):
            PatternPlan(stops=tuple(stops), headway=None, headway_index=0)
