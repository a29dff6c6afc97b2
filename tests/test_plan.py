import pytest
from hypothesis import given, strategies as st

from transitopt import PatternPlan, PlanError, load_plan, loop_arcs

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

    def test_round_trip_through_dict(self):
        scenario = make_scenario()
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        again = load_plan(plan.to_dict(), scenario)
        assert again == plan


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
