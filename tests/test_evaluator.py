import math
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import transitopt.evaluator as evaluator
from transitopt import (
    EvaluationError, PlanError, SolverConfig, UnroutableDemandError, assign_flows, build_model,
    compute_metrics, conservation_residuals, decode_plan, enumerate_combinations, fix_baseline,
    fleet_requirement, load_plan, load_scenario, solve,
)
from transitopt.backend import _model_arrays, csr_rows, solve_arrays
from transitopt.evaluator import (InsufficientCapacityError, _assign_direct, _assign_lp,
                                  _check_routable)
from transitopt.model import SENSES, RowBlock
from transitopt.plan import (FlowAssignment, PatternPlan, RoutePeriodPlan, ServicePlan,
                             model_order)

from _blocks import record_programs, var_labels
from _factories import (add_route, full_pattern_plan_doc, make_scenario,
                        off_pattern_boardings, random_toy_doc, scenario_doc)
from transitopt.oracle import enumerate_plans


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


# ---------------------------------------------------------------------------
# Reference: the evaluator's program in its earlier, wide form
# ---------------------------------------------------------------------------

class MiniLp:
    """Tiny standalone program: costs and binary flags per variable, rows in
    CSR form with sense codes into ``SENSES``."""

    def __init__(self):
        self.costs: list[float] = []
        self.is_binary: list[bool] = []
        self.indptr: list[int] = [0]
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.sense: list[int] = []
        self.rhs: list[float] = []

    def var(self, cost: float = 0.0, binary: bool = False) -> int:
        self.costs.append(cost)
        self.is_binary.append(binary)
        return len(self.costs) - 1

    def add(self, coeffs, sense: str, rhs: float) -> None:
        self.cols += [col for col, _ in coeffs]
        self.vals += [val for _, val in coeffs]
        self.indptr.append(len(self.cols))
        self.sense.append(SENSES.index(sense))
        self.rhs.append(rhs)

    def solve(self):
        n = len(self.costs)
        rows = RowBlock("assignment", (), np.asarray(self.indptr, dtype=np.int32),
                        np.asarray(self.cols, dtype=np.int32),
                        np.asarray(self.vals, dtype=np.float64),
                        np.asarray(self.sense, dtype=np.int8),
                        np.asarray(self.rhs, dtype=np.float64))
        a, lo, hi = csr_rows([rows], n)
        integrality = np.asarray(self.is_binary, dtype=np.uint8)
        ub = np.where(integrality == 1, 1.0, np.inf)
        return solve_arrays(np.asarray(self.costs), a, lo, hi, integrality, np.zeros(n), ub,
                            SolverConfig())


def assign_lp_reference(scenario, plan, t, r, fa):
    """The program of route r in period t with a boarding copy per pattern
    tied by share equalities, exit flows with their rows and a transfer flow
    per (d, i, j, p, c), built row by row; fills the four families of
    ``fa``, each transfer flow counted once alighting p at i and once
    boarding again at j."""
    route = scenario.routes[r]
    cell = plan.cell(r, t)
    nd = route.n_dir
    menu = route.headway_menu(t)
    combos = enumerate_combinations(route.n_patterns, menu)
    assigned = tuple(pat.headway_index for pat in cell.patterns)
    avail = combos.consistent_with(assigned)
    served = [(p, pat) for p, pat in enumerate(cell.patterns) if pat.in_service]
    fwd_arcs = {p: list(zip(pat.stops, pat.stops[1:])) for p, pat in served}
    arc_in = {p: {v: (u, v) for u, v in arcs} for p, arcs in fwd_arcs.items()}
    arc_out = {p: {u: (u, v) for u, v in arcs} for p, arcs in fwd_arcs.items()}
    tmat = route.travel_time_matrix()
    dm = scenario.demand[r]
    opts = scenario.options
    capacity = opts.enforce_capacity
    gamma_w, gamma_x, t_x = scenario.gamma_wait, scenario.gamma_transfer, scenario.transfer_time

    dests = [d for d in range(route.n_physical) if dm.total_into(t, d) > 0.0]
    if not dests:
        return
    _check_routable(scenario, t, r, cell)
    choice = len(avail) > 1

    lp = MiniLp()
    z, w, a_, l_, b_, chi = {}, {}, {}, {}, {}, {}

    for d in dests:
        d_dir, d_mir = route.direction_stops_of(d)
        entry_stops = [i for i in range(nd) if i != d_dir and i != d_mir]
        big_m = dm.total_into(t, d)
        for i in entry_stops:
            for c in avail:
                if choice:
                    z[(d, i, c)] = lp.var(binary=True)
                w[(d, i, c)] = lp.var(cost=gamma_w * combos[c].perceived_headway / 2.0)
                for p in combos[c].active_patterns:
                    a_[(d, i, c, p)] = lp.var()
        for p, _ in served:
            for u, v in fwd_arcs[p]:
                if u == d_dir or u == d_mir:
                    continue
                l_[(d, p, u, v)] = lp.var(cost=tmat[u][v])
            for s in (d_dir, d_mir):
                b_[(d, s, p)] = lp.var()
        if opts.allow_transfers:
            for i in entry_stops:
                for j in (i, route.mirror(i)):
                    for p, _ in served:
                        for c in avail:
                            chi[(d, i, j, p, c)] = lp.var(
                                cost=gamma_x * (combos[c].perceived_headway / 2.0 + t_x))

        for o in range(route.n_physical):
            if o == d:
                continue
            o_dir, o_mir = route.direction_stops_of(o)
            coeffs = [(w[(d, o_dir, c)], 1.0) for c in avail]
            coeffs += [(w[(d, o_mir, c)], 1.0) for c in avail]
            lp.add(coeffs, "=", dm.riders(t, o, d))

        for i in entry_stops:
            if choice:
                lp.add([(z[(d, i, c)], 1.0) for c in avail], "<=", 1.0)
            for c in avail:
                combo = combos[c]
                if choice:
                    for p in combo.active_patterns:
                        lp.add([(a_[(d, i, c, p)], 1.0), (z[(d, i, c)], -big_m)], "<=", 0.0)
                coeffs = [(w[(d, i, c)], 1.0)]
                if opts.allow_transfers:
                    mi = route.mirror(i)
                    for p, _ in served:
                        coeffs.append((chi[(d, i, i, p, c)], 1.0))
                        coeffs.append((chi[(d, mi, i, p, c)], 1.0))
                coeffs += [(a_[(d, i, c, p)], -1.0) for p in combo.active_patterns]
                lp.add(coeffs, "=", 0.0)
                act = combo.active_patterns
                for k in range(len(act) - 1):
                    p1, p2 = act[k], act[k + 1]
                    t1 = menu[combo.headway_indices[p1] - 1]
                    t2 = menu[combo.headway_indices[p2] - 1]
                    lp.add([(a_[(d, i, c, p1)], t1), (a_[(d, i, c, p2)], -t2)], "=", 0.0)

        for p, _ in served:
            for s in entry_stops:
                coeffs = [(a_[(d, s, c, p)], 1.0)
                          for c in avail if p in combos[c].active_patterns]
                arc = arc_in[p].get(s)
                if arc and (d, p, arc[0], arc[1]) in l_:
                    coeffs.append((l_[(d, p, arc[0], arc[1])], 1.0))
                arc = arc_out[p].get(s)
                if arc:
                    coeffs.append((l_[(d, p, arc[0], arc[1])], -1.0))
                if opts.allow_transfers:
                    for j in (s, route.mirror(s)):
                        for c in avail:
                            coeffs.append((chi[(d, s, j, p, c)], -1.0))
                lp.add(coeffs, "=", 0.0)
            for s in (d_dir, d_mir):
                coeffs = [(b_[(d, s, p)], -1.0)]
                arc = arc_in[p].get(s)
                if arc and (d, p, arc[0], arc[1]) in l_:
                    coeffs.append((l_[(d, p, arc[0], arc[1])], 1.0))
                lp.add(coeffs, "=", 0.0)

        lp.add([(b_[(d, s, p)], 1.0) for p, _ in served for s in (d_dir, d_mir)],
               "=", big_m)

    if capacity:
        minutes = 60.0 * scenario.periods[t].duration_hours
        for p, pat in served:
            per_period = route.vehicle_capacity * minutes / pat.headway
            for u, v in fwd_arcs[p]:
                coeffs = [(l_[(d, p, u, v)], 1.0)
                          for d in dests if (d, p, u, v) in l_]
                if coeffs:
                    lp.add(coeffs, "<=", per_period)

    res = lp.solve()
    if res.status == "infeasible":
        if capacity:
            raise InsufficientCapacityError(
                f"insufficient capacity to route demand on route {r} in period {t}")
        raise EvaluationError(
            f"flow assignment infeasible on route {r} period {t} (internal inconsistency)")
    if res.status != "optimal":
        raise EvaluationError(f"flow assignment solve failed: {res.message}")
    x = res.assignment.tolist()

    for target, ids in ((fa.entry, w), (fa.inter_stop, l_)):
        for key, idx in ids.items():
            if x[idx] > 1e-9:
                target[(t, r, *key)] = x[idx]
    for (d, i, j, p, c), idx in chi.items():
        if x[idx] > 1e-9:
            for target, key in ((fa.alighting, (t, r, d, p, i)), (fa.reboarding, (t, r, d, j, c))):
                target[key] = target.get(key, 0.0) + x[idx]


def reference_flows(scenario, plan) -> FlowAssignment:
    fa = FlowAssignment()
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            assign_lp_reference(scenario, plan, t, r, fa)
    return fa


def lp_flows(scenario, plan) -> FlowAssignment:
    """``assign_flows`` through the program, whatever the options."""
    flows = ({}, {}, {}, {})
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            _check_routable(scenario, t, r, plan.cell(r, t))
            _assign_lp(scenario, plan, t, r, *flows)
    return FlowAssignment.from_flows(scenario, *flows)


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
        assert m.avg_riding_time_min == pytest.approx(12.0)
        assert m.avg_wait_time_min == pytest.approx(5.0)
        assert m.number_of_transfers == 0.0
        assert m.avg_journey_time_min == pytest.approx(17.0)

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
        # each pattern carries its frequency share of the 30 riders A -> B
        riding = {(p, i, j): v for (t, r, d, p, i, j), v in fa.inter_stop.items()}
        assert riding == pytest.approx({(0, 0, 1): 20.0, (1, 0, 1): 10.0})
        (key,) = fa.entry.keys()
        c = key[-1]
        from transitopt import enumerate_combinations
        combos = enumerate_combinations(2, (5.0, 10.0))
        assert combos[c].perceived_headway == pytest.approx(10.0 / 3.0)
        m = compute_metrics(fa, scenario, plan)
        assert m.avg_wait_time_min == pytest.approx(10.0 / 6.0)

    def test_zero_demand_all_zero(self):
        scenario = make_scenario(demand=())
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        assert m.objective == 0.0
        assert fa == FlowAssignment()

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
        assert m.number_of_transfers == pytest.approx(10.0)

    def test_unbalanced_transfer_node_is_an_evaluation_error(self, monkeypatch):
        # the same design, its alighters doubled before the flow split
        class Skewed(FlowAssignment):
            @classmethod
            def from_flows(cls, scenario, entry, inter_stop, alighting, reboarding):
                alighting = {key: 2.0 * v for key, v in alighting.items()}
                return super().from_flows(scenario, entry, inter_stop, alighting, reboarding)

        monkeypatch.setattr(evaluator, "FlowAssignment", Skewed)
        scenario = make_scenario(
            menu=(6.0, 8.0),
            demand=(((0, 0, 2), 10.0),),
            fleet_cap=12.0, turnback_time=2.0,
            transfers=True,
        )
        plan = load_plan(plan_doc(
            {(0, 0): [((0, 1, 4, 5), 6.0), ((1, 2, 3, 4), 8.0)]}, scenario), scenario)
        with pytest.raises(EvaluationError, match=r"^transfer node out of balance: period 0 "
                                                  r"route 0 stop 1 label 2: 20\.0"):
            assign_flows(scenario, plan)

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


def toy_doc(seed, *, transfers=False, capacity=None, dwell_saving=0.0):
    doc = random_toy_doc(seed, transfers=transfers, dwell_saving=dwell_saving)
    if capacity is not None:
        doc["options"]["enforce_capacity"] = True
        doc["routes"][0]["capacity"] = capacity
    return doc


def two_period_doc():
    return scenario_doc(symmetry=False, period_hours=(1.0, 2.0),
                        demand=(((0, 0, 2), 30.0), ((0, 2, 0), 20.0), ((1, 1, 2), 15.0),
                                ((1, 0, 1), 10.0), ((1, 2, 1), 25.0)))


def two_period_plans(scenario):
    """Route 0: the full loop at the slower headway, alone and with a short
    loop, and two short loops. Any other route runs its full loop alone at
    its slowest headway."""
    full = tuple(range(6))
    others = {(r, t): [(tuple(range(route.n_dir)), route.headway_menu(t)[-1])]
              + [None] * (route.n_patterns - 1)
              for r, route in enumerate(scenario.routes) if r > 0 for t in range(2)}
    return [load_plan(plan_doc({(0, t): patterns for t in range(2)} | others, scenario), scenario)
            for patterns in ([(full, 7.0), None], [(full, 7.0), ((0, 1, 4, 5), 5.0)],
                             [((0, 1, 2, 3), 5.0), ((2, 3, 4, 5), 7.0)])]


class TestAgainstWideProgram:
    """The program against ``assign_lp_reference``, the earlier program with
    a boarding copy per pattern, exit flows and a five-index transfer flow,
    on every regime the program covers: objectives equal to 1e-9 relative,
    or the same refusal."""

    CASES = {
        "direct": lambda: toy_doc(14),
        "transfers": lambda: toy_doc(10, transfers=True),
        "capacity": lambda: toy_doc(14, capacity=5.0),
        "transfers-capacity": lambda: toy_doc(10, transfers=True, capacity=6.0),
        "transfers-dwell": lambda: toy_doc(3, transfers=True, dwell_saving=0.5),
        "two-periods": two_period_doc,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_objective_or_refusal(self, case, monkeypatch):
        sizes = record_programs(monkeypatch)
        scenario = load_scenario(self.CASES[case]())
        plans = (two_period_plans(scenario) if case == "two-periods"
                 else enumerate_plans(scenario))
        priced = refused = 0
        for plan in plans:
            try:
                reference = reference_flows(scenario, plan)
            except EvaluationError as exc:
                with pytest.raises(type(exc)) as err:
                    lp_flows(scenario, plan)
                assert str(err.value) == str(exc)
                refused += not isinstance(exc, UnroutableDemandError)
                continue
            fa = lp_flows(scenario, plan)
            expected = compute_metrics(reference, scenario, plan).objective
            assert compute_metrics(fa, scenario, plan).objective == pytest.approx(
                expected, rel=1e-9)
            for family, worst in conservation_residuals(fa, scenario, plan).items():
                assert worst <= 1e-6, (family, worst)
            priced += 1
        assert priced >= 3
        picks = [s["binaries"] > 0 for s in sizes]
        assert True in picks and False in picks
        assert bool(refused) == case.endswith("capacity")


def two_route_doc(*, transfers=True):
    """``two_period_doc`` with a second route X-Y carrying X -> Y in period 0
    and Y -> X in period 1."""
    doc = two_period_doc()
    doc["options"]["allow_transfers"] = transfers
    return add_route(doc, stops=("X", "Y"), out_times=(6.0,), in_times=(6.0,),
                     menu=(4.0, 8.0), n_patterns=1, turnback_time=1.0,
                     demand=(((0, 0, 1), 30.0), ((1, 1, 0), 12.0)))


def two_route_refused_plan(scenario):
    """Route 0 runs its full loop in period 0 and only A-B-A in period 1, so
    B -> C and C -> B go unserved there; route 1 runs only Y-X in period 0,
    so X -> Y goes unserved, and its full loop in period 1."""
    return load_plan(plan_doc({(0, 0): [(tuple(range(6)), 7.0), None],
                               (0, 1): [((0, 1, 4, 5), 7.0), None],
                               (1, 0): [((2, 3), 8.0)], (1, 1): [((0, 1, 2, 3), 8.0)]},
                              scenario), scenario)


class TestOneRoutabilityCheck:
    """``_check_routable`` is the one place a design is refused for want of a
    path; ``assign_flows`` asks it for each period and route, in that order,
    right before the cell's routing."""

    @pytest.mark.parametrize("dwell_saving", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_closed_form_enters_every_pair_the_check_passes(self, seed, dwell_saving):
        scenario = load_scenario(random_toy_doc(seed, dwell_saving=dwell_saving))
        route = scenario.routes[0]
        pairs = {(o, d): riders for (_, o, d), riders in scenario.demand[0].items()
                 if riders > 0.0}
        passed = refused = 0
        for plan in enumerate_plans(scenario):
            try:
                _check_routable(scenario, 0, 0, plan.cell(0, 0))
            except UnroutableDemandError:
                refused += 1
                continue
            entry = {}
            _assign_direct(scenario, plan, 0, 0, entry, {})
            entered = {}
            for (_, _, d, i, _), riders in entry.items():
                pair = (route.physical_of(i), d)
                entered[pair] = entered.get(pair, 0.0) + riders
            assert entered == pairs
            passed += 1
        assert passed and refused

    @pytest.mark.parametrize("transfers, routing", [
        (False, assign_flows), (False, lp_flows), (True, assign_flows),
    ], ids=["closed-form", "program", "transfers"])
    def test_first_refused_pair_in_period_then_route_order(self, transfers, routing):
        # period 0 route 1 (X -> Y) comes before period 1 route 0 (B -> C)
        scenario = load_scenario(two_route_doc(transfers=transfers))
        with pytest.raises(UnroutableDemandError) as err:
            routing(scenario, two_route_refused_plan(scenario))
        assert (err.value.t, err.value.r, err.value.o, err.value.d) == (0, 1, 0, 1)

    @pytest.mark.parametrize("tight_route, error", [
        (1, UnroutableDemandError), (0, InsufficientCapacityError),
    ], ids=["same-cell", "earlier-cell"])
    def test_refused_pair_and_room_in_cell_order(self, tight_route, error):
        # one rider per vehicle: a cell without room and with an unserved
        # pair is refused for the pair, and a cell without room that comes
        # before it in the order is refused for its room
        doc = two_route_doc()
        doc["options"]["enforce_capacity"] = True
        doc["routes"][tight_route]["capacity"] = 1.0
        scenario = load_scenario(doc)
        with pytest.raises(error, match="route 0 in period 0$" if tight_route == 0
                           else "origin 0 -> destination 1 on route 1 in period 0"):
            assign_flows(scenario, two_route_refused_plan(scenario))


def refuses(call, *args) -> bool:
    """``call(*args)`` raises ``PlanError``; a refusal for want of a path or
    of room is not one."""
    try:
        call(*args)
    except PlanError:
        return True
    except (UnroutableDemandError, InsufficientCapacityError):
        pass
    return False


def one_route_plan(*patterns: PatternPlan) -> ServicePlan:
    """A one-route, one-period plan built in code, past ``load_plan``."""
    return ServicePlan(cells=((RoutePeriodPlan(patterns=patterns, fleet=0.0),),))


def broken(scenario, plan):
    """``plan`` with its first in-service pattern broken each way a plan
    built in code can break: a headway index past the menu, a headway that
    is not its menu entry, a stop at n_dir."""
    route = scenario.routes[0]
    menu = route.headway_menu(0)
    patterns = plan.cell(0, 0).patterns
    p, pat = next((p, pat) for p, pat in enumerate(patterns) if pat.in_service)
    for bad in (replace(pat, headway_index=len(menu) + 1),
                replace(pat, headway=menu[len(menu) - pat.headway_index]),
                replace(pat, stops=pat.stops + (route.n_dir,))):
        yield one_route_plan(*patterns[:p], bad, *patterns[p + 1:])


class TestOneFitRule:
    """``plan.check_cell`` decides whether a plan fits its scenario, for
    ``load_plan``, ``fix_baseline`` and ``assign_flows`` alike."""

    @pytest.mark.parametrize("dwell_saving", [0.0, 0.5])
    @pytest.mark.parametrize("transfers", [False, True], ids=["direct", "transfers"])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_evaluator_refuses_exactly_what_fix_baseline_does(self, seed, transfers,
                                                               dwell_saving):
        doc = random_toy_doc(seed, transfers=transfers, dwell_saving=dwell_saving)
        scenario = load_scenario(doc)
        model = build_model(scenario)
        # the same toy with arc (0, 2) masked off, which some designs ride
        nd = scenario.routes[0].n_dir
        doc["routes"][0]["allowed_arcs"] = [[i != j and (i, j) != (0, 2) for j in range(nd)]
                                            for i in range(nd)]
        masked = load_scenario(doc)
        masked_model = build_model(masked)
        kept = cut = 0
        for plan in enumerate_plans(scenario):
            assert not refuses(assign_flows, scenario, plan)
            assert not refuses(fix_baseline, model, plan)
            for bad in broken(scenario, plan):
                assert refuses(assign_flows, scenario, bad)
                assert refuses(fix_baseline, model, bad)
            rides = any((0, 2) in pat.arcs() for pat in plan.cell(0, 0).patterns)
            assert refuses(assign_flows, masked, plan) == rides
            assert refuses(fix_baseline, masked_model, plan) == rides
            cut += rides
            kept += not rides
        assert kept and cut

    @pytest.mark.parametrize("transfers", [False, True], ids=["direct", "transfers"])
    def test_headway_index_past_the_menu(self, transfers):
        scenario = make_scenario(symmetry=False, transfers=transfers)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        plan = one_route_plan(PatternPlan(cell.patterns[0].stops, 5.0, 9), *cell.patterns[1:])
        with pytest.raises(PlanError, match="not entry 9 of the menu"):
            assign_flows(scenario, plan)

    def test_arc_the_mask_forbids(self):
        mask = [[i != j and (i, j) != (0, 2) for j in range(6)] for i in range(6)]
        scenario = load_scenario(scenario_doc(symmetry=False, transfers=False,
                                              allowed_arcs=mask))
        plan = one_route_plan(PatternPlan(tuple(range(6)), 5.0, 1),
                              PatternPlan((0, 2, 3, 5), 7.0, 2))
        for refused in (lambda: assign_flows(scenario, plan),
                        lambda: fix_baseline(build_model(scenario), plan)):
            with pytest.raises(PlanError, match=r"arc \(0, 2\) not allowed on route 0"):
                refused()

    def test_headway_off_its_menu_entry(self):
        # waiting would be priced at entry 2 (7 min), the fleet at 5 min
        scenario = make_scenario(symmetry=False)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        plan = one_route_plan(PatternPlan(cell.patterns[0].stops, 5.0, 2), *cell.patterns[1:])
        for refused in (lambda: assign_flows(scenario, plan),
                        lambda: fix_baseline(build_model(scenario), plan)):
            with pytest.raises(PlanError, match=r"headway 5.0 is not entry 2 of the menu"):
                refused()


class TestOnePlanShapeRule:
    """``plan.check_plan`` refuses a plan built in code whose routes or
    periods are not the scenario's, or whose fleet is not a finite number
    of vehicles, for ``fix_baseline`` and ``assign_flows`` alike, as
    ``load_plan`` refuses such a document."""

    @staticmethod
    def refused(scenario, plan, message):
        for refused in (lambda: assign_flows(scenario, plan),
                        lambda: fix_baseline(build_model(scenario), plan)):
            with pytest.raises(PlanError, match=f"^{message}$"):
                refused()

    @pytest.mark.parametrize("routes, periods, message", [
        (0, 1, r"plan must describe exactly 1 route\(s\)"),
        (2, 1, r"plan must describe exactly 1 route\(s\)"),
        (1, 0, r"plan routes\[0\] must describe exactly 1 period\(s\)"),
        (1, 2, r"plan routes\[0\] must describe exactly 1 period\(s\)"),
    ], ids=["no-route", "extra-route", "no-period", "extra-period"])
    def test_routes_and_periods_are_the_scenarios(self, routes, periods, message):
        scenario = make_scenario(symmetry=False)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        self.refused(scenario, ServicePlan(cells=((cell,) * periods,) * routes), message)

    @pytest.mark.parametrize("fleet", [math.nan, math.inf, -math.inf, -3.0])
    def test_fleet_is_a_finite_number_of_vehicles(self, fleet):
        scenario = make_scenario(symmetry=False)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        self.refused(scenario, ServicePlan(cells=((replace(cell, fleet=fleet),),)),
                     rf"plan routes\[0\]\.periods\[0\]: fleet {fleet} is not a finite "
                     r"number of vehicles >= 0")

    def test_patterns_refused_before_the_fleet(self):
        scenario = make_scenario(symmetry=False)
        cell = load_plan(full_pattern_plan_doc(scenario), scenario).cell(0, 0)
        patterns = (PatternPlan(cell.patterns[0].stops, 5.0, 2), *cell.patterns[1:])
        plan = ServicePlan(cells=((RoutePeriodPlan(patterns=patterns, fleet=-3.0),),))
        self.refused(scenario, plan, r"headway 5.0 is not entry 2 of the menu .*")


class TestCrossPathEquivalence:
    """The closed-form path and the program path must agree exactly."""

    @staticmethod
    def priced_alike(scenario, plan) -> bool:
        """``assign_flows`` (the closed form: transfers and capacity off) and
        the program give objectives within 1e-9 relative, with conservation
        residuals of at most 1e-9 on both, or refuse the same pair; True when
        the plan is priced.

        Both routings are refused by the same ``_check_routable`` call, so
        the refusal branch compares that check with itself; that the closed
        form routes every pair the check passes is
        ``TestOneRoutabilityCheck``'s to show."""
        try:
            direct = assign_flows(scenario, plan)
        except UnroutableDemandError as exc:
            with pytest.raises(UnroutableDemandError) as err:
                lp_flows(scenario, plan)
            refused = err.value
            assert (refused.t, refused.r, refused.o, refused.d) == (exc.t, exc.r, exc.o, exc.d)
            return False
        program = lp_flows(scenario, plan)
        for fa in (direct, program):
            for family, worst in conservation_residuals(fa, scenario, plan).items():
                assert worst <= 1e-9, (family, worst)
        assert compute_metrics(direct, scenario, plan).objective == pytest.approx(
            compute_metrics(program, scenario, plan).objective, rel=1e-9)
        return True

    @pytest.mark.parametrize("dwell_saving", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_enumerated_designs(self, seed, dwell_saving):
        scenario = load_scenario(random_toy_doc(seed, dwell_saving=dwell_saving))
        assert not scenario.options.allow_transfers
        plans = list(islice(enumerate_plans(scenario), 40))
        assert plans
        for plan in plans:
            self.priced_alike(scenario, plan)

    @pytest.mark.parametrize("routes", [1, 2])
    def test_two_periods(self, routes):
        doc = two_period_doc()
        doc["options"]["allow_transfers"] = False
        if routes == 2:
            add_route(doc, stops=("X", "Y"), out_times=(6.0,), in_times=(6.0,),
                      menu=(4.0, 8.0), n_patterns=1, turnback_time=1.0,
                      demand=(((0, 0, 1), 30.0), ((1, 1, 0), 12.0)))
        scenario = load_scenario(doc)
        assert all(self.priced_alike(scenario, plan) for plan in two_period_plans(scenario))

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_direct_vs_lp_no_transfers(self, seed):
        scenario = load_scenario(random_toy_doc(seed, transfers=False))
        plan = load_plan(full_pattern_plan_doc(scenario), scenario)
        fa_direct = assign_flows(scenario, plan)
        m_direct = compute_metrics(fa_direct, scenario, plan)
        m_lp = compute_metrics(lp_flows(scenario, plan), scenario, plan)
        assert m_direct.objective == pytest.approx(m_lp.objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_direct_vs_lp_two_pattern_plan(self, seed):
        scenario = load_scenario(random_toy_doc(seed, transfers=False))
        route = scenario.routes[0]
        menu = route.headway_menu(0)
        short = tuple(sorted([0, 1] + [route.mirror(0), route.mirror(1)]))
        doc = plan_doc({(0, 0): [(tuple(range(route.n_dir)), menu[0]), (short, menu[1])]},
                       scenario)
        plan = load_plan(doc, scenario)
        fa_direct = assign_flows(scenario, plan)
        m1 = compute_metrics(fa_direct, scenario, plan)
        m2 = compute_metrics(lp_flows(scenario, plan), scenario, plan)
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
        assert m2.avg_riding_time_min == pytest.approx(m1.avg_riding_time_min, rel=1e-9)
        assert m2.avg_wait_time_min == pytest.approx(m1.avg_wait_time_min, rel=1e-9)

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
        plan, flows = decode_plan(model, result)
        fa = assign_flows(scenario, plan)
        m = compute_metrics(fa, scenario, plan)
        assert m.objective == pytest.approx(result.objective, rel=1e-6)
        for assignment in (flows, fa):
            assert not off_pattern_boardings(assignment, scenario, plan)

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
        evaluated = assign_flows(scenario, plan)
        m = compute_metrics(evaluated, scenario, plan)
        assert m.objective == pytest.approx(result.objective, rel=1e-9)
        for family, worst in conservation_residuals(flows, scenario, plan).items():
            assert worst <= 1e-9, (family, worst)
        for assignment in (flows, evaluated):
            assert not off_pattern_boardings(assignment, scenario, plan)

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
        assert {k[3] for k in fa.reboarding} == {1}
        model = fix_baseline(build_model(scenario), plan)
        fixed = solve(model, SolverConfig(time_limit_s=60))
        assert fixed.status == "optimal"
        assert fixed.objective == pytest.approx(optimum, rel=1e-9)
        for assignment in (decode_plan(model, fixed)[1], fa):
            assert not off_pattern_boardings(assignment, scenario, plan)
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
    @staticmethod
    def record(monkeypatch):
        """What the evaluator hands HiGHS: (integrality, row_lo, row_hi) per solve."""
        seen = []
        milp = evaluator.milp

        def recording(model):
            _, _, row_lo, row_hi, integrality, _, _ = _model_arrays(model)
            seen.append((integrality, row_lo, row_hi))
            return milp(model)

        monkeypatch.setattr(evaluator, "milp", recording)
        return seen

    @pytest.mark.parametrize("capacity, gamma_transfer", [
        (False, 1.5), (False, 2.0), (True, 1.5),
    ], ids=["capacity-off-equal-weights", "capacity-off-transfer-weighs-more", "capacity-on"])
    def test_every_regime_gets_integer_picks(self, monkeypatch, capacity, gamma_transfer):
        # binary picks hold each cell to one combination in every regime
        # the program covers, with equal wait weights too, once two patterns
        # in service give the cell three combinations to choose from
        seen = self.record(monkeypatch)
        scenario = make_scenario(enforce_capacity=capacity, capacity=25.0, symmetry=False,
                                 gamma_wait=1.5, gamma_transfer=gamma_transfer)
        plan = load_plan(plan_doc({(0, 0): [((0, 1, 2, 3, 4, 5), 5.0), ((0, 1, 4, 5), 7.0)]},
                                  scenario), scenario)
        assign_flows(scenario, plan)
        assert len(seen) == 1
        assert seen[0][0].any()

    @pytest.mark.parametrize("capacity", [False, True], ids=["capacity-off", "capacity-on"])
    def test_one_combination_is_an_lp(self, monkeypatch, capacity):
        # the full-pattern plan leaves the cell one combination, so there is
        # nothing to pick: no integer column, and the only one-sided rows are
        # the capacity rows, one per arc the loop rides (25 riders every
        # 5 minutes for an hour)
        seen = self.record(monkeypatch)
        scenario = make_scenario(enforce_capacity=capacity, capacity=25.0, symmetry=False)
        plan = load_plan(full_pattern_plan_doc(scenario, headway_choice=0), scenario)
        priced = compute_metrics(assign_flows(scenario, plan), scenario, plan).objective
        assert len(seen) == 1
        integrality, row_lo, row_hi = seen[0]
        assert not integrality.any()
        one_sided = row_hi[np.isneginf(row_lo)]
        assert one_sided.tolist() == [300.0] * (5 if capacity else 0)
        fixed = solve(fix_baseline(build_model(scenario), plan), SolverConfig(time_limit_s=60))
        assert fixed.status == "optimal"
        assert priced == pytest.approx(fixed.objective, rel=1e-9)

    def test_two_pattern_transfer_program_size(self, monkeypatch):
        # destinations C (40 riders in) and A (20), 6 direction stops, two
        # patterns in service: per destination 4 entry stops x 3
        # combinations of picks, entries and re-boardings, 2 x 4 alightings,
        # and 6 riding flows; no boarding copies, exit flows or
        # pattern-to-combination transfer flows, and no rows for them
        sizes = record_programs(monkeypatch)
        scenario = make_scenario(symmetry=False)
        plan = load_plan(plan_doc({(0, 0): [((0, 1, 2, 3, 4, 5), 5.0), ((0, 1, 4, 5), 7.0)]},
                                  scenario), scenario)
        assign_flows(scenario, plan)
        assert sizes == [{
            "columns": 100, "binaries": 24, "nonzeros": 261,
            "rows": {"one_combination": 8, "board_gate": 24, "demand_entry": 4,
                     "transfer_balance": 4, "onboard_balance": 16},
        }]


class TestProgramColumns:
    """The program's columns are design-model columns, read back as the
    decoder reads a solved model."""

    @staticmethod
    def two_pattern_transfers(monkeypatch):
        """The two-pattern transfer plan, in model order, and the programs
        the evaluator solves for it."""
        programs = []
        milp = evaluator.milp

        def recording(model):
            programs.append(model)
            return milp(model)

        monkeypatch.setattr(evaluator, "milp", recording)
        scenario = make_scenario(symmetry=False)
        plan = load_plan(plan_doc({(0, 0): [((0, 1, 2, 3, 4, 5), 5.0), ((0, 1, 4, 5), 7.0)]},
                                  scenario), scenario)
        assert model_order(plan.cell(0, 0).patterns) == plan.cell(0, 0).patterns
        return scenario, plan, programs

    def test_every_column_is_a_design_model_column(self, monkeypatch):
        scenario, plan, programs = self.two_pattern_transfers(monkeypatch)
        assign_flows(scenario, plan)
        assert len(programs) == 1
        labels = var_labels(programs[0])
        assert {family for family, _ in labels} == {"z", "fw", "fx", "ft", "fl"}
        assert len(set(labels)) == len(labels)
        assert set(labels) <= set(var_labels(build_model(scenario)))

    def test_negative_flow_is_refused(self, monkeypatch):
        # a flow below -FLOW_CLAMP_TOL is an EvaluationError, never dropped
        scenario, plan, programs = self.two_pattern_transfers(monkeypatch)
        recording = evaluator.milp

        def dipping(model):
            res = recording(model)
            x = res.assignment.copy()
            x[next(b.start for b in model.var_blocks if b.family == "fl")] = -1e-6
            return replace(res, assignment=x)

        monkeypatch.setattr(evaluator, "milp", dipping)
        with pytest.raises(EvaluationError, match=r"^flow assignment on route 0 period 0: "
                                                  r"flow \(0, 0, 0, 0, 1, 2\) is negative "
                                                  r"beyond tolerance: -1e-06$"):
            assign_flows(scenario, plan)
