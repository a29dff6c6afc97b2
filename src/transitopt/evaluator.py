"""Passenger assignment for a fixed service plan, independent of the MILP.

Given a frozen design (loops + headways), the cheapest flow routing is found
without touching the model builder: when transfers and capacity are both off
the problem separates per origin-destination pair and is solved in closed
form; otherwise one small program per route and period covers every
destination with demand. Where the plan leaves a cell more than one
available combination, binary picks hold each entry stop to one
combination for riders starting there and riders transferring there alike,
as the design model does; with one combination (the full-pattern plan, any
cell with one pattern in service) there is nothing to pick, and the
program is an LP. The program goes through ``milp``, which
assembles it with the backend's ``csr_rows`` and solves it with its
``solve_arrays``, the row assembler and HiGHS call the design model uses
(scipy's bundled HiGHS binding on numpy arrays; no scipy package is
imported).
Both price exactly the objective used by the design model: riding minutes
plus weighted perceived waiting plus weighted transfer penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import SolverConfig, SolveResult, csr_rows, solve_arrays
from .combos import CombinationSet, enumerate_combinations
from .model import SENSES, RowBlock
from .network import RouteSpec, Scenario
from .plan import FlowAssignment, RoutePeriodPlan, ServicePlan, vehicle_need

__all__ = [
    "Metrics",
    "EvaluationError",
    "UnroutableDemandError",
    "InsufficientCapacityError",
    "assign_flows",
    "compute_metrics",
    "fleet_requirement",
    "conservation_residuals",
]

_FLOW_EPS = 1e-9


class EvaluationError(RuntimeError):
    """Evaluator failure that is not a plain unroutable-demand case."""


class UnroutableDemandError(EvaluationError):
    """Demand that no combination of the planned patterns can carry."""

    def __init__(self, t: int, r: int, o: int, d: int):
        self.t, self.r, self.o, self.d = t, r, o, d
        super().__init__(
            f"no feasible path for demand origin {o} -> destination {d} "
            f"on route {r} in period {t} under the given plan")


class InsufficientCapacityError(EvaluationError):
    """Demand that the planned patterns could carry, but not within their
    vehicle capacity."""


def fleet_requirement(plan: ServicePlan, scenario: Scenario) -> dict[tuple[int, int], float]:
    """Vehicles needed per (route, period): cycle time over headway, summed
    across in-service patterns."""
    return {(r, t): vehicle_need(route, plan.cell(r, t).patterns)
            for r, route in enumerate(scenario.routes)
            for t in range(len(scenario.periods))}


# ---------------------------------------------------------------------------
# Pattern geometry helpers
# ---------------------------------------------------------------------------

@dataclass
class _PatternView:
    p: int
    stops: tuple[int, ...]
    headway: float
    pos: dict[int, int]
    fwd_arcs: list[tuple[int, int]]          # loop arcs with rising index
    arc_in: dict[int, tuple[int, int]]
    arc_out: dict[int, tuple[int, int]]


def _pattern_views(route: RouteSpec, cell: RoutePeriodPlan) -> list[_PatternView]:
    views = []
    for p, pat in enumerate(cell.patterns):
        if not pat.in_service:
            continue
        fwd = list(zip(pat.stops, pat.stops[1:]))
        views.append(_PatternView(
            p=p,
            stops=pat.stops,
            headway=pat.headway,
            pos={s: k for k, s in enumerate(pat.stops)},
            fwd_arcs=fwd,
            arc_in={v: (u, v) for u, v in fwd},
            arc_out={u: (u, v) for u, v in fwd},
        ))
    return views


def _ride_to_destination(view: _PatternView, tmat: list[list[float]],
                         i: int, targets: tuple[int, int]):
    """Ride pattern ``view`` from stop i to the first served destination stop.

    Returns (minutes, exit_stop, arcs) or None when the destination is not
    reachable before the loop wraps back to its first stop.
    """
    if i not in view.pos:
        return None
    cur = i
    minutes = 0.0
    arcs: list[tuple[int, int]] = []
    for nxt in view.stops[view.pos[i] + 1:]:
        minutes += tmat[cur][nxt]
        arcs.append((cur, nxt))
        cur = nxt
        if cur in targets:
            return minutes, cur, arcs
    return None


# ---------------------------------------------------------------------------
# Closed-form assignment (no transfers, no capacity)
# ---------------------------------------------------------------------------

def _assign_direct(scenario: Scenario, plan: ServicePlan, t: int, r: int,
                   fa: FlowAssignment) -> None:
    route = scenario.routes[r]
    cell = plan.cell(r, t)
    menu = route.headway_menu(t)
    combos = enumerate_combinations(route.n_patterns, menu)
    assigned = tuple(pat.headway_index for pat in cell.patterns)
    avail = combos.consistent_with(assigned)
    views = {v.p: v for v in _pattern_views(route, cell)}
    tmat = route.travel_time_matrix()
    gamma_w = scenario.gamma_wait

    for (tt, o, d), riders in sorted(scenario.demand[r].items()):
        if tt != t or riders <= 0.0:
            continue
        d_dir, d_mir = route.direction_stops_of(d)
        best = None
        for entry in route.direction_stops_of(o):
            for c in avail:
                combo = combos[c]
                rides = []
                ok = True
                for p in combo.active_patterns:
                    got = _ride_to_destination(views[p], tmat, entry, (d_dir, d_mir))
                    if got is None:
                        ok = False
                        break
                    rides.append((p, got))
                if not ok:
                    continue
                cost = gamma_w * combo.perceived_headway / 2.0
                for p, (minutes, _, _) in rides:
                    cost += combo.shares[p] * minutes
                if best is None or cost < best[0] - 1e-15:
                    best = (cost, entry, c, rides)
        if best is None:
            raise UnroutableDemandError(t, r, o, d)
        _, entry, c, rides = best
        combo = combos[c]
        fa.entry[(t, r, d, entry, c)] = fa.entry.get((t, r, d, entry, c), 0.0) + riders
        for p, (_, exit_stop, arcs) in rides:
            amt = riders * combo.shares[p]
            key = (t, r, d, entry, c, p)
            fa.boarding[key] = fa.boarding.get(key, 0.0) + amt
            for u, v in arcs:
                akey = (t, r, d, p, u, v)
                fa.inter_stop[akey] = fa.inter_stop.get(akey, 0.0) + amt
            ekey = (t, r, exit_stop, p)
            fa.exit[ekey] = fa.exit.get(ekey, 0.0) + amt


# ---------------------------------------------------------------------------
# Linear-program assignment (transfers and/or capacity)
# ---------------------------------------------------------------------------

class _MiniLp:
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

    def add(self, coeffs: list[tuple[int, float]], sense: str, rhs: float) -> None:
        self.cols += [col for col, _ in coeffs]
        self.vals += [val for _, val in coeffs]
        self.indptr.append(len(self.cols))
        self.sense.append(SENSES.index(sense))
        self.rhs.append(rhs)


def milp(lp: _MiniLp) -> SolveResult:
    """Assemble ``lp`` with the backend's ``csr_rows`` and solve it with its
    ``solve_arrays``: the evaluator's one solve call. The program's rows
    reach HiGHS as written, in the numpy CSR arrays the design model's rows
    become, with the same options and status mapping.

    Keep the name: ``perfbench/tracing.py`` wraps ``evaluator.milp`` to count
    and time the evaluator's programs, and ``--trace 1`` fails without it.
    """
    n = len(lp.costs)
    rows = RowBlock("assignment", (), np.asarray(lp.indptr, dtype=np.int32),
                    np.asarray(lp.cols, dtype=np.int32), np.asarray(lp.vals, dtype=np.float64),
                    np.asarray(lp.sense, dtype=np.int8), np.asarray(lp.rhs, dtype=np.float64))
    a, lo, hi = csr_rows([rows], n)
    integrality = np.asarray(lp.is_binary, dtype=np.uint8)
    ub = np.where(integrality == 1, 1.0, np.inf)
    return solve_arrays(np.asarray(lp.costs), a, lo, hi, integrality, np.zeros(n), ub,
                        SolverConfig())


def _check_routable(scenario: Scenario, t: int, r: int,
                    views: Sequence[_PatternView]) -> None:
    """Name the first pair with demand that no path serves: one ride without
    transfers; with transfers on, rides joined by changes of pattern or of
    direction."""
    route = scenario.routes[r]
    transfers = scenario.options.allow_transfers
    # rides[s]: stops reached on one ride boarded at s, any pattern.
    rides: list[set[int]] = [set() for _ in range(route.n_dir)]
    for view in views:
        for k, s in enumerate(view.stops):
            rides[s].update(view.stops[k + 1:])

    def reach(o: int) -> set[int]:
        """Direction stops that riders from physical stop o can get to."""
        starts = route.direction_stops_of(o)
        if not transfers:
            return rides[starts[0]] | rides[starts[1]]
        seen: set[int] = set()
        frontier = list(starts)
        while frontier:
            s = frontier.pop()
            if s in seen:
                continue
            seen.add(s)
            frontier.extend(rides[s] - seen)
            # A direction change only needs one available combination to
            # join, which exists as soon as any pattern is in service.
            if views:
                frontier.append(route.mirror(s))
        return seen

    # what an origin reaches does not depend on the destination
    reached: dict[int, set[int]] = {}
    for (tt, o, d), riders in sorted(scenario.demand[r].items()):
        if tt != t or riders <= 0.0:
            continue
        if o not in reached:
            reached[o] = reach(o)
        if reached[o].isdisjoint(route.direction_stops_of(d)):
            raise UnroutableDemandError(t, r, o, d)


def _assign_lp(scenario: Scenario, plan: ServicePlan, t: int, r: int,
               fa: FlowAssignment) -> None:
    """One program covering every destination with demand on route r in period t."""
    route = scenario.routes[r]
    cell = plan.cell(r, t)
    nd = route.n_dir
    menu = route.headway_menu(t)
    combos = enumerate_combinations(route.n_patterns, menu)
    assigned = tuple(pat.headway_index for pat in cell.patterns)
    avail = combos.consistent_with(assigned)
    views = _pattern_views(route, cell)
    tmat = route.travel_time_matrix()
    dm = scenario.demand[r]
    opts = scenario.options
    capacity = opts.enforce_capacity
    gamma_w, gamma_x, t_x = scenario.gamma_wait, scenario.gamma_transfer, scenario.transfer_time

    dests = [d for d in range(route.n_physical) if dm.total_into(t, d) > 0.0]
    if not dests:
        return
    _check_routable(scenario, t, r, views)
    # one available combination needs no pick: the program is then an LP
    choice = len(avail) > 1

    lp = _MiniLp()
    z: dict[tuple, int] = {}
    w: dict[tuple, int] = {}
    a_: dict[tuple, int] = {}
    l_: dict[tuple, int] = {}
    b_: dict[tuple, int] = {}
    chi: dict[tuple, int] = {}

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
        for view in views:
            for u, v in view.fwd_arcs:
                if u == d_dir or u == d_mir:
                    continue
                l_[(d, view.p, u, v)] = lp.var(cost=tmat[u][v])
            for s in (d_dir, d_mir):
                b_[(d, s, view.p)] = lp.var()
        if opts.allow_transfers:
            for i in entry_stops:
                for j in (i, route.mirror(i)):
                    for view in views:
                        for c in avail:
                            chi[(d, i, j, view.p, c)] = lp.var(
                                cost=gamma_x * (combos[c].perceived_headway / 2.0 + t_x))

        # demand coverage at both direction stops of each origin
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
                    for view in views:
                        coeffs.append((chi[(d, i, i, view.p, c)], 1.0))
                        coeffs.append((chi[(d, mi, i, view.p, c)], 1.0))
                coeffs += [(a_[(d, i, c, p)], -1.0) for p in combo.active_patterns]
                lp.add(coeffs, "=", 0.0)
                act = combo.active_patterns
                for k in range(len(act) - 1):
                    p1, p2 = act[k], act[k + 1]
                    t1 = menu[combo.headway_indices[p1] - 1]
                    t2 = menu[combo.headway_indices[p2] - 1]
                    lp.add([(a_[(d, i, c, p1)], t1), (a_[(d, i, c, p2)], -t2)], "=", 0.0)

        for view in views:
            for s in entry_stops:
                coeffs = [(a_[(d, s, c, view.p)], 1.0)
                          for c in avail if view.p in combos[c].active_patterns]
                arc = view.arc_in.get(s)
                if arc and (d, view.p, arc[0], arc[1]) in l_:
                    coeffs.append((l_[(d, view.p, arc[0], arc[1])], 1.0))
                arc = view.arc_out.get(s)
                if arc:
                    coeffs.append((l_[(d, view.p, arc[0], arc[1])], -1.0))
                if opts.allow_transfers:
                    for j in (s, route.mirror(s)):
                        for c in avail:
                            coeffs.append((chi[(d, s, j, view.p, c)], -1.0))
                lp.add(coeffs, "=", 0.0)
            for s in (d_dir, d_mir):
                coeffs = [(b_[(d, s, view.p)], -1.0)]
                arc = view.arc_in.get(s)
                if arc and (d, view.p, arc[0], arc[1]) in l_:
                    coeffs.append((l_[(d, view.p, arc[0], arc[1])], 1.0))
                lp.add(coeffs, "=", 0.0)

        lp.add([(b_[(d, s, view.p)], 1.0) for view in views for s in (d_dir, d_mir)],
               "=", big_m)

    if capacity:
        minutes = 60.0 * scenario.periods[t].duration_hours
        for view in views:
            per_period = route.vehicle_capacity * minutes / view.headway
            for u, v in view.fwd_arcs:
                coeffs = [(l_[(d, view.p, u, v)], 1.0)
                          for d in dests if (d, view.p, u, v) in l_]
                if coeffs:
                    lp.add(coeffs, "<=", per_period)

    res = milp(lp)
    if res.status == "infeasible":
        if capacity:
            raise InsufficientCapacityError(
                f"insufficient capacity to route demand on route {r} in period {t}")
        raise EvaluationError(
            f"flow assignment infeasible on route {r} period {t} (internal inconsistency)")
    if res.status != "optimal":
        raise EvaluationError(f"flow assignment solve failed: {res.message}")
    x = res.assignment.tolist()

    for target, ids in ((fa.entry, w), (fa.boarding, a_), (fa.inter_stop, l_),
                        (fa.transfer, chi)):
        for key, idx in ids.items():
            if x[idx] > _FLOW_EPS:
                target[(t, r, *key)] = x[idx]
    for (d, s, p), idx in b_.items():
        if x[idx] > _FLOW_EPS:
            fa.exit[(t, r, s, p)] = fa.exit.get((t, r, s, p), 0.0) + x[idx]


def assign_flows(scenario: Scenario, plan: ServicePlan) -> FlowAssignment:
    """Cheapest passenger routing for a fixed plan.

    Raises UnroutableDemandError naming the first origin-destination pair
    that cannot be served under the plan.
    """
    fa = FlowAssignment()
    opts = scenario.options
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            if opts.allow_transfers or opts.enforce_capacity:
                _assign_lp(scenario, plan, t, r, fa)
            else:
                _assign_direct(scenario, plan, t, r, fa)
    return fa


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Totals and per-rider averages of one assignment.

    avg_waiting_min is the unweighted perceived wait per rider (half the
    combination headway at entry); the waiting-cost weight appears only in
    the objective.
    """

    objective: float
    riding_minutes_total: float
    waiting_perceived_total: float
    waiting_weighted_total: float
    transfer_perceived_total: float
    transfer_weighted_total: float
    transfers_count: float
    riders_total: float
    avg_riding_min: float
    avg_waiting_min: float
    avg_journey_min: float
    fleet_by_route_period: dict[tuple[int, int], float]

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "riding_minutes_total": self.riding_minutes_total,
            "waiting_perceived_total": self.waiting_perceived_total,
            "waiting_weighted_total": self.waiting_weighted_total,
            "transfer_perceived_total": self.transfer_perceived_total,
            "transfer_weighted_total": self.transfer_weighted_total,
            "number_of_transfers": self.transfers_count,
            "riders_total": self.riders_total,
            "avg_riding_time_min": self.avg_riding_min,
            "avg_wait_time_min": self.avg_waiting_min,
            "avg_journey_time_min": self.avg_journey_min,
            "fleet_by_route_period": {
                f"route{r}_period{t}": v for (r, t), v in sorted(self.fleet_by_route_period.items())
            },
        }


def compute_metrics(fa: FlowAssignment, scenario: Scenario, plan: ServicePlan) -> Metrics:
    """Recompose the objective from its three terms and derive averages."""
    tmats = {r: route.travel_time_matrix() for r, route in enumerate(scenario.routes)}
    combo_sets: dict[tuple[int, int], CombinationSet] = {}
    for t in range(len(scenario.periods)):
        for r, route in enumerate(scenario.routes):
            combo_sets[(t, r)] = enumerate_combinations(route.n_patterns, route.headway_menu(t))

    riding = 0.0
    for (t, r, d, p, i, j), v in fa.inter_stop.items():
        riding += v * tmats[r][i][j]
    waiting = 0.0
    for (t, r, d, i, c), v in fa.entry.items():
        waiting += v * combo_sets[(t, r)][c].perceived_headway / 2.0
    transfer = 0.0
    for (t, r, d, i, j, p, c), v in fa.transfer.items():
        transfer += v * (combo_sets[(t, r)][c].perceived_headway / 2.0 + scenario.transfer_time)

    transfers_count = sum(fa.transfer.values())
    riders = scenario.total_riders()
    objective = (riding + scenario.gamma_wait * waiting + scenario.gamma_transfer * transfer)
    denom = riders if riders > 0 else math.inf
    return Metrics(
        objective=objective,
        riding_minutes_total=riding,
        waiting_perceived_total=waiting,
        waiting_weighted_total=scenario.gamma_wait * waiting,
        transfer_perceived_total=transfer,
        transfer_weighted_total=scenario.gamma_transfer * transfer,
        transfers_count=transfers_count,
        riders_total=riders,
        avg_riding_min=riding / denom if riders > 0 else 0.0,
        avg_waiting_min=waiting / denom if riders > 0 else 0.0,
        avg_journey_min=(riding + waiting + transfer) / denom if riders > 0 else 0.0,
        fleet_by_route_period=fleet_requirement(plan, scenario),
    )


# ---------------------------------------------------------------------------
# Conservation checks
# ---------------------------------------------------------------------------

def conservation_residuals(fa: FlowAssignment, scenario: Scenario,
                           plan: ServicePlan) -> dict[str, float]:
    """Worst violation of each balance family for an assignment.

    boarding_split (frequency shares) is normalized by the larger
    headway-scaled flow so the check is meaningful at any demand scale; the
    others are absolute riders.
    """
    res = {"demand_entry": 0.0, "demand_exit": 0.0, "entry_board_balance": 0.0,
           "onboard_balance": 0.0, "arrive_exit_balance": 0.0, "boarding_split": 0.0}

    combo_sets = {
        (t, r): enumerate_combinations(route.n_patterns, route.headway_menu(t))
        for t in range(len(scenario.periods))
        for r, route in enumerate(scenario.routes)
    }
    board_node: dict[tuple, dict[int, float]] = {}
    for (t, r, d, i, c, p), v in fa.boarding.items():
        board_node.setdefault((t, r, d, i, c), {})[p] = v
    for (t, r, d, i, c), by_p in board_node.items():
        combo = combo_sets[(t, r)][c]
        menu = combo_sets[(t, r)].menu
        act = combo.active_patterns
        for a in range(len(act)):
            for b in range(a + 1, len(act)):
                p1, p2 = act[a], act[b]
                v1 = menu[combo.headway_indices[p1] - 1] * by_p.get(p1, 0.0)
                v2 = menu[combo.headway_indices[p2] - 1] * by_p.get(p2, 0.0)
                scale = max(1.0, abs(v1), abs(v2))
                res["boarding_split"] = max(res["boarding_split"], abs(v1 - v2) / scale)

    entry_by_stop: dict[tuple, float] = {}
    for (t, r, d, i, c), v in fa.entry.items():
        key = (t, r, d, i)
        entry_by_stop[key] = entry_by_stop.get(key, 0.0) + v
    for r, route in enumerate(scenario.routes):
        for t in range(len(scenario.periods)):
            for o in range(route.n_physical):
                for d in range(route.n_physical):
                    if o == d:
                        continue
                    o_dir, o_mir = route.direction_stops_of(o)
                    got = entry_by_stop.get((t, r, d, o_dir), 0.0)
                    got += entry_by_stop.get((t, r, d, o_mir), 0.0)
                    diff = abs(got - scenario.demand[r].riders(t, o, d))
                    res["demand_entry"] = max(res["demand_entry"], diff)

    exit_by_stop: dict[tuple, float] = {}
    for (t, r, j, p), v in fa.exit.items():
        key = (t, r, j)
        exit_by_stop[key] = exit_by_stop.get(key, 0.0) + v
    for r, route in enumerate(scenario.routes):
        for t in range(len(scenario.periods)):
            for d in range(route.n_physical):
                d_dir, d_mir = route.direction_stops_of(d)
                got = exit_by_stop.get((t, r, d_dir), 0.0) + exit_by_stop.get((t, r, d_mir), 0.0)
                diff = abs(got - scenario.demand[r].total_into(t, d))
                res["demand_exit"] = max(res["demand_exit"], diff)

    # entries + transfers in == boardings, per combination node
    node: dict[tuple, float] = {}
    for (t, r, d, i, c), v in fa.entry.items():
        node[(t, r, d, i, c)] = node.get((t, r, d, i, c), 0.0) + v
    for (t, r, d, i, j, p, c), v in fa.transfer.items():
        node[(t, r, d, j, c)] = node.get((t, r, d, j, c), 0.0) + v
    for (t, r, d, i, c, p), v in fa.boarding.items():
        node[(t, r, d, i, c)] = node.get((t, r, d, i, c), 0.0) - v
    for v in node.values():
        res["entry_board_balance"] = max(res["entry_board_balance"], abs(v))

    # on-board balance per (t, r, d, p, stop), and exits at the destination
    onboard: dict[tuple, float] = {}
    for (t, r, d, i, c, p), v in fa.boarding.items():
        onboard[(t, r, d, p, i)] = onboard.get((t, r, d, p, i), 0.0) + v
    for (t, r, d, p, i, j), v in fa.inter_stop.items():
        onboard[(t, r, d, p, j)] = onboard.get((t, r, d, p, j), 0.0) + v
        onboard[(t, r, d, p, i)] = onboard.get((t, r, d, p, i), 0.0) - v
    for (t, r, d, i, j, p, c), v in fa.transfer.items():
        onboard[(t, r, d, p, i)] = onboard.get((t, r, d, p, i), 0.0) - v
    exit_pat: dict[tuple, float] = {}
    for (t, r, j, p), v in fa.exit.items():
        exit_pat[(t, r, j, p)] = exit_pat.get((t, r, j, p), 0.0) + v
    for (t, r, d, p, s), v in onboard.items():
        route = scenario.routes[r]
        d_dir, d_mir = route.direction_stops_of(d)
        if s == d_dir or s == d_mir:
            continue
        res["onboard_balance"] = max(res["onboard_balance"], abs(v))
    # arrivals at each destination stop must equal exits there
    arrive: dict[tuple, float] = {}
    for (t, r, d, p, i, j), v in fa.inter_stop.items():
        route = scenario.routes[r]
        d_dir, d_mir = route.direction_stops_of(d)
        if j == d_dir or j == d_mir:
            arrive[(t, r, j, p)] = arrive.get((t, r, j, p), 0.0) + v
    for key in set(arrive) | set(exit_pat):
        diff = abs(arrive.get(key, 0.0) - exit_pat.get(key, 0.0))
        res["arrive_exit_balance"] = max(res["arrive_exit_balance"], diff)

    return res
