"""Passenger assignment for a fixed service plan, independent of the MILP.

Given a frozen design (loops + headways), the cheapest flow routing is found
without building the design model. The plan is first checked against its
scenario (``plan.check_plan``, the rule ``load_plan`` and
``model.fix_baseline`` apply too); then, per route and period, every pair
with demand must have a path (``_check_routable``, the one place a design is
refused for want of one). When transfers and capacity are both off, the
problem separates per origin-destination pair and is solved in closed form;
otherwise one small program per route and period covers every destination
with demand. The program is written from the plan's loops in the design
model's lean forms: one entering and one re-boarding flow per entry cell and
combination whose patterns all stop at the cell's entry stop, as the design
model's ``combination_served`` rows allow, with frequency shares that are
coefficients of each pattern's on-board balance at the stops it serves;
riding flows on the loops' forward arcs; one transfer node per destination
and physical stop; exits implied where a ride reaches the destination; and,
where a cell is offered more than one combination, binary picks that hold
each entry stop to one combination, as the design model does (with no such
cell, the program is an LP). The closed form rides only patterns that stop
at the entry stop too. It is a ``MilpModel`` from the
model's ``Builder``, its variables the design model's ``z``, ``fw``, ``fx``,
``ft`` and ``fl`` under the same keys, solved by ``backend.solve`` and read
back by ``backend.read_flows``. Both routings end in
``FlowAssignment.from_flows``, which checks the transfer nodes as for a
solved model, and both price exactly the design model's objective: riding
minutes plus weighted perceived waiting plus weighted transfer penalties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import SolveResult, read_flows, solve
from .combos import CombinationSet, enumerate_combinations
from .model import Builder, MilpModel, id_table
from .network import Scenario, _added
from .plan import (DecodeError, FlowAssignment, RoutePeriodPlan, ServicePlan, check_plan,
                   vehicle_need)

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
# Closed-form assignment (no transfers, no capacity)
# ---------------------------------------------------------------------------

def _ride_to_destination(stops: tuple[int, ...], tmat: list[list[float]],
                         i: int, targets: tuple[int, int]):
    """Ride the pattern serving ``stops`` from stop i to the first served
    destination stop.

    Returns (minutes, arcs) or None when the destination is not reachable
    before the loop wraps back to its first stop.
    """
    if i not in stops:
        return None
    cur = i
    minutes = 0.0
    arcs: list[tuple[int, int]] = []
    for nxt in stops[stops.index(i) + 1:]:
        minutes += tmat[cur][nxt]
        arcs.append((cur, nxt))
        cur = nxt
        if cur in targets:
            return minutes, arcs
    return None


def _assign_direct(scenario: Scenario, plan: ServicePlan, t: int, r: int,
                   entry: dict[tuple, float], inter_stop: dict[tuple, float],
                   *_: dict[tuple, float]) -> None:
    """Each pair's cheapest entry stop and combination on route r in period
    t, its entering and riding flows into the dicts ``_assign_lp`` fills; with
    transfers off there is no alighting or re-boarding flow."""
    route = scenario.routes[r]
    patterns = plan.cell(r, t).patterns
    menu = route.headway_menu(t)
    combos = enumerate_combinations(route.n_patterns, menu)
    assigned = tuple(pat.headway_index for pat in patterns)
    avail = combos.consistent_with(assigned)
    tmat = route.travel_time_matrix()
    gamma_w = scenario.gamma_wait

    for (tt, o, d), riders in sorted(scenario.demand[r].items()):
        if tt != t or riders <= 0.0:
            continue
        d_dir, d_mir = route.direction_stops_of(d)
        best = None
        for i in route.direction_stops_of(o):
            for c in avail:
                combo = combos[c]
                rides = []
                ok = True
                for p in combo.active_patterns:
                    got = _ride_to_destination(patterns[p].stops, tmat, i, (d_dir, d_mir))
                    if got is None:
                        ok = False
                        break
                    rides.append((p, got))
                if not ok:
                    continue
                cost = gamma_w * combo.perceived_headway / 2.0
                for p, (minutes, _) in rides:
                    cost += combo.shares[p] * minutes
                if best is None or cost < best[0] - 1e-15:
                    best = (cost, i, c, rides)
        # never None: _check_routable found a pattern riding o to d, and it runs alone in avail
        _, i, c, rides = best
        entry[(t, r, d, i, c)] = riders
        for p, (_, arcs) in rides:
            amt = riders * combos[c].shares[p]
            for u, v in arcs:
                key = (t, r, d, p, u, v)
                inter_stop[key] = inter_stop.get(key, 0.0) + amt


# ---------------------------------------------------------------------------
# Program assignment (transfers and/or capacity)
# ---------------------------------------------------------------------------

def milp(model: MilpModel) -> SolveResult:
    """Solve one of the evaluator's programs through ``backend.solve``, with
    the design model's options and status mapping.

    Keep the name: ``perfbench/tracing.py`` wraps ``evaluator.milp`` to count
    and time the evaluator's programs, and ``--trace 1`` fails without it.
    """
    return solve(model)


def _check_routable(scenario: Scenario, t: int, r: int, cell: RoutePeriodPlan) -> None:
    """Name the first pair with demand that no path serves: one ride without
    transfers; with transfers on, rides joined by changes of pattern or of
    direction. ``assign_flows`` asks before either routing, so this is the
    one place that refuses a design for want of a path."""
    route = scenario.routes[r]
    transfers = scenario.options.allow_transfers
    served = [pat.stops for pat in cell.patterns if pat.in_service]
    # rides[s]: stops reached on one ride boarded at s, any pattern.
    rides: list[set[int]] = [set() for _ in range(route.n_dir)]
    for stops in served:
        for k, s in enumerate(stops):
            rides[s].update(stops[k + 1:])

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
            # A direction change boards again at the mirror stop, which needs
            # a pattern that stops there: rides[] of any other stop is empty.
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
               *flows: dict[tuple, float]) -> None:
    """One program covering every destination with demand on route r in
    period t; its flows go into the four dicts ``FlowAssignment.from_flows``
    takes.

    Its variables are the design model's ``z``, ``fw``, ``fx``, ``ft`` and
    ``fl`` families, keyed as in ``VAR_KEYS`` with the plan's pattern
    indices. Each ``*id`` array maps a family's index tuple to variable
    ids, -1 where the variable does not exist; k indexes the destinations with
    demand, v the in-service patterns and a the available combinations, of
    which an entry stop offers those whose patterns all stop there."""
    route = scenario.routes[r]
    dm = scenario.demand[r]
    n, nd = route.n_physical, route.n_dir
    dests = [d for d in range(n) if dm.total_into(t, d) > 0.0]
    if not dests:
        return
    cell = plan.cell(r, t)
    in_service = [(p, pat) for p, pat in enumerate(cell.patterns) if pat.in_service]
    combos = enumerate_combinations(route.n_patterns, route.headway_menu(t))
    avail = combos.consistent_with(tuple(pat.headway_index for pat in cell.patterns))
    transfers = scenario.options.allow_transfers
    nk, nv, na = len(dests), len(in_service), len(avail)
    dest = np.array(dests)
    pv = np.array([p for p, _ in in_service])
    # entering[k, i]: stop i can take riders to dests[k] (neither of its stops)
    stop = np.arange(nd)
    entering = (stop != dest[:, None]) & (stop != nd - 1 - dest[:, None])
    # stops[v, i]: pattern v stops at i; stop i offers the combinations whose
    # patterns all stop there, so no rider boards a pattern where it skips
    stops = np.zeros((nv, nd), dtype=bool)
    for v, (_, pat) in enumerate(in_service):
        stops[v, list(pat.stops)] = True
    holds = np.array([combos[c].shares for c in avail])[:, pv] > 0.0          # [a, v]
    offered = ~(holds[None, :, :] & ~stops.T[:, None, :]).any(axis=2)        # [i, a]
    # cells (k, i) with each combination a offered there, and balance rows
    # (k, v, j) where pattern v stops
    cell_k, cell_i, cell_a = np.nonzero(entering[:, :, None] & offered[None, :, :])
    ob_k, ob_v, ob_j = np.nonzero(entering[:, None, :] & stops[None, :, :])
    cell_d, cell_c = dest[cell_k], np.array(avail)[cell_a]

    b = Builder()
    # a stop offered one combination needs no pick; with no stop offered
    # more, the program is an LP
    picking = offered.sum(axis=1) > 1
    pick = picking[cell_i]
    if pick.any():
        z_ids = b.add_vars("z", "B", (t, r, cell_i[pick], cell_d[pick], cell_c[pick]))
        zid = id_table((nk, nd, na), (cell_k[pick], cell_i[pick], cell_a[pick]), z_ids)
    half = np.array([combos[c].perceived_headway / 2.0 for c in avail])
    w_ids = b.add_vars("fw", "C", (t, r, cell_d, cell_i, cell_c))
    b.add_objective(w_ids, scenario.gamma_wait * half[cell_a])
    wid = id_table((nk, nd, na), (cell_k, cell_i, cell_a), w_ids)
    if transfers:
        x_ids = b.add_vars("fx", "C", (t, r, cell_d, cell_i, cell_c))
        b.add_objective(x_ids, scenario.gamma_transfer * (half + scenario.transfer_time)[cell_a])
        xid = id_table((nk, nd, na), (cell_k, cell_i, cell_a), x_ids)
        ft_ids = b.add_vars("ft", "C", (t, r, dest[ob_k], pv[ob_v], ob_j))
        ftid = id_table((nk, nv, nd), (ob_k, ob_v, ob_j), ft_ids)

    # riding flows on each pattern's forward loop arcs that leave an entry stop
    tmat = route.travel_time_matrix()
    arcs = [(v, u, w, tmat[u][w]) for v, (_, pat) in enumerate(in_service)
            for u, w in zip(pat.stops, pat.stops[1:])]
    arc_v, arc_u, arc_w = np.array([arc[:3] for arc in arcs]).T
    fl_k, fl_a = np.nonzero(entering[:, arc_u])
    fl_v, fl_u, fl_w = arc_v[fl_a], arc_u[fl_a], arc_w[fl_a]
    fl_ids = b.add_vars("fl", "C", (t, r, dest[fl_k], pv[fl_v], fl_u, fl_w))
    b.add_objective(fl_ids, np.array([arc[3] for arc in arcs])[fl_a])
    fl_out = id_table((nk, nv, nd), (fl_k, fl_v, fl_u), fl_ids)   # on the arc leaving a stop
    fl_in = id_table((nk, nv, nd), (fl_k, fl_v, fl_w), fl_ids)    # on the arc reaching a stop

    if pick.any():
        big_m = np.array([dm.total_into(t, d) for d in dests])
        one_k, one_i = np.nonzero(entering & picking)
        b.add_rows("one_combination", (), [(zid[one_k, one_i], 1.0)], "<=", 1.0)
        boarders = [(ids[pick], 1.0) for ids in ([w_ids, x_ids] if transfers else [w_ids])]
        b.add_rows("board_gate", (), boarders + [(z_ids, -big_m[cell_k[pick]])], "<=", 0.0)
    # entries at both direction stops of each origin cover its demand; an
    # origin no pattern stops at has none (``_check_routable`` refused it if
    # it had riders)
    served = stops.any(axis=0)
    dm_k, dm_o = np.nonzero((np.arange(n) != dest[:, None]) & (served[:n] | served[::-1][:n]))
    dm_mir = nd - 1 - dm_o
    b.add_rows("demand_entry", (), [(wid[dm_k, dm_o], 1.0), (wid[dm_k, dm_mir], 1.0)], "=",
               [dm.riders(t, o, dests[k]) for k, o in zip(dm_k.tolist(), dm_o.tolist())])
    # a cell's boarders split across the patterns of its combination by
    # frequency share; no balance at the destination's stops, where riders exit
    split = np.array([combos[c].shares for c in avail])[:, pv[ob_v]].T
    groups = [(np.where(split > 0.0, ids[ob_k, ob_j], -1), split)
              for ids in ([wid, xid] if transfers else [wid])]
    groups += [(fl_in[ob_k, ob_v, ob_j], 1.0), (fl_out[ob_k, ob_v, ob_j], -1.0)]
    if transfers:
        groups.append((ft_ids, -1.0))
        # riders alighting at either direction stop of o board again at either
        b.add_rows("transfer_balance", (),
                   [(ftid[dm_k, :, dm_o], 1.0), (ftid[dm_k, :, dm_mir], 1.0),
                    (xid[dm_k, dm_o], -1.0), (xid[dm_k, dm_mir], -1.0)], "=", 0.0)
    b.add_rows("onboard_balance", (), groups, "=", 0.0)
    capacity = scenario.options.enforce_capacity
    if capacity:
        minutes = 60.0 * scenario.periods[t].duration_hours
        per_period = np.array([route.vehicle_capacity * minutes / pat.headway
                               for _, pat in in_service])
        riding = fl_out[:, arc_v, arc_u].T              # [arc, k]
        ridden = (riding >= 0).any(axis=1)
        b.add_rows("arc_capacity", (), [(riding[ridden], 1.0)], "<=",
                   per_period[arc_v[ridden]])

    program = b.model(scenario)
    res = milp(program)
    if res.status == "infeasible":
        if capacity:
            raise InsufficientCapacityError(
                f"insufficient capacity to route demand on route {r} in period {t}")
        raise EvaluationError(
            f"flow assignment infeasible on route {r} period {t} (internal inconsistency)")
    if res.status != "optimal":
        raise EvaluationError(f"flow assignment solve failed: {res.message}")
    try:
        solved = read_flows(program, res.assignment)
    except DecodeError as exc:
        raise EvaluationError(f"flow assignment on route {r} period {t}: {exc}") from exc
    for target, got in zip(flows, solved):
        target.update(got)


def assign_flows(scenario: Scenario, plan: ServicePlan) -> FlowAssignment:
    """Cheapest passenger routing for a fixed plan.

    Raises PlanError for a plan that does not fit its scenario
    (``plan.check_plan``), UnroutableDemandError naming the first
    origin-destination pair that cannot be served under the plan,
    InsufficientCapacityError when the plan cannot carry its demand within
    vehicle capacity, and EvaluationError naming the period, route and stop
    when a solved program's transfer node does not balance.
    """
    check_plan(plan, scenario)
    opts = scenario.options
    assign = _assign_lp if opts.allow_transfers or opts.enforce_capacity else _assign_direct
    flows: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
    for t in range(len(scenario.periods)):
        for r in range(len(scenario.routes)):
            _check_routable(scenario, t, r, plan.cell(r, t))
            assign(scenario, plan, t, r, *flows)
    try:
        return FlowAssignment.from_flows(scenario, *flows)
    except DecodeError as exc:
        raise EvaluationError(f"transfer node out of balance: {exc}") from exc


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    """Totals and per-rider averages of one assignment, named as in
    ``metrics.json``.

    avg_wait_time_min is the unweighted perceived wait per rider (half the
    combination headway at entry); the waiting-cost weight appears only in
    the objective.
    """

    objective: float
    riding_minutes_total: float
    waiting_perceived_total: float
    waiting_weighted_total: float
    transfer_perceived_total: float
    transfer_weighted_total: float
    number_of_transfers: float
    riders_total: float
    avg_riding_time_min: float
    avg_wait_time_min: float
    avg_journey_time_min: float
    fleet_by_route_period: dict[tuple[int, int], float]

    def to_dict(self) -> dict:
        """The fields by name, each fleet keyed ``route{r}_period{t}``."""
        return {**vars(self), "fleet_by_route_period": {
            f"route{r}_period{t}": v for (r, t), v in sorted(self.fleet_by_route_period.items())}}


def _combo_sets(scenario: Scenario) -> dict[tuple[int, int], CombinationSet]:
    """Each (period, route) cell's headway combinations."""
    return {(t, r): enumerate_combinations(route.n_patterns, route.headway_menu(t))
            for t in range(len(scenario.periods)) for r, route in enumerate(scenario.routes)}


def compute_metrics(fa: FlowAssignment, scenario: Scenario, plan: ServicePlan) -> Metrics:
    """Recompose the objective from its three terms and derive averages."""
    tmats = {r: route.travel_time_matrix() for r, route in enumerate(scenario.routes)}
    combo_sets = _combo_sets(scenario)

    riding = 0.0
    for (t, r, d, p, i, j), v in fa.inter_stop.items():
        riding += v * tmats[r][i][j]
    waiting = 0.0
    for (t, r, d, i, c), v in fa.entry.items():
        waiting += v * combo_sets[(t, r)][c].perceived_headway / 2.0
    transfer = 0.0
    for (t, r, d, i, c), v in fa.reboarding.items():
        transfer += v * (combo_sets[(t, r)][c].perceived_headway / 2.0 + scenario.transfer_time)

    riders = scenario.total_riders()
    objective = (riding + scenario.gamma_wait * waiting + scenario.gamma_transfer * transfer)
    return Metrics(
        objective=objective,
        riding_minutes_total=riding,
        waiting_perceived_total=waiting,
        waiting_weighted_total=scenario.gamma_wait * waiting,
        transfer_perceived_total=transfer,
        transfer_weighted_total=scenario.gamma_transfer * transfer,
        number_of_transfers=_added(fa.reboarding.values()),
        riders_total=riders,
        avg_riding_time_min=riding / riders if riders > 0 else 0.0,
        avg_wait_time_min=waiting / riders if riders > 0 else 0.0,
        avg_journey_time_min=(riding + waiting + transfer) / riders if riders > 0 else 0.0,
        fleet_by_route_period=fleet_requirement(plan, scenario),
    )


# ---------------------------------------------------------------------------
# Conservation checks
# ---------------------------------------------------------------------------

def conservation_residuals(fa: FlowAssignment, scenario: Scenario,
                           plan: ServicePlan) -> dict[str, float]:
    """Worst violation, in riders, of each of the design model's balances
    on an assignment:

    demand_entry:       entries at both direction stops of o against the
                        riders from o to d
    onboard_balance:    at each stop but d's, pattern p's share of the
                        cell's entering and re-boarding riders plus its
                        riding flow in, against its riding flow out plus
                        its riders alighting to transfer
    transfer_balance:   riders alighting to transfer at either direction
                        stop of a physical stop against those boarding again
    destination_inflow: riding flow into d's two stops against the riders
                        into d

    ``plan`` is not read: the assignment and the scenario determine every
    balance. The argument stays so that existing three-argument calls keep
    working.
    """
    combo_sets = _combo_sets(scenario)
    stop_of = [route.physical_of for route in scenario.routes]
    demand: dict[tuple, float] = {}     # (t, r, o, d)
    onboard: dict[tuple, float] = {}    # (t, r, d, p, stop)
    node: dict[tuple, float] = {}       # (t, r, d, physical stop)
    inflow: dict[tuple, float] = {}     # (t, r, d)

    def add(table: dict[tuple, float], key: tuple, v: float) -> None:
        table[key] = table.get(key, 0.0) + v

    for r, dm in enumerate(scenario.demand):
        for (t, o, d), riders in dm.items():
            add(demand, (t, r, o, d), -riders)
            add(inflow, (t, r, d), -riders)
    for (t, r, d, i, c), v in fa.entry.items():
        add(demand, (t, r, stop_of[r](i), d), v)
    for boarders in (fa.entry, fa.reboarding):
        for (t, r, d, i, c), v in boarders.items():
            for p, share in enumerate(combo_sets[(t, r)][c].shares):
                if share > 0.0:
                    add(onboard, (t, r, d, p, i), share * v)
    for (t, r, d, p, i, j), v in fa.inter_stop.items():
        add(onboard, (t, r, d, p, i), -v)
        if stop_of[r](j) == d:
            add(inflow, (t, r, d), v)
        else:
            add(onboard, (t, r, d, p, j), v)
    for (t, r, d, p, i), v in fa.alighting.items():
        add(onboard, (t, r, d, p, i), -v)
        add(node, (t, r, d, stop_of[r](i)), v)
    for (t, r, d, i, c), v in fa.reboarding.items():
        add(node, (t, r, d, stop_of[r](i)), -v)

    tables = {"demand_entry": demand, "onboard_balance": onboard,
              "transfer_balance": node, "destination_inflow": inflow}
    return {family: max(map(abs, table.values()), default=0.0)
            for family, table in tables.items()}
