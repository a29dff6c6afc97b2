"""Decoded service designs and passenger flow assignments.

A ServicePlan pins the design side of the problem: for every route, period,
and pattern the direction stops served (one vehicle loop through them in
ascending stop order) and the headway, plus the fleet allocated per route and
period. A FlowAssignment holds the four flow families of the design model
(entering, riding, alighting to transfer, re-boarding).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from .network import RouteSpec, Scenario, ScenarioError, _added, _int, _list, _num, _obj

__all__ = ["PatternPlan", "RoutePeriodPlan", "ServicePlan", "FlowAssignment",
           "PlanError", "DecodeError", "check_cell", "check_plan", "load_plan", "loop_arcs",
           "model_order", "vehicle_need"]

_HEADWAY_TOL = 1e-9
NODE_TOL = 1e-6     # relative mismatch of a transfer node's alighters and boarders


class PlanError(ValueError):
    """Raised for plans that do not fit their scenario."""


class DecodeError(ValueError):
    """Solution violates a decoded-plan invariant (never silently repaired)."""


def loop_arcs(stops: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Arcs of the closed vehicle loop through ``stops`` in listed order,
    including the closure arc back to the first stop."""
    if len(stops) == 0:
        return ()
    if len(stops) == 1:
        raise PlanError(f"a loop needs at least 2 stops, got {list(stops)}")
    return tuple((stops[k], stops[(k + 1) % len(stops)]) for k in range(len(stops)))


@dataclass(frozen=True)
class PatternPlan:
    """One pattern: served direction stops and its headway.

    An in-service pattern serves at least 2 stops, listed in strictly
    ascending order; its vehicles run one loop through them in that order
    and close it from the last stop back to the first. ``headway`` is None
    and ``stops`` empty when the pattern is out of service.
    ``headway_index`` is the 1-based menu position, 0 exactly when the
    pattern is out of service.
    """

    stops: tuple[int, ...]
    headway: float | None
    headway_index: int

    def __post_init__(self):
        off = self.headway is None
        if (self.headway_index != 0) if off else (self.headway_index < 1):
            raise PlanError(f"{'out-of' if off else 'in'}-service pattern has headway index "
                            f"{self.headway_index}")
        if off:
            if self.stops:
                raise PlanError(f"out-of-service pattern serves stops {list(self.stops)}")
        elif len(self.stops) < 2 or any(u >= v for u, v in zip(self.stops, self.stops[1:])):
            raise PlanError("in-service pattern needs at least 2 stops in ascending stop "
                            f"order, got {list(self.stops)}")

    @property
    def in_service(self) -> bool:
        return self.headway is not None

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return loop_arcs(self.stops)

    def cycle_time(self, route: RouteSpec) -> float:
        """Minutes for one full vehicle rotation around the loop."""
        stops, nd = self.stops, route.n_dir
        if stops and (stops[0] < 0 or stops[-1] >= nd):
            raise ScenarioError(f"direction stops {list(stops)} out of range [0, {nd})")
        tmat = route.travel_time_matrix()
        return _added(tmat[u][v] for u, v in self.arcs())


def vehicle_need(route: RouteSpec, patterns: Iterable[PatternPlan]) -> float:
    """Vehicles that run ``patterns`` on ``route``: cycle time over headway,
    summed across in-service patterns in pattern order."""
    return _added(pat.cycle_time(route) / pat.headway for pat in patterns if pat.in_service)


def model_order(patterns: Iterable[PatternPlan]) -> tuple[PatternPlan, ...]:
    """``patterns`` in the order the model holds them: in-service patterns
    first, by menu position (faster entries first), then the out-of-service
    ones; ties keep their listed order. The model's ``headway_order`` rows
    admit a pattern list exactly when it is already in this order."""
    return tuple(sorted(patterns, key=lambda pat: pat.headway_index or math.inf))


def _on_entry(value: float, entry: float) -> bool:
    """``value`` is the menu ``entry``, to the tolerance plans are read with."""
    return abs(value - entry) <= _HEADWAY_TOL * max(1.0, abs(entry))


def check_cell(route: RouteSpec, t: int, patterns: tuple[PatternPlan, ...]) -> None:
    """Raise ``PlanError`` unless ``patterns`` fit ``route`` in period t: one
    per route pattern, each in service at an entry of the period's menu, on
    the route's direction stops, along arcs it allows. ``load_plan`` and
    ``check_plan`` ask this of every cell."""
    if len(patterns) != route.n_patterns:
        raise PlanError(f"route {route.id} runs {route.n_patterns} pattern(s) in period {t}, "
                        f"not {len(patterns)}")
    menu, nd = route.headway_menu(t), route.n_dir
    for p, pat in enumerate(patterns):
        if not pat.in_service:
            continue
        k = pat.headway_index
        if k > len(menu) or not _on_entry(pat.headway, menu[k - 1]):
            raise PlanError(f"headway {pat.headway} is not entry {k} of the menu {list(menu)} "
                            f"on route {route.id} (period {t}, pattern {p})")
        # stops ascend, so its ends bound them; no arc walk without a mask
        if pat.stops[0] < 0 or pat.stops[-1] >= nd or route.allowed_arcs is not None:
            for u, v in pat.arcs():
                if not (0 <= u < nd and 0 <= v < nd and route.arc_allowed(u, v)):
                    raise PlanError(f"arc ({u}, {v}) not allowed on route {route.id} "
                                    f"(period {t}, pattern {p}; direction stops 0..{nd - 1})")


def _check_fleet(fleet: float, where: str) -> None:
    """Raise ``PlanError`` unless ``fleet`` is a finite number of vehicles,
    0 or more."""
    if not 0.0 <= fleet < math.inf:
        raise PlanError(f"{where}: fleet {fleet} is not a finite number of vehicles >= 0")


def _check_count(items: Any, n: int, where: str, what: str) -> None:
    if not isinstance(items, (list, tuple)) or len(items) != n:
        raise PlanError(f"{where} must describe exactly {n} {what}(s)")


def check_plan(plan: ServicePlan, scenario: Scenario) -> None:
    """Raise ``PlanError`` unless ``plan`` holds one cell per route and
    period of ``scenario``, each passing ``check_cell`` and then holding a
    finite fleet of 0 or more vehicles, cells in period order.
    ``model.fix_baseline`` and ``evaluator.assign_flows`` ask this of every
    plan; ``load_plan`` applies the same rules as it reads a document."""
    nt = len(scenario.periods)
    _check_count(plan.cells, len(scenario.routes), "plan", "route")
    for r, row in enumerate(plan.cells):
        _check_count(row, nt, f"plan routes[{r}]", "period")
    for t in range(nt):
        for r, route in enumerate(scenario.routes):
            cell = plan.cell(r, t)
            check_cell(route, t, cell.patterns)
            _check_fleet(cell.fleet, f"plan routes[{r}].periods[{t}]")


@dataclass(frozen=True)
class RoutePeriodPlan:
    patterns: tuple[PatternPlan, ...]
    fleet: float


@dataclass(frozen=True)
class ServicePlan:
    """cells[r][t] holds the design of route r in period t."""

    cells: tuple[tuple[RoutePeriodPlan, ...], ...]

    def cell(self, r: int, t: int) -> RoutePeriodPlan:
        return self.cells[r][t]

    def to_dict(self) -> dict[str, Any]:
        return {
            "routes": [
                {
                    "route": r,
                    "periods": [
                        {
                            "period": t,
                            "fleet": cell.fleet,
                            "patterns": [
                                {
                                    "pattern": p,
                                    "headway": pat.headway,
                                    "headway_index": pat.headway_index,
                                    "stops": list(pat.stops),
                                }
                                for p, pat in enumerate(cell.patterns)
                            ],
                        }
                        for t, cell in enumerate(periods)
                    ],
                }
                for r, periods in enumerate(self.cells)
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _read(parse: Callable[[Any, str], Any], value: Any, where: str) -> Any:
    """``value`` read by the scenario loader's rule ``parse``, refusals
    raised as ``PlanError``."""
    try:
        return parse(value, where)
    except ScenarioError as exc:
        raise PlanError(str(exc)) from None


def load_plan(doc: Mapping[str, Any], scenario: Scenario) -> ServicePlan:
    """Bind a parsed plan document to a scenario.

    Stops are integers and headways and fleets finite numbers, read as the
    scenario loader reads them. Headways must come from the route/period
    menu. An in-service pattern lists its stops once each, as one loop in
    stop order from any of its stops, and is stored in ascending order;
    each cell must then pass ``check_cell``. A missing ``fleet`` defaults
    to the exact vehicle requirement of the cell's patterns; a given one
    must not be negative.
    """
    routes_doc = _read(_obj, doc, "plan").get("routes")
    _check_count(routes_doc, len(scenario.routes), "plan", "route")

    cells: list[tuple[RoutePeriodPlan, ...]] = []
    for r, rdoc in enumerate(routes_doc):
        route = scenario.routes[r]
        periods_doc = _read(_obj, rdoc, f"plan routes[{r}]").get("periods")
        _check_count(periods_doc, len(scenario.periods), f"plan routes[{r}]", "period")
        row: list[RoutePeriodPlan] = []
        for t, pdoc in enumerate(periods_doc):
            menu = route.headway_menu(t)
            pwhere = f"plan routes[{r}].periods[{t}]"
            pdoc = _read(_obj, pdoc, pwhere)
            pats_doc = _read(_list, pdoc.get("patterns", []), f"{pwhere}.patterns")
            pats: list[PatternPlan] = []
            for p, pat_doc in enumerate(pats_doc):
                where = f"{pwhere}.patterns[{p}]"
                pat_doc = _read(_obj, pat_doc, where)
                headway = pat_doc.get("headway")
                stops = _read(_list, pat_doc.get("stops", []), f"{where}.stops")
                stops = tuple(_read(_int, s, f"{where}.stops[{k}]") for k, s in enumerate(stops))
                if headway is None:
                    if stops:
                        raise PlanError(f"{where}: out-of-service pattern must not serve stops")
                    pats.append(PatternPlan(stops=(), headway=None, headway_index=0))
                    continue
                if not stops:
                    raise PlanError(f"{where}: in-service pattern must serve stops")
                headway = _read(_num, headway, f"{where}.headway")
                hidx = next((k for k, v in enumerate(menu, 1) if _on_entry(headway, v)), 0)
                if not hidx:
                    raise PlanError(f"{where}: headway {headway} is not on the menu {list(menu)}")
                if len(set(stops)) != len(stops):
                    raise PlanError(f"{where}: loop visits a stop twice: {list(stops)}")
                # a rotation of ascending order turns back to a lower stop exactly once
                if sum(u > v for u, v in loop_arcs(stops)) != 1:
                    raise PlanError(f"{where}: stops {list(stops)} are not one loop in stop order")
                pats.append(PatternPlan(stops=tuple(sorted(stops)), headway=headway,
                                        headway_index=hidx))
            check_cell(route, t, tuple(pats))
            fleet = pdoc.get("fleet")
            if fleet is None:
                fleet = vehicle_need(route, pats)
            else:
                fleet = _read(_num, fleet, f"{pwhere}.fleet")
                _check_fleet(fleet, pwhere)
            row.append(RoutePeriodPlan(patterns=tuple(pats), fleet=float(fleet)))
        cells.append(tuple(row))
    return ServicePlan(cells=tuple(cells))


@dataclass(frozen=True)
class FlowAssignment:
    """Sparse flow values, keyed as the design model's flow columns.

    entry:      (t, r, d, i, c)       ``fw``: riders entering stop i for
                                      physical destination d under
                                      combination c
    inter_stop: (t, r, d, p, i, j)    ``fl``: riders on board between stops
    alighting:  (t, r, d, p, i)       ``ft``: riders alighting pattern p at
                                      i to transfer
    reboarding: (t, r, d, i, c)       ``fx``: riders boarding again at i
                                      under combination c

    ``from_flows`` checks the transfer nodes, for the design model and the
    evaluator.
    """

    entry: dict[tuple, float] = field(default_factory=dict)
    inter_stop: dict[tuple, float] = field(default_factory=dict)
    alighting: dict[tuple, float] = field(default_factory=dict)
    reboarding: dict[tuple, float] = field(default_factory=dict)

    @classmethod
    def from_flows(cls, scenario: Scenario, entry: dict[tuple, float],
                   inter_stop: dict[tuple, float], alighting: dict[tuple, float],
                   reboarding: dict[tuple, float]) -> FlowAssignment:
        """The assignment of these four flows. A transfer node (t, r, d,
        physical stop) whose alighting and re-boarding riders differ by more
        than ``NODE_TOL`` relative raises ``DecodeError``."""
        stop_of = [route.physical_of for route in scenario.routes]
        nodes: dict[tuple, list[float]] = {}      # node -> [alighted, boarded]
        for (t, r, d, p, i), v in alighting.items():
            nodes.setdefault((t, r, d, stop_of[r](i)), [0.0, 0.0])[0] += v
        for (t, r, d, j, c), v in reboarding.items():
            nodes.setdefault((t, r, d, stop_of[r](j)), [0.0, 0.0])[1] += v
        for (t, r, d, o), (alighted, boarded) in nodes.items():
            if abs(alighted - boarded) > NODE_TOL * max(1.0, boarded):
                raise DecodeError(f"period {t} route {r} stop {o} label {d}: {alighted} riders "
                                  f"alight to transfer, {boarded} board")
        return cls(entry=entry, inter_stop=inter_stop, alighting=alighting,
                   reboarding=reboarding)
